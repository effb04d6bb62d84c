"""Every check tolerance and numeric floor of the package, defined once.

The paper's identities hold in floating point only up to fixed tolerances.
Each entry below says what it guards and where its value comes from:
roundoff (u = 2**-53 scaled by the size and conditioning of the unit-scale
quantities involved), the conditioning of the matrix square root (the source floor),
statistics, a count that must be 0, a time budget or a size.  The other
modules import what they use from here and define no tolerance of their own.
Inputs and sizes (sweep levels, grid axes, seeds, the grid step, batch and
corpus sizes) stay with the code that uses them.

A check passes when its value is below its tolerance (verify.Check).
"""

# --- Operator validation (ensembles, linalg) ---

# max |A - A^dag| of a matrix that must be Hermitian; roundoff.
TOL_HERM = 1e-12
# How far the smallest eigenvalue of a state or POVM element, and a POVM's completeness, may miss; roundoff.
PSD_TOL = 1e-10
# |Tr rho - 1| of a state, and |sum_j mu_j - 1| of a transform's click probabilities; roundoff.
TRACE_TOL = 1e-10
# | ||v|| - 1 | of a pure-state vector or a retro-basis vector; roundoff.
NORM_TOL = 1e-10
# |sum_i eta_i - 1| of priors, which are inputs summed once; roundoff.
PRIORS_TOL = 1e-12
# Max-abs distance of a source from I/d that still counts as unbiased (ensembles.is_unbiased); roundoff.
UNBIASED_TOL = 1e-10
# Eigenvector components below this are passed over when fixing a unit eigenvector's phase;
# roundoff (a unit vector has a component >= 1/sqrt(D)).
PHASE_PIVOT_TOL = 1e-8

# --- The source floor and the transform (linalg, retrodiction, ud) ---

# The source floor: inverse square roots raise SingularOperator below it; conditioning.
# It is where the transform identities hold at their fixed 1e-10 tolerances.  eigh is
# backward stable (exact for Omega + E, ||E|| ~ u = 2**-53, as ||Omega|| <= Tr Omega = 1),
# and the conditioning of the matrix square root (Higham, Functions of Matrices, 2008)
# makes the completeness residual of Omega^{-1/2} Omega Omega^{-1/2} about c u / w_min,
# with c <= 2 measured for D = 2..8.  A 1e-10 residual thus needs w_min >= 2.2e-6; 1e-5
# leaves a 4.5x margin.
MIN_EIG_DEFAULT = 1e-5
# Zero up to roundoff: square roots clip eigenvalues in [-PSD_CLIP_TOL, 0) to 0, and a
# support-restricted inversion drops those up to +PSD_CLIP_TOL; roundoff.
PSD_CLIP_TOL = 1e-10
# Outcomes with click probability mu_j at most this have no retrodictive state; roundoff.
MU_FLOOR = 1e-12
# How far a probability or a transmission weight may stray outside [0, 1] and be clipped; roundoff.
PROB_CLAMP_TOL = 1e-12
# How far the diagonal and determinant of the UD source remainder may dip below 0; roundoff.
REMAINDER_PSD_TOL = 1e-12

# --- The grid oracle (ud.brute_force_dual) ---

# The grid-oracle checks hold the closed-form optimum to this many grid steps; the oracle is O(step) off.
GRID_ORACLE_STEPS = 2.0
# Smallest oracle step: a grid of at most about 1e6 points per instance, and at most that many points
# (8 MB of float64) per temporary of the windowed scan; a size.
MIN_GRID_STEP = 1e-6
# Largest oracle step.  The success probability lies in [0, 1], so from a step of 0.5 no deviation
# can fail the oracle check; at 0.01 its tolerance (GRID_ORACLE_STEPS steps) is 2% of that range
# and the grid has at least 100 points per unit of prior; a size.
MAX_GRID_STEP = 0.01

# --- The sampler (sim) ---

# Joint probabilities below this are rounding residue of structurally zero cells (the UD
# condition); they are zeroed so that impossible outcomes never appear in the counts; roundoff.
STRUCTURAL_ZERO = 1e-14
# StatTable bounds each cell's deviation by this many binomial standard deviations; statistics,
# a per-cell false-alarm rate of about 0.27%, not yet calibrated to a family-wise rate.
STAT_SIGMAS = 3.0

# --- The seeded corpora (verify) ---

# random_corpus keeps pairs whose smallest source eigenvalue clears MIN_OMEGA_EIG and whose
# smallest click probability clears MIN_MU: the corpus stays far above the floors; conditioning.
MIN_OMEGA_EIG = 1e-3
MIN_MU = 1e-3
# Floor of the inverse square root that normalises a random POVM's summed Ginibre draws,
# which are full rank far above it; roundoff.
POVM_DRAW_MIN_EIG = 1e-12

# --- Check tolerances ---

# A count that must be 0 passes below this.
COUNT_THRESHOLD = 0.5

# (name, tolerance) of each per-instance check, in report order.  Residuals of unit-scale
# operators at the source floor; roundoff through the conditioning bound of MIN_EIG_DEFAULT.
TRANSFORM_CHECKS = (
    ("symmetric-born-identity", 1e-9),  # Born on the dual vs the Bayes conditionals
    ("retro-povm-completeness", 1e-10),  # sum_i Pi_i^ret = I (the support projector when restricted)
    ("retro-state-traces", 1e-10),  # Tr rho_j^ret = 1
    ("source-identity", 1e-10),  # sum_j mu_j rho_j^ret = Omega
)
UD_CHECKS = (
    ("retro-basis-orthonormality", 1e-9),  # <phi_1|phi_2> = 0, ||phi_i|| = 1
    ("retro-basis-closed-vs-numeric", 1e-10),  # closed-form vs numeric retro basis
    ("eigenvalues-closed-vs-numeric", 1e-10),  # closed-form vs numeric source spectrum
    ("source-in-retro-basis", 1e-10),  # U^dag Omega U vs its closed form
    ("retro-state-purity", 1e-9),  # Tr (rho_i^ret)^2 = 1 of the conclusive states
    ("retro-state-identification", 1e-9),  # conclusive states = basis projectors, two routes
    ("failure-state-determinant", 1e-10),  # the weighted failure state is pure
    ("duality-bridge", 1e-10),  # eta_i <psi_i|Pi_i|psi_i> = mu_i, and the success probabilities
)
CHANNEL_CHECKS = (
    ("swap-residual", 1e-10),  # the symmetric state is swap invariant
    ("reduced-states-vs-source", 1e-10),  # both reduced states are Omega
    ("no-signaling-residual", 1e-10),  # Alice's state vs her mu-weighted decomposition
    ("sqrt-source-symmetry", 1e-12),  # sqrt(Omega) in the retro basis is symmetric
    ("asymmetric-channel-relations", 1e-10),  # the computational-basis channel and the basis change
)

# The tolerance of every check by name: the per-instance checks above, then those of the
# suites and the CLI alone.  The grid-oracle checks (closed-vs-grid-oracle and
# grid-oracle-deviation) are held to GRID_ORACLE_STEPS times their step instead.
CHECK_TOLERANCES = {
    **dict(TRANSFORM_CHECKS + UD_CHECKS + CHANNEL_CHECKS),
    # transform suite; roundoff through the conditioning of the corpus sources (>= MIN_OMEGA_EIG)
    "double-dual-source": 1e-10,  # the dual's source is the pair's source
    "double-dual-roundtrip": 1e-9,  # transforming the dual gives back the pair
    "unbiased-reduction": 1e-10,  # an unbiased source's transform is the D eta_i rho_i construction
    # ud suite
    "regime-classification-mismatches": COUNT_THRESHOLD,
    "branch-continuity": 1e-9,  # both closed forms agree at eta_max = 1/(1+s^2); roundoff
    "spot-value-even-priors": 1e-12,  # P_s = 1 - s at even priors; roundoff
    "spot-value-clamped": 1e-12,  # P_s = eta_max (1 - s^2) when clamped; roundoff
    # simulate suite
    "structural-zero-cells": COUNT_THRESHOLD,
    "mu0-deviation": 0.0015,  # 3 binomial sigma of a p = 0.5 frequency at n = 1e6; statistics, uncalibrated
    "retro-conditionals-3sigma-violations": COUNT_THRESHOLD,
    "rerun-mismatch": COUNT_THRESHOLD,
    "runtime-seconds": 10.0,  # drawing 1e6 samples; a time budget
    # failure-modes suite: each is 1 when the failure mode is not raised as it should be
    "alpha-to-zero-raises-singular": COUNT_THRESHOLD,
    "near-identical-states-retro-basis": COUNT_THRESHOLD,
    "rank-deficient-source-raises-singular": COUNT_THRESHOLD,
    "zero-probability-outcome-raises": COUNT_THRESHOLD,
    "undefined-retro-state-flagged": COUNT_THRESHOLD,
    "invalid-priors-rejected": COUNT_THRESHOLD,
    "support-restricted-mode-runs": COUNT_THRESHOLD,
    "source-floor-contract": COUNT_THRESHOLD,
    # simulate command
    "cells-beyond-3sigma": COUNT_THRESHOLD,
}
