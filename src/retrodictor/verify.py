"""Property suites that back the `verify` command and the acceptance tests.

Each identity family is defined once by a `checks_for_*` function; the
`transform`, `ud` and `channel` CLI reports carry that per-instance tuple,
and the matching suite reports its worst value over a seeded random corpus or
a deterministic parameter grid, next to the checks that only make sense over
a corpus (double dual, unbiased reduction, grid oracle, regime
classification, branch continuity, spot values).

Every identity family is array-valued: `transform_residuals`,
`ud_residuals` and `channel_residuals` give one row of their check table's
values per instance of a stack; the `checks_for_*` functions report the row
of their one instance, which for UD is a stack of one.  The seeded inputs
come from one block drawer on the sampler's counter-based generator, so
suite runs are reproducible: each corpus draws its slots' state and outcome
counts as one block, then each dimension of CORPUS_DIMS as one stack, each
input kind (priors and states, POVMs, unitaries) as one block, validated
once.  A corpus pads each pair to PADDED_COUNT outcomes with zero POVM
elements, and the random corpus to PADDED_COUNT states with states at prior
0; the padding drops out of every check.  The transform suite runs one
`transform_stack` per dimension for the corpus, its double dual and the
unbiased corpus; `floor_sweep` gives one stack per dimension, which the
floor contract transforms whole, then once more for its rows above the
floor.  The `ud` and `channel` suites are a few
vectorised passes over slices of the grid (GRID_BATCH instances each), the
grid oracle included.  Each suite reports each column's worst value (NaN is
worst).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import (
    NoSignalingReport,
    entangled_state,
    no_signaling_check,
    reduced_matrix,
    sqrt_omega_in_retro_basis,
    swap_residual,
)
from .ensembles import (
    Ensemble,
    Povm,
    validate_operator_stack,
    validate_povm_stack,
    validate_priors_stack,
)
from .errors import (
    RetrodictorError,
    SingularOperator,
    ValidationError,
    ZeroProbabilityOutcome,
)
from .retrodiction import (
    RetroDual,
    _click_probabilities,
    bayes_table,
    born_table,
    joint_table,
    retro_transform,
    transform_stack,
    unbiased_stack,
)
from .sim import empirical_report, sample
from .tolerances import (
    CHANNEL_CHECKS,
    CHECK_TOLERANCES,
    GRID_ORACLE_STEPS,
    MIN_EIG_DEFAULT,
    MIN_MU,
    MIN_OMEGA_EIG,
    POVM_DRAW_MIN_EIG,
    TRANSFORM_CHECKS,
    UD_CHECKS,
)
from .ud import (
    DualOptimum,
    UdInstance,
    brute_force_dual,
    duality_bridge,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    optimal_dual,
    retro_basis,
    retro_basis_closed_form,
    ud_ensemble,
    ud_retro_dual,
    verify_purity_identification,
)

DEFAULT_SEED = 2024
CORPUS_SIZE = 500
CORPUS_DIMS = (2, 3, 4)
# Corpus and floor-sweep pairs have 2 to PADDED_COUNT states and outcomes each;
# the corpus pads every pair of a dimension's stack to PADDED_COUNT of both.
PADDED_COUNT = 4

# Smallest source eigenvalues on either side of the source floor MIN_EIG_DEFAULT.
FLOOR_SWEEP_ABOVE = (1.05 * MIN_EIG_DEFAULT, 10.0 * MIN_EIG_DEFAULT)
FLOOR_SWEEP_BELOW = (0.5 * MIN_EIG_DEFAULT, 1e-7, 1e-9)
FLOOR_SWEEP_DIMS = (2, 3, 4, 8)

GRID_ETA_MAX = np.linspace(0.5, 0.98, 25)
GRID_OVERLAP = np.linspace(0.02, 0.95, 25)
GRID_STEP = 1e-4
# Grid instances per vectorised pass of the ud and channel suites.  Slicing
# bounds the memory of the stacked temporaries: one pass over all 1,225
# instances raised the peak RSS of `verify --suite all` by 2.1 MB (5%), five
# passes of at most 256 by 0.3 MB, at the same speed.
GRID_BATCH = 256


@dataclass(frozen=True)
class Check:
    """One verified identity: worst measured value against its tolerance."""

    name: str
    value: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @classmethod
    def named(cls, name: str, value) -> Check:
        """The check called name, held to its CHECK_TOLERANCES entry."""
        return cls(name, value, CHECK_TOLERANCES[name])

    @property
    def passed(self) -> bool:
        return bool(self.value < self.tolerance)

    def line(self, prefix: str = "") -> str:
        """Human-readable verdict: `[PASS] <prefix><name>: <value> (tolerance <tol>)`."""
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {prefix}{self.name}: {self.value:.3e} (tolerance {self.tolerance:.3e})"


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line(f"{self.suite}/") for c in self.checks]


def _max_each(*values) -> np.ndarray:
    """Elementwise maximum of residual arrays (NaN propagates)."""
    return functools.reduce(np.maximum, values)


def _max_defined(values: np.ndarray) -> np.ndarray:
    """Largest residual along the last axis, skipping the NaN of an outcome that never fires."""
    return np.fmax.reduce(values, axis=-1)


def _checks(table, values) -> tuple[Check, ...]:
    """The table's checks at one row of values (under leading axes of size one)."""
    rows = np.reshape(values, (-1, len(table)))
    if len(rows) != 1:
        raise ValueError(f"checks take one instance, not a stack of {len(rows)}")
    return tuple(Check(name, value, tol) for (name, tol), value in zip(table, rows[0]))


def _worst(table, rows: np.ndarray) -> tuple[Check, ...]:
    """The table's checks at their worst value over the instance rows; NaN is worst."""
    return _checks(table, np.max(rows, axis=0))


def transform_residuals(joint: np.ndarray, dual: RetroDual) -> np.ndarray:
    """The TRANSFORM_CHECKS values of one pair, or one row of them per pair of a stack.

    joint is the pair's joint_table and dual its transform_stack.  The
    symmetric Born rule is held against Bayes on every defined outcome; both
    tables are 0 in the columns of the undefined ones.
    """
    bayes = bayes_table(joint, dual.defined)
    born = born_table(dual.povm_stack, dual.state_stack, "retrodictive probability")
    residuals = (dual.completeness_residual(), dual.trace_residual(), dual.source_residual())
    return np.stack([np.abs(born - bayes).max(axis=(-2, -1)), *residuals], axis=-1)


def checks_for_transform(ensemble: Ensemble, povm: Povm, dual: RetroDual) -> tuple[Check, ...]:
    """Transform identities of one ensemble/POVM pair and its retrodictive dual (see TRANSFORM_CHECKS).

    A support-restricted dual only promises completeness on its support.
    """
    table = TRANSFORM_CHECKS
    if dual.sum_target is not None:
        table = [(name.replace("completeness", "completeness-on-support"), tol) for name, tol in table]
    joint = joint_table(ensemble.priors, ensemble.matrices, povm.elements)
    return _checks(table, transform_residuals(joint, dual))


def ud_residuals(x: UdInstance, opt: DualOptimum, dual) -> np.ndarray:
    """The UD_CHECKS values of each instance of x, one row each: (n, len(UD_CHECKS)).

    opt and dual are x's optimal_dual and ud_retro_dual; the numeric retro
    basis is opt.basis, and the numeric source spectrum is the one it was
    built from.
    """
    basis = opt.basis
    u = basis.vectors
    closed = retro_basis_closed_form(x)
    cf = omega_closed_form(x)
    eigenvalues = basis.omega_spectrum.eigenvalues
    purity = verify_purity_identification(x, opt, dual)
    norms = linalg.norm_each(np.swapaxes(u, -1, -2))
    bridge = duality_bridge(x, opt)
    mu = dual.mu
    return np.stack(
        np.broadcast_arrays(
            _max_each(
                np.abs((u[..., :, 0].conj() * u[..., :, 1]).sum(axis=-1)),
                np.abs(norms[..., 0] - 1.0),
                np.abs(norms[..., 1] - 1.0),
            ),
            linalg.maxabs_each(u - closed.vectors),
            _max_each(np.abs(eigenvalues[..., 0] - cf.w2), np.abs(eigenvalues[..., 1] - cf.w1)),
            linalg.maxabs_each(linalg.dag(u) @ omega_matrix(x) @ u - omega_in_retro_basis(x)),
            _max_defined(purity.purity_residuals),
            _max_defined(
                np.concatenate([purity.projector_residuals, purity.sqrt_route_residuals], axis=-1)
            ),
            purity.failure_det_residual,
            _max_each(
                np.abs(bridge[..., 0] - opt.mu1),
                np.abs(bridge[..., 1] - opt.mu2),
                np.abs(mu[..., 0] - opt.mu1),
                np.abs(mu[..., 1] - opt.mu2),
                np.abs(bridge.sum(axis=-1) - opt.p_success),
            ),
        ),
        axis=-1,
    )


def checks_for_ud(inst: UdInstance, opt: DualOptimum) -> tuple[Check, ...]:
    """Retro-basis, source-spectrum, purity and duality identities of one UD instance, a stack of one.

    opt is the instance's optimal_dual, which every caller has already built.
    The instance is transformed through retro_transform, the one-pair entry
    point that perfbench traces as the transform layer (ud_retro_dual of a
    stack is the same transform_stack without it).
    """
    dual = retro_transform(ud_ensemble(inst), Povm(opt.elements[0]))
    return _checks(UD_CHECKS, ud_residuals(inst, opt, dual))


def channel_residuals(x: UdInstance, report: NoSignalingReport) -> np.ndarray:
    """The CHANNEL_CHECKS values of each instance of x, one row each: (n, len(CHANNEL_CHECKS)).

    report is x's no_signaling_check at the optimal weights; its symmetric
    state, reduced states and retro basis are checked here.
    """
    om = omega_matrix(x)
    sq = sqrt_omega_in_retro_basis(report.basis)
    plain = entangled_state(x)
    plain_reduced = np.stack([reduced_matrix(plain, 0), reduced_matrix(plain, 1)], axis=-3)
    validate_operator_stack(plain_reduced, "entangled-state reduction", unit_trace=True).raise_if_failed()
    lifted = report.basis.vectors @ plain
    return np.stack(
        np.broadcast_arrays(
            swap_residual(report.amplitudes),
            _max_each(
                linalg.maxabs_each(report.reduced_b - om), linalg.maxabs_each(report.reduced_a - om)
            ),
            report.max_residual,
            np.abs(sq[..., 0, 1] - sq[..., 1, 0]),
            _max_each(
                linalg.maxabs_each(plain_reduced[..., 0, :, :] - om),
                linalg.maxabs_each(plain_reduced[..., 1, :, :] - omega_in_retro_basis(x)),
                linalg.maxabs_each(lifted - report.amplitudes),
            ),
        ),
        axis=-1,
    )


def checks_for_channel(inst: UdInstance, report: NoSignalingReport) -> tuple[Check, ...]:
    """Swap symmetry, reduced states, no-signaling and basis-change identities of one channel, a stack of one.

    report is the instance's no_signaling_check at the optimal weights.
    """
    return _checks(CHANNEL_CHECKS, channel_residuals(inst, report))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Complex Gaussian matrices from standard normals z (..., 2, r, c): the real, then the imaginary parts."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _draw_unitaries(rng: np.random.Generator, dim: int, lead: tuple[int, ...]) -> np.ndarray:
    """Random unitaries (*lead, d, d), drawn as one block: the eigenvectors of Ginibre matrices' Hermitian parts."""
    g = _ginibre(rng.standard_normal((*lead, 2, dim, dim)))
    return linalg.hermitian_eig((g + linalg.dag(g)) / 2.0).eigenvectors


def _live(counts: np.ndarray) -> np.ndarray:
    """The (..., PADDED_COUNT) mask of the live items of padded pairs with counts (...) of them."""
    return np.arange(PADDED_COUNT) < counts[..., None]


def _draw_states(
    rng: np.random.Generator, dim: int, n_states: int, lead: tuple[int, ...] = (), live: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Priors (*lead, n) and Ginibre states (*lead, n, d, d) of ensembles, each drawn as one block.

    live, if given, is the (*lead, n) mask of the live states; the others get prior 0.
    """
    priors = rng.random((*lead, n_states)) + 0.1
    if live is not None:
        priors = np.where(live, priors, 0.0)
    g = _ginibre(rng.standard_normal((*lead, n_states, 2, dim, dim + 1)))
    m = g @ linalg.dag(g)
    return priors / priors.sum(axis=-1, keepdims=True), m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _draw_povm(
    rng: np.random.Generator, dim: int, n_elements: int, lead: tuple[int, ...] = (), live: np.ndarray | None = None
) -> np.ndarray:
    """Random POVMs (*lead, n, d, d), drawn as one block: n Ginibre PSD operators normalised by their sum.

    live, if given, is the (*lead, n) mask of the live elements; the others are zeroed before
    normalising, so they stay exact zeros and the live ones sum to the identity.
    """
    g = _ginibre(rng.standard_normal((*lead, n_elements, 2, dim, dim)))
    mats = g @ linalg.dag(g)
    if live is not None:
        mats = np.where(live[..., None, None], mats, 0.0)
    inv_root = linalg.inv_sqrtm_psd(mats.sum(axis=-3), min_eig=POVM_DRAW_MIN_EIG)[..., None, :, :]
    e = inv_root @ mats @ inv_root
    return (e + linalg.dag(e)) / 2.0


def _validated_group(priors, states, elements) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of pairs of one shape, validated once: priors, states and POVMs as stacks."""
    validate_priors_stack(priors, "corpus priors").raise_if_failed()
    validate_operator_stack(states, "corpus state", unit_trace=True).raise_if_failed()
    validate_povm_stack(elements, "corpus POVM").raise_if_failed()
    return priors, states, elements


def random_corpus(seed: int = DEFAULT_SEED, count: int = CORPUS_SIZE) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Seeded pairs clearing MIN_OMEGA_EIG and MIN_MU, as one stacked (priors, states, elements) per dimension.

    Slot k has dimension CORPUS_DIMS[k % 3] and its (states, outcomes)
    counts, 2 to PADDED_COUNT each; the counts of all slots are drawn first, as
    one block.  Each dimension's stack holds its slots in order, padded to
    PADDED_COUNT states and outcomes: a pair's extra states are valid states at
    prior 0 and its extra POVM elements are zero.  A dimension draws one
    candidate per unfilled slot, as one block of priors and states and one of
    POVMs, and keeps those that clear the floors on their live outcomes,
    until every slot is filled.
    """
    rng = _rng(seed)
    counts = rng.integers(2, PADDED_COUNT + 1, (count, 2))
    stacks = []
    for k, dim in enumerate(CORPUS_DIMS):
        live_states, live_elements = _live(counts[k :: len(CORPUS_DIMS)].T)
        priors = np.empty(live_states.shape)
        states, elements = (np.empty((*live_states.shape, dim, dim), dtype=np.complex128) for _ in range(2))
        todo = np.arange(len(priors))
        while len(todo):
            p, s = _draw_states(rng, dim, PADDED_COUNT, todo.shape, live_states[todo])
            e = _draw_povm(rng, dim, PADDED_COUNT, todo.shape, live_elements[todo])
            omega = (p[..., None, None] * s).sum(axis=-3)
            w_min = np.linalg.eigvalsh((omega + linalg.dag(omega)) / 2.0)[:, 0]
            mu = np.where(live_elements[todo], _click_probabilities(e, omega), np.inf)
            keep = (w_min >= MIN_OMEGA_EIG) & (mu.min(axis=-1) >= MIN_MU)
            priors[todo[keep]], states[todo[keep]], elements[todo[keep]] = p[keep], s[keep], e[keep]
            todo = todo[~keep]
        stacks.append(_validated_group(priors, states, elements))
    return stacks


def unbiased_corpus(seed: int, count: int = 60) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pairs whose source is maximally mixed (orthonormal pure states, uniform priors), one stack per dimension.

    Slot k has dimension d = CORPUS_DIMS[k % 3], d states, the columns of a
    random unitary, and 2 to PADDED_COUNT outcomes; the outcome counts of all
    slots are drawn first, as one block.  Each dimension's stack holds its
    slots in order, each POVM padded to PADDED_COUNT elements with zeros, and
    draws its unitaries, then its POVMs, as one block each.
    """
    rng = _rng(seed)
    counts = rng.integers(2, PADDED_COUNT + 1, count)
    stacks = []
    for k, dim in enumerate(CORPUS_DIMS):
        live = _live(counts[k :: len(CORPUS_DIMS)])
        lead = live.shape[:1]
        # C order, as each pair's own arrays are: the sources then sum their
        # states in the same order for the stack as for each pair alone.
        states = np.ascontiguousarray(linalg.outer(np.swapaxes(_draw_unitaries(rng, dim, lead), -1, -2)))
        elements = _draw_povm(rng, dim, PADDED_COUNT, lead, live)
        stacks.append(_validated_group(np.full((*lead, dim), 1.0 / dim), states, elements))
    return stacks


def floor_sweep() -> tuple[list[tuple[np.ndarray, ...]], tuple[np.ndarray, UdInstance]]:
    """Inputs on either side of the source floor: one stack of pairs per dimension, and one UD stack.

    Each dimension of FLOOR_SWEEP_DIMS gives read-only stacks (levels,
    priors, states, elements) of three pairs per level, level-major.  Pair k
    is a random POVM {E_i} splitting Omega = U diag(levels[k], ...) U^dag as
    eta_i rho_i = sqrt(Omega) E_i sqrt(Omega), measured by another random
    POVM.  The dimensions' (n, m), 2 to PADDED_COUNT each, are drawn as one block; each
    dimension then draws its spectra, unitaries, splittings and POVMs as one
    block each, validated once.  The UD stack is (w2, instances): the
    instance at each level w2 of its smallest source eigenvalue, at priors
    (0.5, 0.5), then at (0.6, 0.4).
    """
    rng = _rng(DEFAULT_SEED)
    levels = np.repeat(FLOOR_SWEEP_ABOVE + FLOOR_SWEEP_BELOW, 3)
    levels.setflags(write=False)
    transforms = []
    counts = rng.integers(2, PADDED_COUNT + 1, (len(FLOOR_SWEEP_DIMS), 2)).tolist()
    for (n_states, n_elements), dim in zip(counts, FLOOR_SWEEP_DIMS):
        lead = levels.shape
        rest = levels[:, None] + rng.dirichlet(np.ones(dim - 1), lead) * (1.0 - dim * levels)[:, None]
        u = _draw_unitaries(rng, dim, lead)
        root = ((u * np.sqrt(np.column_stack([levels, rest]))[:, None, :]) @ linalg.dag(u))[:, None]
        split = _draw_povm(rng, dim, n_states, lead)
        validate_povm_stack(split, "floor-sweep splitting POVM").raise_if_failed()
        parts = root @ split @ root
        priors = np.trace(parts, axis1=-2, axis2=-1).real
        states = (parts + linalg.dag(parts)) / (2.0 * priors[..., None, None])
        pairs = _validated_group(priors, states, _draw_povm(rng, dim, n_elements, lead))
        for array in pairs:
            array.setflags(write=False)
        transforms.append((levels, *pairs))
    w2 = np.tile(FLOOR_SWEEP_ABOVE + FLOOR_SWEEP_BELOW, 2)
    w2.setflags(write=False)
    eta = np.repeat([[0.5, 0.6], [0.5, 0.4]], len(w2) // 2, axis=1)
    return transforms, (w2, UdInstance(0.5 * np.arcsin(np.sqrt(w2 * (1.0 - w2) / (eta[0] * eta[1]))), eta))


def grid_instances() -> UdInstance:
    """The acceptance grid over (eta_max, overlap) as one stack, both prior orderings.

    eta_max-major, then overlap, then (eta_max, eta_min) before (eta_min, eta_max).
    """
    eta_max, s = (a.ravel() for a in np.meshgrid(GRID_ETA_MAX, GRID_OVERLAP, indexing="ij"))
    eta_min = 1.0 - eta_max
    orders = np.array([[eta_max, eta_min], [eta_min, eta_max]]).transpose(1, 2, 0)  # (2, M, 2)
    keep = np.stack([np.ones_like(eta_max, dtype=bool), eta_max > 0.5], axis=-1)
    return UdInstance.from_overlap(np.stack([s, s], axis=-1)[keep], orders[:, keep])


def suite_transform(seed: int = DEFAULT_SEED, count: int = CORPUS_SIZE) -> SuiteResult:
    """Transform identities over the corpus, double dual, unbiased reduction: one stack per dimension.

    A padded pair's zero-prior states and zero POVM elements drop out of
    every check: the undefined outcomes' columns are 0 in both tables, and
    the double dual's back.defined mask zeroes the padded states.
    """
    rows, double_src, double_ops = [], [0.0], [0.0]
    for priors, states, elements in random_corpus(seed, count):
        dual = transform_stack(priors, states, elements)
        rows.append(transform_residuals(joint_table(priors, states, elements), dual))
        # Double dual: the transformed pairs transform back onto the originals.
        back = transform_stack(dual.mu, dual.state_stack, dual.povm_stack)
        double_src.append(linalg.maxabs(back.omega_matrix - dual.omega_matrix))
        defined = back.defined[..., None, None]
        double_ops.append(linalg.maxabs(back.povm_stack - elements))
        double_ops.append(linalg.maxabs(back.state_stack - defined * states))

    unbiased = [0.0]
    for priors, states, elements in unbiased_corpus(seed + 1):
        dual = transform_stack(priors, states, elements)
        ref = unbiased_stack(priors, states, elements)
        both = (dual.defined & ref.defined)[..., None, None]
        unbiased.append(linalg.maxabs(dual.povm_stack - ref.povm_stack))
        unbiased.append(linalg.maxabs(both * (dual.state_stack - ref.state_stack)))

    return SuiteResult(
        "transform",
        (
            *_worst(TRANSFORM_CHECKS, np.concatenate(rows)),
            Check.named("double-dual-source", max(double_src)),
            Check.named("double-dual-roundtrip", max(double_ops)),
            Check.named("unbiased-reduction", max(unbiased)),
        ),
    )


def _grid_slices() -> list[UdInstance]:
    """grid_instances in slices of at most GRID_BATCH, one vectorised pass each."""
    grid = grid_instances()
    return [grid[k : k + GRID_BATCH] for k in range(0, len(grid), GRID_BATCH)]


def _ud_grid_rows(x: UdInstance) -> np.ndarray:
    """Per instance: the gap to the grid oracle, the regime mismatches, then the UD_CHECKS values."""
    opt = optimal_dual(x)
    p_grid = brute_force_dual(x, GRID_STEP)[2]
    s = x.s
    clamped = opt.regime == "clamped"
    mu_min = np.minimum(opt.mu1, opt.mu2)
    mismatches = (
        (clamped != (x.eta_max >= 1.0 / (1.0 + s * s))).astype(float)
        + (clamped & (mu_min != 0.0))
        + (~clamped & (mu_min <= 0.0))
    )
    residuals = ud_residuals(x, opt, ud_retro_dual(x, opt))
    return np.column_stack([np.abs(opt.p_success - p_grid), mismatches, residuals])


def suite_ud() -> SuiteResult:
    """Closed-form optimum vs the grid oracle, regimes, and the UD identities, over the grid."""
    rows = np.concatenate([_ud_grid_rows(x) for x in _grid_slices()])

    # Branch continuity at the regime boundary eta_max = 1/(1+s^2).
    worst_continuity = 0.0
    for s in GRID_OVERLAP:
        eta_max = 1.0 / (1.0 + float(s) ** 2)
        eta_min = 1.0 - eta_max
        interior = 1.0 - 2.0 * math.sqrt(eta_max * eta_min) * float(s)
        clamped = eta_max * (1.0 - float(s) ** 2)
        worst_continuity = max(worst_continuity, abs(interior - clamped))

    spot = optimal_dual(UdInstance.from_overlap([0.5, math.sqrt(0.5)], [[0.5, 0.9], [0.5, 0.1]]))
    spot_even, spot_clamped = np.abs(spot.p_success - [0.5, 0.45])

    return SuiteResult(
        "ud",
        (
            Check("closed-vs-grid-oracle", rows[:, 0].max(), GRID_ORACLE_STEPS * GRID_STEP),
            Check.named("regime-classification-mismatches", rows[:, 1].sum()),
            Check.named("branch-continuity", worst_continuity),
            Check.named("spot-value-even-priors", spot_even),
            Check.named("spot-value-clamped", spot_clamped),
            *_worst(UD_CHECKS, rows[:, 2:]),
        ),
    )


def suite_channel() -> SuiteResult:
    """Swap symmetry, reduced states, no-signaling, sqrt-source symmetry over the grid."""
    rows = np.concatenate([channel_residuals(x, no_signaling_check(x)) for x in _grid_slices()])
    return SuiteResult("channel", _worst(CHANNEL_CHECKS, rows))


def suite_simulate(seed: int = 42, n: int = 10**6) -> SuiteResult:
    """Monte Carlo reproducibility and statistical agreement on the UD instance."""
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    ensemble = ud_ensemble(inst)
    povm = Povm(optimal_dual(inst).elements[0])
    start = time.perf_counter()
    counts = sample(ensemble, povm, n, seed)
    elapsed = time.perf_counter() - start
    rerun = sample(ensemble, povm, n, seed)
    identical = float(not np.array_equal(counts.counts, rerun.counts))
    structural = float(counts.counts[0, 1] + counts.counts[1, 0])
    mu0_dev = abs(float(counts.column_totals[2]) / n - 0.5)
    report = empirical_report(counts, ensemble)
    retro_violations = float(len(report.retrodictive.violations()))
    return SuiteResult(
        "simulate",
        (
            Check.named("structural-zero-cells", structural),
            Check.named("mu0-deviation", mu0_dev),
            Check.named("retro-conditionals-3sigma-violations", retro_violations),
            Check.named("rerun-mismatch", identical),
            Check.named("runtime-seconds", elapsed),
        ),
    )


def suite_failure_modes() -> SuiteResult:
    """Singular sources, zero-probability outcomes, and invalid inputs fail loudly."""
    failures = []

    def expect(name: str, exc_type, fn) -> None:
        try:
            fn()
            failed = " (no error raised)"
        except exc_type:
            failed = ""
        except RetrodictorError as exc:
            failed = f" (raised {type(exc).__name__})"
        failures.append(Check(name + failed, float(bool(failed)), CHECK_TOLERANCES[name]))

    expect(
        "alpha-to-zero-raises-singular",
        SingularOperator,
        lambda: omega_closed_form(UdInstance([1e-8], [[0.5], [0.5]])),
    )
    expect(
        "near-identical-states-retro-basis",
        SingularOperator,
        lambda: retro_basis(UdInstance([1e-8], [[0.6], [0.4]])),
    )

    pure = np.diag([1.0, 0.0])
    rank_deficient = Ensemble((pure, pure), np.array([0.5, 0.5]))
    mixed = Ensemble((np.eye(2) / 2.0,), np.array([1.0]))
    never_clicks = Povm((np.eye(2), np.zeros((2, 2))))  # outcome 1 has probability 0
    every_outcome = np.ones(len(never_clicks), dtype=bool)
    expect(
        "rank-deficient-source-raises-singular",
        SingularOperator,
        lambda: retro_transform(rank_deficient, _projective_qubit_povm()),
    )
    expect(
        "zero-probability-outcome-raises",
        ZeroProbabilityOutcome,
        lambda: bayes_table(joint_table(mixed.priors, mixed.matrices, never_clicks.elements), every_outcome),
    )

    def flagged_undefined():
        dual = retro_transform(mixed, never_clicks)
        # Born's rule on the dual weighted by mu_j, conditioned on every outcome:
        # the undefined outcome 1 has no weight.  A retrodictive state for
        # outcome 1 fails the check as "no error raised".
        born = born_table(dual.povm_stack, dual.state_stack, "retrodictive probability")
        return dual.defined[1] or bayes_table(born * dual.mu, every_outcome)

    expect("undefined-retro-state-flagged", ZeroProbabilityOutcome, flagged_undefined)

    expect(
        "invalid-priors-rejected",
        ValidationError,
        lambda: Ensemble(np.concatenate([mixed.matrices] * 2), np.array([0.5, 0.4])),
    )

    name = "support-restricted-mode-runs"
    try:
        dual = retro_transform(rank_deficient, _projective_qubit_povm(), support_restricted=True)
        failures.append(Check.named(name, dual.source_residual() > CHECK_TOLERANCES["source-identity"]))
    except RetrodictorError as exc:
        failures.append(Check(f"{name} ({type(exc).__name__})", 1.0, CHECK_TOLERANCES[name]))

    failures.append(Check.named("source-floor-contract", _floor_contract_breaches()))
    return SuiteResult("failure-modes", tuple(failures))


def _floor_contract_breaches() -> float:
    """Floor-sweep rows that break the source-floor contract, in each dimension's stack and the UD stack."""
    transforms, (w2, uds) = floor_sweep()
    breaches = sum(_stack_breaches(levels, _transform_rows, TRANSFORM_CHECKS, *pairs) for levels, *pairs in transforms)
    return float(breaches + _stack_breaches(w2, _ud_rows, UD_CHECKS + CHANNEL_CHECKS, uds))


def _transform_rows(*pairs: np.ndarray) -> np.ndarray:
    """The TRANSFORM_CHECKS values of each pair of a stack (priors, states, elements)."""
    return transform_residuals(joint_table(*pairs), transform_stack(*pairs))


def _ud_rows(x: UdInstance) -> np.ndarray:
    """The UD_CHECKS, then the CHANNEL_CHECKS values of each instance of a stack."""
    opt = optimal_dual(x)
    residuals = ud_residuals(x, opt, ud_retro_dual(x, opt))
    return np.column_stack([residuals, channel_residuals(x, no_signaling_check(x))])


def _stack_breaches(levels: np.ndarray, rows, table, *stacks) -> int:
    """The rows of one floor-sweep stack that break the source-floor contract.

    rows(*stacks) gives table's check values of each row of the stacks, whose
    source levels are levels.  The whole stack must raise SingularOperator
    naming exactly its rows below the floor; the rows above it that were not
    named then run once as a stack and must pass every check (NaN fails).
    Another error makes every row of its run a breach.
    """
    below = levels < MIN_EIG_DEFAULT
    named = np.zeros_like(below)
    try:
        rows(*stacks)
    except SingularOperator as exc:
        named[[k for (k,) in exc.rows]] = True
    except RetrodictorError:
        return len(levels)
    above = np.flatnonzero(~below & ~named)
    try:
        missed = np.count_nonzero(~(rows(*(s[above] for s in stacks)) < [tol for _, tol in table]).all(axis=-1))
    except RetrodictorError:
        missed = len(above)
    return int(np.count_nonzero(named != below) + missed)


def _projective_qubit_povm() -> Povm:
    return Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


SUITES = {
    "transform": suite_transform,
    "ud": suite_ud,
    "channel": suite_channel,
    "simulate": suite_simulate,
    "failure-modes": suite_failure_modes,
}


def run_suites(names: list[str] | None = None) -> list[SuiteResult]:
    """Run the named suites (all of them when names is None or contains 'all')."""
    if not names or "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; choose from {', '.join(SUITES)}")
    return [SUITES[name]() for name in names]
