"""Property suites that back the `verify` command and the acceptance tests.

Each identity family is defined once by a `checks_for_*` function; the
`transform`, `ud` and `channel` CLI reports carry that per-instance tuple,
and the matching suite reports its worst value over a seeded random corpus or
a deterministic parameter grid, next to the checks that only make sense over
a corpus (double dual, unbiased reduction, grid oracle, regime
classification, branch continuity, spot values).

The UD and channel identities are array-valued: `ud_residuals` and
`channel_residuals` give one row of check values per instance, for one
instance (what `checks_for_ud` and `checks_for_channel` report) or for a
whole `UdBatch`, so the `ud` and `channel` suites are a few vectorised passes
over slices of the grid (GRID_BATCH instances each), and report each column's
worst value (NaN is worst).  The
transform suite loops over its corpus, whose pairs differ in shape.  The
random corpora are generated with the same counter-based generator as the
sampler, so suite runs are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import (
    NoSignalingReport,
    entangled_amplitudes,
    no_signaling_check,
    reduced_matrix,
    sqrt_omega_in_retro_basis,
    swap_residual,
)
from .ensembles import DensityOperator, Ensemble, Povm, source_from_ensemble, validate_operator_stack
from .errors import (
    RetrodictorError,
    SingularOperator,
    ValidationError,
    ZeroProbabilityOutcome,
)
from .retrodiction import (
    RetroDual,
    bayes_table,
    joint_probability_table,
    outcome_probs,
    retro_transform,
    retrodictive_prob_bayes,
    retrodictive_prob_symmetric,
    symmetric_table,
    unbiased_dual,
)
from .sim import empirical_report, sample
from .ud import (
    DualOptimum,
    Instances,
    PredictiveUdPovm,
    UdBatch,
    UdInstance,
    brute_force_dual,
    duality_bridge,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    optimal_dual,
    optimal_predictive_povm,
    predictive_success_probability,
    retro_basis,
    retro_basis_closed_form,
    ud_ensemble,
    ud_retro_dual,
    verify_purity_identification,
)

DEFAULT_SEED = 2024
CORPUS_SIZE = 500
CORPUS_DIMS = (2, 3, 4)
MIN_OMEGA_EIG = 1e-3
MIN_MU = 1e-3

# Smallest source eigenvalues on either side of linalg.MIN_EIG_DEFAULT.
FLOOR_SWEEP_ABOVE = (1.05 * linalg.MIN_EIG_DEFAULT, 10.0 * linalg.MIN_EIG_DEFAULT)
FLOOR_SWEEP_BELOW = (0.5 * linalg.MIN_EIG_DEFAULT, 1e-7, 1e-9)
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


def checks_for_transform(ensemble: Ensemble, povm: Povm, dual: RetroDual) -> tuple[Check, ...]:
    """Transform identities of one ensemble/POVM pair and its retrodictive dual.

    The symmetric Born rule is held against Bayes on every defined outcome.
    A support-restricted dual only promises completeness on its support.
    """
    defined = [j for j, s in enumerate(dual.retro_states) if s is not None]
    born = symmetric_table(dual, defined)
    bayes = bayes_table(joint_probability_table(ensemble, povm), defined)
    on_support = "" if dual.retro_povm.sum_target is None else "-on-support"
    return (
        Check("symmetric-born-identity", linalg.maxabs(born - bayes), 1e-9),
        Check(f"retro-povm-completeness{on_support}", dual.completeness_residual(), 1e-10),
        Check("retro-state-traces", dual.trace_residual(), 1e-10),
        Check("source-identity", dual.source_residual(), 1e-10),
    )


# (name, tolerance) of each UD and channel check, in report order.
UD_CHECKS = (
    ("retro-basis-orthonormality", 1e-9),
    ("retro-basis-closed-vs-numeric", 1e-10),
    ("eigenvalues-closed-vs-numeric", 1e-10),
    ("source-in-retro-basis", 1e-10),
    ("retro-state-purity", 1e-9),
    ("retro-state-identification", 1e-9),
    ("failure-state-determinant", 1e-10),
    ("duality-bridge", 1e-10),
)
CHANNEL_CHECKS = (
    ("swap-residual", 1e-10),
    ("reduced-states-vs-source", 1e-10),
    ("no-signaling-residual", 1e-10),
    ("sqrt-source-symmetry", 1e-12),
    ("asymmetric-channel-relations", 1e-10),
)


def _max_each(*values) -> np.ndarray:
    """Elementwise maximum of residual arrays (NaN propagates)."""
    return functools.reduce(np.maximum, values)


def _max_defined(values: np.ndarray) -> np.ndarray:
    """Largest residual along the last axis, skipping the NaN of an outcome that never fires."""
    return np.fmax.reduce(values, axis=-1)


def _checks(table, values) -> tuple[Check, ...]:
    return tuple(Check(name, value, tol) for (name, tol), value in zip(table, values))


def _worst(table, rows: np.ndarray) -> tuple[Check, ...]:
    """The table's checks at their worst value over the instance rows; NaN is worst."""
    return _checks(table, np.max(rows, axis=0))


def ud_residuals(
    x: Instances, opt: DualOptimum, ud_povm: PredictiveUdPovm, dual
) -> np.ndarray:
    """The UD_CHECKS values of one instance, or one row of them per instance of a batch.

    opt, ud_povm and dual are x's optimal_dual, optimal_predictive_povm and
    ud_retro_dual; the numeric retro basis is opt.basis, and the numeric
    source spectrum is the one it was built from.
    """
    basis = opt.basis
    u = basis.vectors
    closed = retro_basis_closed_form(x)
    cf = omega_closed_form(x)
    eigenvalues = basis.omega_spectrum.eigenvalues
    purity = verify_purity_identification(x, opt, dual)
    norms = linalg.norm_each(np.swapaxes(u, -1, -2))
    bridge = duality_bridge(x, ud_povm)
    mu = dual.mu.mu
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
                np.abs(predictive_success_probability(x, ud_povm) - opt.p_success),
            ),
        ),
        axis=-1,
    )


def checks_for_ud(
    inst: UdInstance, opt: DualOptimum, ud_povm: PredictiveUdPovm
) -> tuple[Check, ...]:
    """Retro-basis, source-spectrum, purity and duality identities of one UD instance.

    opt and ud_povm are the instance's optimal_dual and
    optimal_predictive_povm, which every caller has already built.
    """
    return _checks(UD_CHECKS, ud_residuals(inst, opt, ud_povm, ud_retro_dual(inst, ud_povm)))


def channel_residuals(x: Instances, report: NoSignalingReport) -> np.ndarray:
    """The CHANNEL_CHECKS values of one instance, or one row of them per instance of a batch.

    report is x's no_signaling_check at the optimal weights; its symmetric
    state, reduced states and retro basis are checked here.
    """
    om = omega_matrix(x)
    sq = sqrt_omega_in_retro_basis(report.basis)
    plain = entangled_amplitudes(x)
    plain_reduced = np.stack([reduced_matrix(plain, 0), reduced_matrix(plain, 1)], axis=-3)
    validate_operator_stack(plain_reduced, "entangled-state reduction", unit_trace=True).raise_if_failed()
    lifted = report.basis.vectors @ plain.reshape(*plain.shape[:-1], 2, 2)
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
                np.abs(lifted.reshape(plain.shape) - report.amplitudes).max(axis=-1),
            ),
        ),
        axis=-1,
    )


def checks_for_channel(inst: UdInstance, report: NoSignalingReport) -> tuple[Check, ...]:
    """Swap symmetry, reduced states, no-signaling and basis-change identities of one channel.

    report is the instance's no_signaling_check at the optimal weights.
    """
    return _checks(CHANNEL_CHECKS, channel_residuals(inst, report))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    g = rng.standard_normal((dim, dim + 1)) + 1j * rng.standard_normal((dim, dim + 1))
    m = g @ g.conj().T
    return DensityOperator(m / float(np.trace(m).real))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitian_eig((g + g.conj().T) / 2.0).eigenvectors


def random_povm(rng: np.random.Generator, dim: int, n_elements: int) -> Povm:
    """Random POVM: normalize a set of Ginibre PSD operators by their sum."""
    mats = []
    for _ in range(n_elements):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(g @ g.conj().T)
    inv_root = linalg.inv_sqrtm_psd(sum(mats), min_eig=1e-12)
    e = inv_root @ np.stack(mats) @ inv_root
    return Povm((e + linalg.dag(e)) / 2.0)


def random_ensemble(rng: np.random.Generator, dim: int, n_states: int) -> Ensemble:
    priors = rng.random(n_states) + 0.1
    priors = priors / priors.sum()
    return Ensemble(tuple(_random_density(rng, dim) for _ in range(n_states)), priors)


def random_corpus(
    seed: int = DEFAULT_SEED,
    count: int = CORPUS_SIZE,
    dims: tuple[int, ...] = CORPUS_DIMS,
    min_omega_eig: float = MIN_OMEGA_EIG,
    min_mu: float = MIN_MU,
) -> list[tuple[Ensemble, Povm]]:
    """Seeded random (ensemble, POVM) pairs with well-conditioned sources and outcomes."""
    rng = _rng(seed)
    corpus = []
    while len(corpus) < count:
        dim = dims[len(corpus) % len(dims)]
        n_states = int(rng.integers(2, 5))
        n_elements = int(rng.integers(2, 5))
        ensemble = random_ensemble(rng, dim, n_states)
        povm = random_povm(rng, dim, n_elements)
        omega = source_from_ensemble(ensemble)
        if linalg.min_eigenvalue(omega.matrix) < min_omega_eig:
            continue
        if outcome_probs(povm, omega).mu.min() < min_mu:
            continue
        corpus.append((ensemble, povm))
    return corpus


def floor_sweep() -> tuple[list[tuple[float, Ensemble, Povm]], list[tuple[float, UdInstance]]]:
    """Inputs on either side of the source floor: (min_eig, ensemble, povm) and (w2, UD instance).

    Three pairs per dimension and level, each a random POVM {E_i} splitting
    Omega = U diag(min_eig, ...) U^dag as eta_i rho_i = sqrt(Omega) E_i sqrt(Omega).
    """
    rng = _rng(DEFAULT_SEED)
    levels = FLOOR_SWEEP_ABOVE + FLOOR_SWEEP_BELOW
    transforms = []
    for dim, min_eig, _ in itertools.product(FLOOR_SWEEP_DIMS, levels, range(3)):
        rest = min_eig + rng.dirichlet(np.ones(dim - 1)) * (1.0 - dim * min_eig)
        u = _random_unitary(rng, dim)
        root = (u * np.sqrt(np.concatenate([[min_eig], rest]))) @ linalg.dag(u)
        parts = root @ random_povm(rng, dim, int(rng.integers(2, 5))).elements @ root
        priors = np.trace(parts, axis1=1, axis2=2).real
        states = tuple(
            DensityOperator((p + linalg.dag(p)) / (2.0 * eta)) for p, eta in zip(parts, priors)
        )
        povm = random_povm(rng, dim, int(rng.integers(2, 5)))
        transforms.append((min_eig, Ensemble(states, priors), povm))
    uds = [
        (w2, UdInstance(0.5 * math.asin(math.sqrt(w2 * (1.0 - w2) / (eta[0] * eta[1]))), eta))
        for eta in ((0.5, 0.5), (0.6, 0.4))
        for w2 in levels
    ]
    return transforms, uds


def unbiased_corpus(seed: int, count: int = 60) -> list[tuple[Ensemble, Povm]]:
    """Pairs whose source is maximally mixed: orthonormal pure states, uniform priors."""
    rng = _rng(seed)
    corpus = []
    for k in range(count):
        dim = CORPUS_DIMS[k % len(CORPUS_DIMS)]
        u = _random_unitary(rng, dim)
        states = tuple(
            DensityOperator(linalg.outer(u[:, i])) for i in range(dim)
        )
        ensemble = Ensemble(states, np.full(dim, 1.0 / dim))
        corpus.append((ensemble, random_povm(rng, dim, int(rng.integers(2, 5)))))
    return corpus


def grid_instances() -> list[UdInstance]:
    """The acceptance grid over (eta_max, overlap), both prior orderings."""
    out = []
    for eta_max in GRID_ETA_MAX:
        for s in GRID_OVERLAP:
            out.append(UdInstance.from_overlap(float(s), (float(eta_max), float(1.0 - eta_max))))
            if eta_max > 0.5:
                out.append(UdInstance.from_overlap(float(s), (float(1.0 - eta_max), float(eta_max))))
    return out


def suite_transform(seed: int = DEFAULT_SEED, count: int = CORPUS_SIZE) -> SuiteResult:
    """Transform identities over the corpus, unbiased reduction, double dual."""
    rows = []
    worst_double_src = worst_double_ops = 0.0
    for ensemble, povm in random_corpus(seed, count):
        dual = retro_transform(ensemble, povm)
        checks = checks_for_transform(ensemble, povm, dual)
        rows.append([c.value for c in checks])
        # Double dual: the transformed pair transforms back onto the original.
        back_ensemble = Ensemble(tuple(dual.retro_states), dual.mu.mu)
        worst_double_src = max(
            worst_double_src,
            linalg.maxabs(source_from_ensemble(back_ensemble).matrix - dual.omega.matrix),
        )
        back = retro_transform(back_ensemble, dual.retro_povm)
        worst_double_ops = max(
            worst_double_ops,
            linalg.maxabs(back.retro_povm.elements - povm.elements),
            *(linalg.maxabs(b.matrix - a.matrix)
              for a, b in zip(ensemble.states, back.retro_states) if b is not None),
        )

    worst_unbiased = 0.0
    for ensemble, povm in unbiased_corpus(seed + 1):
        dual = retro_transform(ensemble, povm)
        ref = unbiased_dual(ensemble, povm)
        worst_unbiased = max(
            worst_unbiased,
            linalg.maxabs(dual.retro_povm.elements - ref.retro_povm.elements),
            *(linalg.maxabs(a.matrix - b.matrix)
              for a, b in zip(dual.retro_states, ref.retro_states) if a is not None and b is not None),
        )

    return SuiteResult(
        "transform",
        (
            *_worst([(c.name, c.tolerance) for c in checks], np.array(rows)),
            Check("double-dual-source", worst_double_src, 1e-10),
            Check("double-dual-roundtrip", worst_double_ops, 1e-9),
            Check("unbiased-reduction", worst_unbiased, 1e-10),
        ),
    )


def _grid_slices() -> list[list[UdInstance]]:
    """grid_instances in slices of at most GRID_BATCH, one vectorised pass each."""
    instances = grid_instances()
    return [instances[k : k + GRID_BATCH] for k in range(0, len(instances), GRID_BATCH)]


def _ud_grid_rows(instances: list[UdInstance]) -> np.ndarray:
    """Per instance: the gap to the grid oracle, the regime mismatches, then the UD_CHECKS values."""
    batch = UdBatch.of(instances)
    opt = optimal_dual(batch)
    ud_povm = optimal_predictive_povm(batch)
    p_grid = np.array([brute_force_dual(inst, GRID_STEP)[2] for inst in instances])
    s = batch.s
    clamped = opt.regime == "clamped"
    mu_min = np.minimum(opt.mu1, opt.mu2)
    mismatches = (
        (clamped != (batch.eta_max >= 1.0 / (1.0 + s * s))).astype(float)
        + (clamped & (mu_min != 0.0))
        + (~clamped & (mu_min <= 0.0))
    )
    residuals = ud_residuals(batch, opt, ud_povm, ud_retro_dual(batch, ud_povm))
    return np.column_stack([np.abs(opt.p_success - p_grid), mismatches, residuals])


def suite_ud() -> SuiteResult:
    """Closed-form optimum vs the grid oracle, regimes, and the UD identities, over the grid."""
    rows = np.concatenate([_ud_grid_rows(instances) for instances in _grid_slices()])

    # Branch continuity at the regime boundary eta_max = 1/(1+s^2).
    worst_continuity = 0.0
    for s in GRID_OVERLAP:
        eta_max = 1.0 / (1.0 + float(s) ** 2)
        eta_min = 1.0 - eta_max
        interior = 1.0 - 2.0 * math.sqrt(eta_max * eta_min) * float(s)
        clamped = eta_max * (1.0 - float(s) ** 2)
        worst_continuity = max(worst_continuity, abs(interior - clamped))

    spot_even = abs(optimal_dual(UdInstance.from_overlap(0.5, (0.5, 0.5))).p_success - 0.5)
    spot_clamped = abs(
        optimal_dual(UdInstance.from_overlap(math.sqrt(0.5), (0.9, 0.1))).p_success - 0.45
    )

    return SuiteResult(
        "ud",
        (
            Check("closed-vs-grid-oracle", rows[:, 0].max(), 2.0 * GRID_STEP),
            Check("regime-classification-mismatches", rows[:, 1].sum(), 0.5),
            Check("branch-continuity", worst_continuity, 1e-9),
            Check("spot-value-even-priors", spot_even, 1e-12),
            Check("spot-value-clamped", spot_clamped, 1e-12),
            *_worst(UD_CHECKS, rows[:, 2:]),
        ),
    )


def suite_channel() -> SuiteResult:
    """Swap symmetry, reduced states, no-signaling, sqrt-source symmetry over the grid."""
    batches = [UdBatch.of(instances) for instances in _grid_slices()]
    rows = np.concatenate([channel_residuals(b, no_signaling_check(b)) for b in batches])
    return SuiteResult("channel", _worst(CHANNEL_CHECKS, rows))


def suite_simulate(seed: int = 42, n: int = 10**6) -> SuiteResult:
    """Monte Carlo reproducibility and statistical agreement on the UD instance."""
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    ensemble = ud_ensemble(inst)
    povm = optimal_predictive_povm(inst).povm
    start = time.perf_counter()
    counts = sample(ensemble, povm, n, seed)
    elapsed = time.perf_counter() - start
    rerun = sample(ensemble, povm, n, seed)
    identical = float(not np.array_equal(counts.counts, rerun.counts))
    structural = float(counts.counts[0, 1] + counts.counts[1, 0])
    mu0_dev = abs(float(counts.column_totals[2]) / n - 0.5)
    report = empirical_report(counts, ensemble, povm)
    retro_violations = float(len(report.retrodictive.violations()))
    return SuiteResult(
        "simulate",
        (
            Check("structural-zero-cells", structural, 0.5),
            Check("mu0-deviation", mu0_dev, 0.0015),
            Check("retro-conditionals-3sigma-violations", retro_violations, 0.5),
            Check("rerun-mismatch", identical, 0.5),
            Check("runtime-seconds", elapsed, 10.0),
        ),
    )


def suite_failure_modes() -> SuiteResult:
    """Singular sources, zero-probability outcomes, and invalid inputs fail loudly."""
    failures = []

    def expect(name: str, exc_type, fn) -> None:
        try:
            fn()
        except exc_type:
            failures.append(Check(name, 0.0, 0.5))
        except RetrodictorError as exc:
            failures.append(Check(f"{name} (raised {type(exc).__name__})", 1.0, 0.5))
        else:
            failures.append(Check(f"{name} (no error raised)", 1.0, 0.5))

    expect(
        "alpha-to-zero-raises-singular",
        SingularOperator,
        lambda: omega_closed_form(UdInstance(1e-8, (0.5, 0.5))),
    )
    expect(
        "near-identical-states-retro-basis",
        SingularOperator,
        lambda: retro_basis(UdInstance(1e-8, (0.6, 0.4))),
    )

    def rank_deficient():
        state = DensityOperator(np.diag([1.0, 0.0]))
        retro_transform(Ensemble((state, state), np.array([0.5, 0.5])), _projective_qubit_povm())

    expect("rank-deficient-source-raises-singular", SingularOperator, rank_deficient)

    def zero_probability():
        zero = np.zeros((2, 2))
        povm = Povm((np.eye(2), zero))
        state = DensityOperator(np.eye(2) / 2.0)
        ensemble = Ensemble((state,), np.array([1.0]))
        retrodictive_prob_bayes(ensemble, povm, 0, 1)

    expect("zero-probability-outcome-raises", ZeroProbabilityOutcome, zero_probability)

    def flagged_undefined():
        zero = np.zeros((2, 2))
        povm = Povm((np.eye(2), zero))
        state = DensityOperator(np.eye(2) / 2.0)
        ensemble = Ensemble((state,), np.array([1.0]))
        dual = retro_transform(ensemble, povm)
        if dual.retro_states[1] is not None:
            raise AssertionError("undefined retro state was not flagged")
        retrodictive_prob_symmetric(dual, 0, 1)

    expect("undefined-retro-state-flagged", ZeroProbabilityOutcome, flagged_undefined)

    expect(
        "invalid-priors-rejected",
        ValidationError,
        lambda: Ensemble(
            (DensityOperator(np.eye(2) / 2.0), DensityOperator(np.eye(2) / 2.0)),
            np.array([0.5, 0.4]),
        ),
    )

    def support_restricted_runs():
        state = DensityOperator(np.diag([1.0, 0.0]))
        ensemble = Ensemble((state, state), np.array([0.5, 0.5]))
        dual = retro_transform(ensemble, _projective_qubit_povm(), support_restricted=True)
        if dual.source_residual() > 1e-10:
            raise AssertionError("source identity failed on the support")

    try:
        support_restricted_runs()
        failures.append(Check("support-restricted-mode-runs", 0.0, 0.5))
    except RetrodictorError as exc:
        failures.append(Check(f"support-restricted-mode-runs ({type(exc).__name__})", 1.0, 0.5))

    failures.append(Check("source-floor-contract", _floor_contract_breaches(), 0.5))
    return SuiteResult("failure-modes", tuple(failures))


def _floor_contract_breaches() -> float:
    """Floor-sweep inputs that miss an identity above the floor or raise no SingularOperator below."""
    transforms, uds = floor_sweep()
    runs = [
        (m, lambda e=e, p=p: checks_for_transform(e, p, retro_transform(e, p)))
        for m, e, p in transforms
    ]
    runs += [
        (
            w2,
            lambda i=inst: checks_for_ud(i, optimal_dual(i), optimal_predictive_povm(i))
            + checks_for_channel(i, no_signaling_check(i)),
        )
        for w2, inst in uds
    ]
    breaches = 0
    for level, run in runs:
        above = level >= linalg.MIN_EIG_DEFAULT
        try:
            checks = run()
        except SingularOperator:
            breaches += above
        except RetrodictorError:
            breaches += 1
        else:
            breaches += not above or not all(c.passed for c in checks)
    return float(breaches)


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
