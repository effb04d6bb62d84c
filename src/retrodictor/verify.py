"""Property suites that back the `verify` command and the acceptance tests.

Each identity family is defined once, per instance, by a `checks_for_*`
function; the `transform`, `ud` and `channel` CLI reports carry that
per-instance tuple, and the matching suite reports its worst value over a
seeded random corpus or a deterministic parameter grid, next to the checks
that only make sense over a corpus (double dual, unbiased reduction, grid
oracle, regime classification, branch continuity, spot values).  The random
corpora are generated with the same counter-based generator as the sampler,
so suite runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import (
    NoSignalingReport,
    entangled_state,
    no_signaling_check,
    sqrt_omega_in_retro_basis,
)
from .ensembles import DensityOperator, Ensemble, Povm, source_from_ensemble
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
    PredictiveUdPovm,
    UdInstance,
    brute_force_dual,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    optimal_dual,
    optimal_predictive_povm,
    predictive_success_probability,
    retro_basis,
    retro_basis_closed_form,
    ud_ensemble,
    ud_states,
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


def _worse(worst: tuple[Check, ...] | None, checks: tuple[Check, ...]) -> tuple[Check, ...]:
    """Position-wise worse of a running worst and one instance's checks; NaN is worst."""
    if worst is None:
        return checks
    return tuple(
        w if w.value >= c.value or math.isnan(w.value) else c for w, c in zip(worst, checks)
    )


def _max_defined(values) -> float:
    """Largest residual, skipping the NaN of an outcome that never fires."""
    return max(v for v in values if not math.isnan(v))


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


def checks_for_ud(
    inst: UdInstance, opt: DualOptimum, ud_povm: PredictiveUdPovm
) -> tuple[Check, ...]:
    """Retro-basis, source-spectrum, purity and duality identities of one UD instance.

    opt and ud_povm are the instance's optimal_dual and
    optimal_predictive_povm, which every caller has already built; the
    numeric retro basis is opt.basis, and the numeric source spectrum is the
    one it was built from.
    """
    basis = opt.basis
    closed = retro_basis_closed_form(inst)
    cf = omega_closed_form(inst)
    om = omega_matrix(inst)
    spectrum = basis.omega_spectrum
    u = basis.matrix()
    dual = retro_transform(ud_ensemble(inst), ud_povm.povm)
    purity = verify_purity_identification(inst, opt, dual)

    psi1, psi2 = ud_states(inst)
    bridge1 = inst.eta[0] * float(
        np.vdot(psi1.amplitudes, ud_povm.povm.elements[0] @ psi1.amplitudes).real
    )
    bridge2 = inst.eta[1] * float(
        np.vdot(psi2.amplitudes, ud_povm.povm.elements[1] @ psi2.amplitudes).real
    )
    mu = dual.mu
    return (
        Check(
            "retro-basis-orthonormality",
            max(
                abs(basis.phi1.overlap(basis.phi2)),
                abs(float(np.linalg.norm(basis.phi1.amplitudes)) - 1.0),
                abs(float(np.linalg.norm(basis.phi2.amplitudes)) - 1.0),
            ),
            1e-9,
        ),
        Check(
            "retro-basis-closed-vs-numeric",
            max(
                linalg.maxabs(basis.phi1.amplitudes - closed.phi1.amplitudes),
                linalg.maxabs(basis.phi2.amplitudes - closed.phi2.amplitudes),
            ),
            1e-10,
        ),
        Check(
            "eigenvalues-closed-vs-numeric",
            max(abs(spectrum.eigenvalues[0] - cf.w2), abs(spectrum.eigenvalues[1] - cf.w1)),
            1e-10,
        ),
        Check(
            "source-in-retro-basis",
            linalg.maxabs(linalg.dag(u) @ om @ u - omega_in_retro_basis(inst)),
            1e-10,
        ),
        Check("retro-state-purity", _max_defined(purity.purity_residuals), 1e-9),
        Check(
            "retro-state-identification",
            _max_defined(purity.projector_residuals + purity.sqrt_route_residuals),
            1e-9,
        ),
        Check("failure-state-determinant", purity.failure_det_residual, 1e-10),
        Check(
            "duality-bridge",
            max(
                abs(bridge1 - opt.mu1),
                abs(bridge2 - opt.mu2),
                abs(mu[0] - opt.mu1),
                abs(mu[1] - opt.mu2),
                abs(predictive_success_probability(inst, ud_povm) - opt.p_success),
            ),
            1e-10,
        ),
    )


def checks_for_channel(inst: UdInstance, report: NoSignalingReport) -> tuple[Check, ...]:
    """Swap symmetry, reduced states, no-signaling and basis-change identities of one channel.

    report is the instance's no_signaling_check at the optimal weights; its
    symmetric state, reduced states and retro basis are checked here.
    """
    state = report.state
    om = omega_matrix(inst)
    sq = sqrt_omega_in_retro_basis(report.basis)
    plain = entangled_state(inst)
    lifted = np.kron(report.basis.matrix(), np.eye(2)) @ plain.amplitudes
    return (
        Check("swap-residual", state.swap_residual(), 1e-10),
        Check(
            "reduced-states-vs-source",
            max(
                linalg.maxabs(report.rho_b.matrix - om),
                linalg.maxabs(report.rho_a.matrix - om),
            ),
            1e-10,
        ),
        Check("no-signaling-residual", report.max_residual, 1e-10),
        Check("sqrt-source-symmetry", abs(sq[0, 1] - sq[1, 0]), 1e-12),
        Check(
            "asymmetric-channel-relations",
            max(
                linalg.maxabs(plain.reduced(0).matrix - om),
                linalg.maxabs(plain.reduced(1).matrix - omega_in_retro_basis(inst)),
                linalg.maxabs(lifted - state.amplitudes),
            ),
            1e-10,
        ),
    )


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
    worst = None
    worst_double_src = worst_double_ops = 0.0
    for ensemble, povm in random_corpus(seed, count):
        dual = retro_transform(ensemble, povm)
        worst = _worse(worst, checks_for_transform(ensemble, povm, dual))
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
            *worst,
            Check("double-dual-source", worst_double_src, 1e-10),
            Check("double-dual-roundtrip", worst_double_ops, 1e-9),
            Check("unbiased-reduction", worst_unbiased, 1e-10),
        ),
    )


def suite_ud() -> SuiteResult:
    """Closed-form optimum vs the grid oracle, regimes, and the per-instance UD identities."""
    worst = None
    worst_gap = 0.0
    regime_mismatches = 0.0
    for inst in grid_instances():
        opt = optimal_dual(inst)
        _, _, p_grid = brute_force_dual(inst, GRID_STEP)
        worst_gap = max(worst_gap, abs(opt.p_success - p_grid))
        clamped_expected = inst.eta_max >= 1.0 / (1.0 + inst.s**2)
        if (opt.regime == "clamped") != clamped_expected:
            regime_mismatches += 1.0
        if opt.regime == "clamped" and min(opt.mu1, opt.mu2) != 0.0:
            regime_mismatches += 1.0
        if opt.regime == "interior" and min(opt.mu1, opt.mu2) <= 0.0:
            regime_mismatches += 1.0
        worst = _worse(worst, checks_for_ud(inst, opt, optimal_predictive_povm(inst)))

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
            Check("closed-vs-grid-oracle", worst_gap, 2.0 * GRID_STEP),
            Check("regime-classification-mismatches", regime_mismatches, 0.5),
            Check("branch-continuity", worst_continuity, 1e-9),
            Check("spot-value-even-priors", spot_even, 1e-12),
            Check("spot-value-clamped", spot_clamped, 1e-12),
            *worst,
        ),
    )


def suite_channel() -> SuiteResult:
    """Swap symmetry, reduced states, no-signaling, sqrt-source symmetry over the grid."""
    worst = None
    for inst in grid_instances():
        worst = _worse(worst, checks_for_channel(inst, no_signaling_check(inst)))
    return SuiteResult("channel", worst)


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
