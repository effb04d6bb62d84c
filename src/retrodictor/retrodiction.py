"""Predictive and retrodictive probabilities and the source transform.

The transform conjugates states by the inverse square root of the source
function and detectors by its square root, producing a retrodictive POVM
indexed like the ensemble and retrodictive states indexed like the POVM.
Born's rule on the transformed pair reproduces the Bayes conditionals for
arbitrary (biased) sources; for an unbiased source it reduces to the familiar
construction Pi_i^ret = D eta_i rho_i, rho_j^ret = Pi_j / Tr(Pi_j).

Both sides are tables from born_table, one einsum over two operator stacks:
joint_probability_table is the one definition of p[i, j] = eta_i Tr(Pi_j rho_i),
which Bayes and the sampler read, and symmetric_table is the transformed side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensembles import (
    TRACE_TOL,
    DensityOperator,
    Ensemble,
    Povm,
    SourceFunction,
    require_same_dim,
    source_from_ensemble,
)
from .errors import (
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityOutcome,
)

MU_FLOOR = 1e-12
PROB_CLAMP_TOL = 1e-12


def _clamp_probability(value, what: str):
    """Clip into [0, 1] elementwise, allowing only +-1e-12 of roundoff outside it."""
    value = np.asarray(value)
    outside = value[~((value >= -PROB_CLAMP_TOL) & (value <= 1.0 + PROB_CLAMP_TOL))]
    if outside.size:
        raise NumericIntegrityError(
            f"{what} = {float(outside[0])!r} is outside [0, 1] beyond clamp tolerance"
        )
    return np.clip(value, 0.0, 1.0)


def born_table(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Born's rule for two (n, d, d) and (m, d, d) stacks: t[i, j] = Tr(a_i b_j), clamped."""
    return _clamp_probability(np.einsum("ikl,jlk->ij", a, b).real, what)


def predictive_prob(povm_element, state) -> float:
    """Born-rule probability Tr(Pi rho) of one outcome given one state."""
    pi = np.asarray(povm_element, dtype=np.complex128)
    rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=np.complex128)
    require_same_dim(pi.shape[0], rho.shape[0], "POVM element vs state")
    return float(born_table(rho[None], pi[None], "predictive probability")[0, 0])


def joint_probability_table(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """The joint distribution p[i, j] = eta_i Tr(Pi_j rho_i) of preparation i and outcome j."""
    require_same_dim(ensemble.dim, povm.dim, "ensemble vs POVM")
    born = born_table(ensemble.matrices, povm.elements, "predictive probability")
    return ensemble.priors[:, None] * born


def bayes_table(joint: np.ndarray, outcomes: list[int]) -> np.ndarray:
    """Bayes conditionals P(i | j) = p[i, j] / mu_j of the listed outcomes, from the joint table."""
    columns = joint[:, outcomes]
    mu = columns.sum(axis=0)
    for j, mu_j in zip(outcomes, mu):
        if mu_j <= MU_FLOOR:
            raise ZeroProbabilityOutcome(
                f"outcome {j} has probability {mu_j:.3e} <= {MU_FLOOR:.0e}; cannot condition on it"
            )
    return _clamp_probability(columns / mu, "retrodictive probability")


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Unconditional click probabilities of the detectors against the source."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        if np.any(mu < -PROB_CLAMP_TOL):
            raise NumericIntegrityError(f"negative outcome probability {mu.min():.3e}")
        mu = np.clip(mu, 0.0, None)
        total = float(mu.sum())  # = Tr(Omega)
        if abs(total - 1.0) > TRACE_TOL:
            raise NumericIntegrityError(f"outcome probabilities sum to {total!r}")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    def __len__(self) -> int:
        return self.mu.shape[0]

    def __getitem__(self, j: int) -> float:
        return float(self.mu[j])


def outcome_probs(povm: Povm, omega: SourceFunction) -> OutcomeDistribution:
    """Click probabilities mu_j = Tr(Pi_j Omega)."""
    require_same_dim(povm.dim, omega.dim, "POVM vs source")
    mu = [float(np.einsum("ij,ji->", e, omega.matrix).real) for e in povm.elements]
    return OutcomeDistribution(np.array(mu))


def retrodictive_prob_bayes(ensemble: Ensemble, povm: Povm, i: int, j: int) -> float:
    """Bayes conditional P(state i | outcome j), read from column j of the joint table."""
    return float(bayes_table(joint_probability_table(ensemble, povm), [j])[i, 0])


@dataclass(frozen=True, eq=False)
class RetroDual:
    """The transformed pair: retrodictive POVM, states, and their weights.

    retro_states[j] is None exactly when mu_j is below the floor, in which
    case conditioning on outcome j is rejected rather than divided by ~0.
    """

    retro_povm: Povm
    retro_states: tuple[DensityOperator | None, ...]
    mu: OutcomeDistribution
    omega: SourceFunction

    def completeness_residual(self) -> float:
        """Max-abs residual of sum_i Pi_i^ret against the identity (or the support's sum_target)."""
        target = self.retro_povm.sum_target
        target = np.eye(self.retro_povm.dim) if target is None else target
        return linalg.maxabs(self.retro_povm.elements.sum(axis=0) - target)

    def trace_residual(self) -> float:
        """Worst |Tr(rho_j^ret) - 1| over the defined retrodictive states."""
        traces = [np.trace(s.matrix).real for s in self.retro_states if s is not None]
        return linalg.maxabs(np.array(traces) - 1.0)

    def source_residual(self) -> float:
        """Max-abs residual of sum_j mu_j rho_j^ret against the source function."""
        total = sum(self.mu[j] * s.matrix for j, s in enumerate(self.retro_states) if s is not None)
        return linalg.maxabs(total - self.omega.matrix)


def retro_transform(
    ensemble: Ensemble,
    povm: Povm,
    support_restricted: bool = False,
) -> RetroDual:
    """Build the retrodictive dual of a prepare-and-measure pair.

    Pi_i^ret = Omega^{-1/2} eta_i rho_i Omega^{-1/2} and
    rho_j^ret = sqrt(Omega) Pi_j sqrt(Omega) / mu_j.

    Raises SingularOperator when the source function has an eigenvalue below
    linalg.MIN_EIG_DEFAULT. With support_restricted=True, eigenvalues at most
    linalg.PSD_CLIP_TOL (zero up to roundoff) count as outside the support
    instead: the inversion acts on the support only, and completeness holds
    on the support projector instead of the identity. Above the floor every
    identity holds at its fixed tolerance; operators that still miss their
    invariants raise NumericIntegrityError, not a degraded dual.
    """
    require_same_dim(ensemble.dim, povm.dim, "ensemble vs POVM")
    omega = source_from_ensemble(ensemble)
    om = omega.matrix
    spectrum = linalg.hermitian_eig(om)
    inv_root = spectrum.inv_sqrt(support_restricted=support_restricted)
    root = spectrum.sqrt()

    e = inv_root @ (ensemble.priors[:, None, None] * ensemble.matrices) @ inv_root
    retro_elements = (e + linalg.dag(e)) / 2.0
    try:
        if support_restricted:
            support = inv_root @ om @ inv_root
            retro_povm = Povm(retro_elements, sum_target=(support + linalg.dag(support)) / 2.0)
        else:
            retro_povm = Povm(retro_elements)
    except ValidationError as exc:
        raise NumericIntegrityError(
            f"retrodictive POVM violates its invariants: {exc}"
        ) from exc

    mu = outcome_probs(povm, omega)
    retro_states: list[DensityOperator | None] = []
    for j, element in enumerate(povm.elements):
        if mu[j] <= MU_FLOOR:
            retro_states.append(None)
            continue
        s = root @ element @ root
        # Tr(s) equals mu_j analytically; normalizing by the sandwich's own
        # trace keeps the state's trace at 1 even when mu_j is tiny.
        s = s / float(np.trace(s).real)
        try:
            retro_states.append(DensityOperator((s + linalg.dag(s)) / 2.0))
        except ValidationError as exc:
            raise NumericIntegrityError(
                f"retrodictive state {j} violates its invariants: {exc}"
            ) from exc

    return RetroDual(retro_povm, tuple(retro_states), mu, omega)


def symmetric_table(dual: RetroDual, outcomes: list[int]) -> np.ndarray:
    """Born conditionals Tr(Pi_i^ret rho_j^ret) of the listed outcomes on the transformed pair."""
    for j in outcomes:
        if dual.retro_states[j] is None:
            raise ZeroProbabilityOutcome(
                f"outcome {j} has probability below {MU_FLOOR:.0e}; its retrodictive state is undefined"
            )
    states = np.stack([dual.retro_states[j].matrix for j in outcomes])
    return born_table(dual.retro_povm.elements, states, "retrodictive probability")


def retrodictive_prob_symmetric(dual: RetroDual, i: int, j: int) -> float:
    """Born-rule conditional Tr(Pi_i^ret rho_j^ret) on the transformed pair."""
    return float(symmetric_table(dual, [j])[i, 0])


def unbiased_dual(ensemble: Ensemble, povm: Povm) -> RetroDual:
    """The unbiased-source construction, for comparison with the transform.

    Only meaningful when the source is unbiased; no transform is applied.
    """
    omega = source_from_ensemble(ensemble)
    d = ensemble.dim
    retro_povm = Povm(d * ensemble.priors[:, None, None] * ensemble.matrices)
    mu = outcome_probs(povm, omega)
    retro_states: list[DensityOperator | None] = []
    for j, element in enumerate(povm.elements):
        tr = float(np.trace(element).real)
        if mu[j] <= MU_FLOOR or tr <= MU_FLOOR:
            retro_states.append(None)
        else:
            retro_states.append(DensityOperator(element / tr))
    return RetroDual(retro_povm, tuple(retro_states), mu, omega)
