"""Predictive and retrodictive probabilities and the source transform.

The transform conjugates states by the inverse square root of the source
function and detectors by its square root, producing a retrodictive POVM
indexed like the ensemble and retrodictive states indexed like the POVM.
Born's rule on the transformed pair reproduces the Bayes conditionals for
arbitrary (biased) sources; for an unbiased source it reduces to the familiar
construction Pi_i^ret = D eta_i rho_i, rho_j^ret = Pi_j / Tr(Pi_j).

Both sides are tables from born_table, one einsum over two operator stacks:
joint_table is the one definition of p[i, j] = eta_i Tr(Pi_j rho_i), which
Bayes and the sampler read, and the transformed side is the table of the
RetroDual's povm_stack against its state_stack.

The transform is transform_stack, for one pair or for each pair of a stack of
one shape at once.  Its result is one type, RetroDual: arrays that keep the
stack's leading axes, with validated per-pair views when there are none.
retro_transform is the call for one Ensemble and Povm; unbiased_stack lays
out the unbiased construction the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .ensembles import (
    TRACE_TOL,
    DensityOperator,
    Ensemble,
    Povm,
    SourceFunction,
    _validated,
    require_same_dim,
    validate_operator_stack,
    validate_povm_stack,
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
    """Born's rule for (..., n, d, d) and (..., m, d, d) stacks: t[..., i, j] = Tr(a_i b_j), clamped."""
    return _clamp_probability(np.einsum("...ikl,...jlk->...ij", a, b).real, what)


def predictive_prob(povm_element, state) -> float:
    """Born-rule probability Tr(Pi rho) of one outcome given one state."""
    pi = np.asarray(povm_element, dtype=np.complex128)
    rho = state.matrix if isinstance(state, DensityOperator) else np.asarray(state, dtype=np.complex128)
    require_same_dim(pi.shape[0], rho.shape[0], "POVM element vs state")
    return float(born_table(rho[None], pi[None], "predictive probability")[0, 0])


def joint_table(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """The joint distribution p[..., i, j] = eta_i Tr(Pi_j rho_i) of preparation i and outcome j."""
    return priors[..., :, None] * born_table(states, elements, "predictive probability")


def joint_probability_table(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """The joint table of one prepare-and-measure pair."""
    require_same_dim(ensemble.dim, povm.dim, "ensemble vs POVM")
    return joint_table(ensemble.priors, ensemble.matrices, povm.elements)


def bayes_table(joint: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """Bayes conditionals P(i | j) = p[..., i, j] / mu_j from the joint table, 0 where j is not defined.

    defined (..., m) marks the outcomes to condition on; ZeroProbabilityOutcome
    is raised if one of them has mu_j = sum_i p[..., i, j] at most MU_FLOOR.
    """
    mu = joint.sum(axis=-2)
    low = defined & (mu <= MU_FLOOR)
    if np.any(low):
        raise ZeroProbabilityOutcome(
            f"outcome {np.argwhere(low)[0, -1]} has probability {mu[low][0]:.3e} <= {MU_FLOOR:.0e};"
            " cannot condition on it"
        )
    conditionals = np.where(defined[..., None, :], joint / np.where(defined, mu, 1.0)[..., None, :], 0.0)
    return _clamp_probability(conditionals, "retrodictive probability")


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Unconditional click probabilities of the detectors against the source (of each of a stack)."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        if np.any(mu < -PROB_CLAMP_TOL):
            raise NumericIntegrityError(f"negative outcome probability {mu.min():.3e}")
        mu = np.clip(mu, 0.0, None)
        total = mu.sum(axis=-1)  # = Tr(Omega)
        off = np.abs(total - 1.0) > TRACE_TOL
        if np.any(off):
            raise NumericIntegrityError(f"outcome probabilities sum to {float(total[off].flat[0])!r}")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    def __getitem__(self, j: int) -> float:
        return float(self.mu[j])


def _click_probabilities(elements: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """mu_j = Tr(Pi_j Omega) of (..., m, d, d) elements against (..., d, d) sources."""
    return (elements * np.swapaxes(omega, -1, -2)[..., None, :, :]).real.sum(axis=(-2, -1))


def outcome_probs(povm: Povm, omega: SourceFunction) -> OutcomeDistribution:
    """Click probabilities mu_j = Tr(Pi_j Omega)."""
    require_same_dim(povm.dim, omega.dim, "POVM vs source")
    return OutcomeDistribution(_click_probabilities(povm.elements, omega.matrix))


def retrodictive_prob_bayes(ensemble: Ensemble, povm: Povm, i: int, j: int) -> float:
    """Bayes conditional P(state i | outcome j), read from column j of the joint table."""
    return float(bayes_table(joint_probability_table(ensemble, povm), np.arange(len(povm)) == j)[i, j])


@dataclass(frozen=True, eq=False)
class RetroDual:
    """The transformed pair (or each of a stack): retrodictive POVM, states, and their weights.

    The arrays keep the stack's leading axes, if any: povm_stack (..., n, d, d),
    state_stack (..., m, d, d) with zeros where not defined (mu_j at most the
    floor, so conditioning on j is rejected rather than divided by ~0), the
    source omega_matrix (..., d, d), and a support-restricted transform's
    completeness target sum_target.  For one pair, retro_povm, retro_states
    and omega view the arrays as validated objects (a stack has no such views:
    they raise ValueError), and residuals are floats.
    """

    povm_stack: np.ndarray
    state_stack: np.ndarray
    defined: np.ndarray
    mu: OutcomeDistribution
    omega_matrix: np.ndarray
    sum_target: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.povm_stack, self.state_stack, self.defined, self.omega_matrix, self.sum_target):
            if array is not None:
                array.setflags(write=False)

    @cached_property
    def retro_povm(self) -> Povm:
        return _validated(Povm, elements=self.povm_stack, sum_target=self.sum_target)

    @cached_property
    def retro_states(self) -> tuple[DensityOperator | None, ...]:
        return tuple(
            _validated(DensityOperator, matrix=s) if ok else None
            for s, ok in zip(self.state_stack, self.defined.tolist())
        )

    @cached_property
    def omega(self) -> SourceFunction:
        return SourceFunction(_validated(DensityOperator, matrix=self.omega_matrix))

    def completeness_residual(self):
        """Max-abs residual of sum_i Pi_i^ret against the identity (or the support's sum_target)."""
        target = np.eye(self.povm_stack.shape[-1]) if self.sum_target is None else self.sum_target
        return linalg.maxabs_each(self.povm_stack.sum(axis=-3) - target)[()]

    def trace_residual(self):
        """Worst |Tr(rho_j^ret) - 1| over the defined retrodictive states."""
        traces = np.trace(self.state_stack, axis1=-2, axis2=-1).real
        return np.where(self.defined, np.abs(traces - 1.0), 0.0).max(axis=-1)[()]

    def source_residual(self):
        """Max-abs residual of sum_j mu_j rho_j^ret against the source function."""
        total = (self.mu.mu[..., None, None] * self.state_stack).sum(axis=-3)
        return linalg.maxabs_each(total - self.omega_matrix)[()]


def _source(priors: np.ndarray, states: np.ndarray, elements: np.ndarray):
    """The weighted states eta_i rho_i and their sum Omega, validated as a state (of each pair)."""
    require_same_dim(states.shape[-1], elements.shape[-1], "ensemble vs POVM")
    weighted = priors[..., None, None] * states
    omega = weighted.sum(axis=-3)
    validate_operator_stack(omega, "source", unit_trace=True).raise_if_failed()
    return weighted, omega


def transform_stack(
    priors: np.ndarray, states: np.ndarray, elements: np.ndarray, support_restricted: bool = False
) -> RetroDual:
    """Retrodictive dual of one pair, or of each pair of a stack of one shape.

    priors (..., n), states (..., n, d, d) and POVM elements (..., m, d, d)
    share their leading axes, which the RetroDual keeps.
    Pi_i^ret = Omega^{-1/2} eta_i rho_i Omega^{-1/2} and
    rho_j^ret = sqrt(Omega) Pi_j sqrt(Omega) / mu_j, from one stacked
    eigendecomposition of the sources; each derived stack is validated once.

    Raises SingularOperator when a source function has an eigenvalue below
    linalg.MIN_EIG_DEFAULT. With support_restricted=True, eigenvalues at most
    linalg.PSD_CLIP_TOL (zero up to roundoff) count as outside the support
    instead: the inversion acts on the support only, and completeness holds
    on the support projector instead of the identity. Above the floor every
    identity holds at its fixed tolerance; operators that still miss their
    invariants raise NumericIntegrityError, not a degraded dual.  Messages
    name the failing pairs of a stack.
    """
    weighted, omega = _source(priors, states, elements)
    spectrum = linalg.hermitian_eig(omega)
    inv_root = spectrum.inv_sqrt(support_restricted=support_restricted)[..., None, :, :]
    root = spectrum.sqrt()[..., None, :, :]

    e = inv_root @ weighted @ inv_root
    retro_elements = (e + linalg.dag(e)) / 2.0
    sum_target = None
    if support_restricted:
        support = inv_root[..., 0, :, :] @ omega @ inv_root[..., 0, :, :]
        sum_target = (support + linalg.dag(support)) / 2.0
    try:
        validate_povm_stack(retro_elements, "retrodictive POVM", sum_target).raise_if_failed()
    except ValidationError as exc:
        raise NumericIntegrityError(f"retrodictive POVM violates its invariants: {exc}") from exc

    mu = OutcomeDistribution(_click_probabilities(elements, omega))
    defined = mu.mu > MU_FLOOR
    s = (root @ elements @ root)[defined]
    # Tr(s) equals mu_j analytically; normalizing by the sandwich's own
    # trace keeps the state's trace at 1 even when mu_j is tiny.
    s = s / np.trace(s, axis1=-2, axis2=-1).real[:, None, None]
    s = (s + linalg.dag(s)) / 2.0
    index = np.argwhere(defined).tolist()

    def label(k):
        *pair, j = index[k]
        return f"retrodictive state {j}" + (f" of pair {', '.join(map(str, pair))}" if pair else "")

    try:
        validate_operator_stack(s, label, unit_trace=True).raise_if_failed()
    except ValidationError as exc:
        raise NumericIntegrityError(f"retrodictive states violate their invariants: {exc}") from exc
    state_stack = np.zeros(defined.shape + s.shape[-2:], dtype=np.complex128)
    state_stack[defined] = s
    return RetroDual(retro_elements, state_stack, defined, mu, omega, sum_target)


def retro_transform(ensemble: Ensemble, povm: Povm, support_restricted: bool = False) -> RetroDual:
    """The retrodictive dual of one prepare-and-measure pair (see transform_stack)."""
    return transform_stack(ensemble.priors, ensemble.matrices, povm.elements, support_restricted)


def retrodictive_prob_symmetric(dual: RetroDual, i: int, j: int) -> float:
    """Born-rule conditional Tr(Pi_i^ret rho_j^ret) on the transformed pair."""
    if not dual.defined[j]:
        raise ZeroProbabilityOutcome(
            f"outcome {j} has probability below {MU_FLOOR:.0e}; its retrodictive state is undefined"
        )
    return float(born_table(dual.povm_stack, dual.state_stack[[j]], "retrodictive probability")[i, 0])


def unbiased_stack(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> RetroDual:
    """The unbiased-source dual Pi_i^ret = D eta_i rho_i, rho_j^ret = Pi_j / Tr(Pi_j), stacked as transforms.

    No transform is applied, so it is only meaningful for an unbiased source;
    otherwise the retrodictive POVM is not complete and ValidationError is raised.
    """
    _, omega = _source(priors, states, elements)
    retro_elements = states.shape[-1] * priors[..., None, None] * states
    validate_povm_stack(retro_elements, "unbiased retrodictive POVM").raise_if_failed()
    mu = OutcomeDistribution(_click_probabilities(elements, omega))
    traces = np.trace(elements, axis1=-2, axis2=-1).real
    defined = (mu.mu > MU_FLOOR) & (traces > MU_FLOOR)
    state_stack = defined[..., None, None] * elements / np.where(defined, traces, 1.0)[..., None, None]
    validate_operator_stack(state_stack[defined], "unbiased retro state", unit_trace=True).raise_if_failed()
    return RetroDual(retro_elements, state_stack, defined, mu, omega)


def unbiased_dual(ensemble: Ensemble, povm: Povm) -> RetroDual:
    """The unbiased-source construction of one pair (see unbiased_stack)."""
    return unbiased_stack(ensemble.priors, ensemble.matrices, povm.elements)
