"""Predictive and retrodictive probability tables and the source transform.

The transform conjugates states by the inverse square root of the source
function and detectors by its square root, producing a retrodictive POVM
indexed like the ensemble and retrodictive states indexed like the POVM.
Born's rule on the transformed pair reproduces the Bayes conditionals for
arbitrary (biased) sources; for an unbiased source it reduces to the familiar
construction Pi_i^ret = D eta_i rho_i, rho_j^ret = Pi_j / Tr(Pi_j).

Both sides are tables from born_table, one einsum over two operator stacks:
joint_table is the one definition of p[i, j] = eta_i Tr(Pi_j rho_i), which
bayes_table conditions and the sampler reads, and the transformed side is
the table of the RetroDual's povm_stack against its state_stack.  The
paper's identity is the equality of the two tables:

    born_table(dual.povm_stack, dual.state_stack, ...)
        == bayes_table(joint_table(priors, states, elements), dual.defined)

The transform is transform_stack, for one pair or for each pair of a stack of
one shape at once.  Its result is one type, RetroDual: the validated arrays,
which keep the stack's leading axes.  retro_transform is the call for one
Ensemble and Povm; unbiased_stack lays out the unbiased construction the same
way.  Both stack functions read their inputs in C order (copying any that
are not), so the same values give bit-identical results in any memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensembles import (
    Ensemble,
    Povm,
    _checked_stack,
    require_same_dim,
    validate_operator_stack,
    validate_povm_stack,
)
from .errors import (
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityOutcome,
)
from .tolerances import MU_FLOOR, PROB_CLAMP_TOL, TRACE_TOL


def _clamp_probability(value, what: str):
    """Clip into [0, 1] elementwise, allowing only +-PROB_CLAMP_TOL of roundoff outside it."""
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


def joint_table(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """The joint distribution p[..., i, j] = eta_i Tr(Pi_j rho_i) of preparation i and outcome j."""
    return priors[..., :, None] * born_table(states, elements, "predictive probability")


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


def _click_probabilities(elements: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """mu_j = Tr(Pi_j Omega) of (..., m, d, d) elements against (..., d, d) sources, validated.

    Each mu_j may dip PROB_CLAMP_TOL below 0 (clipped to 0), and each row
    must sum to 1 (= Tr(Omega)) within TRACE_TOL; otherwise NumericIntegrityError,
    which names the pair of a stack.
    """
    mu = (elements * np.swapaxes(omega, -1, -2)[..., None, :, :]).real.sum(axis=(-2, -1))
    if np.any(mu < -PROB_CLAMP_TOL):
        low = np.unravel_index(np.argmin(mu), mu.shape)
        raise NumericIntegrityError(f"negative outcome probability {mu[low]:.3e}{_of_pair(low[:-1])}")
    mu = np.clip(mu, 0.0, None)
    total = mu.sum(axis=-1)
    off = np.abs(total - 1.0) > TRACE_TOL
    if np.any(off):
        pair = tuple(np.argwhere(off)[0])
        raise NumericIntegrityError(f"outcome probabilities{_of_pair(pair)} sum to {float(total[pair])!r}")
    return mu


def _of_pair(pair: tuple) -> str:
    """' of pair i' naming a stack's pair by its leading index ('' for one pair)."""
    return f" of pair {', '.join(map(str, pair))}" if pair else ""


@dataclass(frozen=True, eq=False)
class RetroDual:
    """The transformed pair (or each of a stack): retrodictive POVM, states, and their weights.

    The arrays keep the stack's leading axes, if any: povm_stack (..., n, d, d),
    state_stack (..., m, d, d) with zeros where not defined (mu_j at most the
    floor, so conditioning on j is rejected rather than divided by ~0), the
    click probabilities mu (..., m) of the POVM against the source
    omega_matrix (..., d, d), and a support-restricted transform's
    completeness target sum_target.  For one pair the residuals are floats.
    """

    povm_stack: np.ndarray
    state_stack: np.ndarray
    defined: np.ndarray
    mu: np.ndarray
    omega_matrix: np.ndarray
    sum_target: np.ndarray | None = None

    def __post_init__(self):
        arrays = (self.povm_stack, self.state_stack, self.defined, self.mu, self.omega_matrix, self.sum_target)
        for array in arrays:
            if array is not None:
                array.setflags(write=False)

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
        total = (self.mu[..., None, None] * self.state_stack).sum(axis=-3)
        return linalg.maxabs_each(total - self.omega_matrix)[()]


def _source(priors: np.ndarray, states: np.ndarray, elements: np.ndarray, decompose: bool = False):
    """The weighted states eta_i rho_i and their sum Omega, validated as a state (of each pair),
    and with decompose=True Omega's one Spectrum, which its PSD check reads."""
    require_same_dim(states.shape[-1], elements.shape[-1], "ensemble vs POVM")
    # A non-finite or huge entry is the source's finite_entries violation, not a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        weighted = priors[..., None, None] * states
        omega = weighted.sum(axis=-3)
    report, spectrum = _checked_stack(omega, "source", True, decompose)
    report.raise_if_failed()
    return weighted, omega, spectrum


def transform_stack(
    priors: np.ndarray, states: np.ndarray, elements: np.ndarray, support_restricted: bool = False
) -> RetroDual:
    """Retrodictive dual of one pair, or of each pair of a stack of one shape.

    priors (..., n), states (..., n, d, d) and POVM elements (..., m, d, d)
    share their leading axes, which the RetroDual keeps.
    Pi_i^ret = Omega^{-1/2} eta_i rho_i Omega^{-1/2} and
    rho_j^ret = sqrt(Omega) Pi_j sqrt(Omega) / mu_j, from one stacked
    eigendecomposition of the sources; each derived stack is validated once.

    Raises SingularOperator, whose rows and message name the pairs of a stack
    below the floor, when a source function has an eigenvalue below
    linalg.MIN_EIG_DEFAULT. With support_restricted=True, eigenvalues at most
    linalg.PSD_CLIP_TOL (zero up to roundoff) count as outside the support
    instead: the inversion acts on the support only, and completeness holds
    on the support projector instead of the identity. Above the floor every
    identity holds at its fixed tolerance; operators that still miss their
    invariants raise NumericIntegrityError, not a degraded dual, and the
    validation messages name the failing pairs of a stack.
    """
    priors, states, elements = map(np.ascontiguousarray, (priors, states, elements))
    weighted, omega, spectrum = _source(priors, states, elements, decompose=True)
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

    mu = _click_probabilities(elements, omega)
    defined = mu > MU_FLOOR
    s = (root @ elements @ root)[defined]
    # Tr(s) equals mu_j analytically; normalizing by the sandwich's own
    # trace keeps the state's trace at 1 even when mu_j is tiny.
    s = s / np.trace(s, axis1=-2, axis2=-1).real[:, None, None]
    s = (s + linalg.dag(s)) / 2.0
    index = np.argwhere(defined).tolist()

    def label(k):
        *pair, j = index[k]
        return f"retrodictive state {j}{_of_pair(pair)}"

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


def unbiased_stack(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> RetroDual:
    """The unbiased-source dual Pi_i^ret = D eta_i rho_i, rho_j^ret = Pi_j / Tr(Pi_j), stacked as transforms.

    No transform is applied, so it is only meaningful for an unbiased source;
    otherwise the retrodictive POVM is not complete and ValidationError is raised.
    """
    priors, states, elements = map(np.ascontiguousarray, (priors, states, elements))
    _, omega, _ = _source(priors, states, elements)
    retro_elements = states.shape[-1] * priors[..., None, None] * states
    validate_povm_stack(retro_elements, "unbiased retrodictive POVM").raise_if_failed()
    mu = _click_probabilities(elements, omega)
    traces = np.trace(elements, axis1=-2, axis2=-1).real
    defined = (mu > MU_FLOOR) & (traces > MU_FLOOR)
    state_stack = defined[..., None, None] * elements / np.where(defined, traces, 1.0)[..., None, None]
    validate_operator_stack(state_stack[defined], "unbiased retro state", unit_trace=True).raise_if_failed()
    return RetroDual(retro_elements, state_stack, defined, mu, omega)
