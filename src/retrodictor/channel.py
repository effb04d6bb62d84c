"""The entangled two-qubit channel behind the discrimination protocol.

Alice can prepare Bob's states by measuring her half of a shared entangled
state.  Preparing in the computational basis gives the standard asymmetric
channel; preparing in the retrodictive basis gives a state that is invariant
under swapping the two parties, whose reduced state on either side is the
source function.  The no-signaling statement -- Bob's measurement cannot
change Alice's reduced state -- is the same constraint that bounds the dual
optimization.

A two-qubit state is its validated (..., 4) amplitude array, subsystem a
first; reduced_matrix and swap_residual read such arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensembles import Violation, _frozen, validate_operator_stack, validate_vector_stack
from .errors import ValidationError
from .tolerances import REMAINDER_PSD_TOL
from .ud import (
    RetroBasis,
    UdInstance,
    _optimal_mu,
    _eta,
    retro_basis,
    source_remainder,
    ud_state_vectors,
)

# Basis order of the amplitudes: |0a 0b>, |0a 1b>, |1a 0b>, |1a 1b>; the a<->b swap
# exchanges the middle two.
_SWAP_ORDER = [0, 2, 1, 3]


def reduced_matrix(amplitudes: np.ndarray, trace_out: int) -> np.ndarray:
    """Reduced state of one qubit of each (..., 4) two-qubit vector (trace_out=0 removes a, 1 removes b)."""
    m = linalg.partial_trace(linalg.outer(amplitudes), (2, 2), trace_out)
    return (m + linalg.dag(m)) / 2.0


def swap_residual(amplitudes: np.ndarray) -> np.ndarray:
    """Norm distance between each (..., 4) two-qubit vector and its a<->b swap."""
    return linalg.norm_each(amplitudes - amplitudes[..., _SWAP_ORDER])


def _two_qubit_vectors(x: UdInstance, alice: np.ndarray) -> np.ndarray:
    """sum_i sqrt(eta_i) |alice_i>|psi_i> as validated (..., 4) amplitudes; alice_i are the columns of alice."""
    products = np.swapaxes(alice, -1, -2)[..., :, :, None] * ud_state_vectors(x)[..., :, None, :]
    amplitudes = (np.sqrt(_eta(x))[..., :, None, None] * products).sum(axis=-3)
    amplitudes = amplitudes.reshape(*amplitudes.shape[:-2], 4)
    validate_vector_stack(amplitudes, "two-qubit state").raise_if_failed()
    return amplitudes


def entangled_state(x: UdInstance) -> np.ndarray:
    """Shared state whose computational-basis preparation on a emits the UD pair, as (..., 4) amplitudes."""
    return _two_qubit_vectors(x, np.eye(2))


def symmetric_state(x: UdInstance, basis: RetroBasis) -> np.ndarray:
    """Shared state prepared in x's retro_basis, as (..., 4) amplitudes; invariant under the a<->b swap."""
    return _two_qubit_vectors(x, basis.vectors)


def sqrt_omega_in_retro_basis(basis: RetroBasis) -> np.ndarray:
    """Matrix of sqrt(Omega) in a retro_basis (symmetric off-diagonal), from its source spectrum."""
    u = basis.vectors
    return linalg.dag(u) @ basis.omega_spectrum.sqrt() @ u


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
    """Alice's reduced state against her outcome-averaged post-measurement state.

    reduced_a and reduced_b reduce the symmetric state (amplitudes) built in
    basis; tilde_a is Alice's mu-weighted decomposition; the three are
    validated density matrices.  max_residual is recomputed from the two
    operators on construction; a value at roundoff scale is the no-signaling
    statement for this channel.
    """

    reduced_a: np.ndarray
    tilde_a: np.ndarray
    reduced_b: np.ndarray
    amplitudes: np.ndarray
    basis: RetroBasis
    max_residual: np.ndarray = field(init=False)

    def __post_init__(self):
        res = linalg.maxabs_each(self.reduced_a - self.tilde_a)[()]
        object.__setattr__(self, "max_residual", res)


def no_signaling_check(
    x: UdInstance,
    mu: tuple[float, float] | None = None,
) -> NoSignalingReport:
    """Compare Alice's reduced state with the mu-weighted decomposition (of each instance of a stack).

    mu defaults to the closed-form optimal weights; any feasible pair may be passed.
    The failure contribution is the remainder of the source after removing the
    conclusive weights; if the remainder fails positivity (an infeasible mu),
    a ValidationError naming the PSD violation is raised.
    """
    mu1, mu2 = _optimal_mu(x)[:2] if mu is None else (float(mu[0]), float(mu[1]))
    remainder = source_remainder(x, mu1, mu2)
    violations = []
    diagonal = np.minimum(remainder[..., 0, 0], remainder[..., 1, 1])
    if np.any(diagonal < -REMAINDER_PSD_TOL):
        violations.append(
            Violation("psd", -float(np.min(diagonal)),
                      "weighted failure state has a negative diagonal entry")
        )
    det = remainder[..., 0, 0] * remainder[..., 1, 1] - remainder[..., 0, 1] * remainder[..., 1, 0]
    if np.any(det < -REMAINDER_PSD_TOL):
        violations.append(
            Violation("psd", -float(np.min(det)), "weighted failure state has negative determinant")
        )
    if violations:
        raise ValidationError(violations)

    basis = retro_basis(x)
    amplitudes = symmetric_state(x, basis)
    u = basis.vectors
    projectors = linalg.outer(np.swapaxes(u, -1, -2))
    tilde = (
        np.asarray(mu1)[..., None, None] * projectors[..., 0, :, :]
        + np.asarray(mu2)[..., None, None] * projectors[..., 1, :, :]
        + u @ remainder.astype(np.complex128) @ linalg.dag(u)
    )
    states = np.stack(
        [reduced_matrix(amplitudes, 1), (tilde + linalg.dag(tilde)) / 2.0, reduced_matrix(amplitudes, 0)],
        axis=-3,
    )
    validate_operator_stack(states, "channel state (rho_a, rho_a_tilde, rho_b)", unit_trace=True).raise_if_failed()
    return NoSignalingReport(*(_frozen(states[..., k, :, :]) for k in range(3)), amplitudes, basis)
