"""The entangled two-qubit channel behind the discrimination protocol.

Alice can prepare Bob's states by measuring her half of a shared entangled
state.  Preparing in the computational basis gives the standard asymmetric
channel; preparing in the retrodictive basis gives a state that is invariant
under swapping the two parties, whose reduced state on either side is the
source function.  The no-signaling statement -- Bob's measurement cannot
change Alice's reduced state -- is the same constraint that bounds the dual
optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensembles import DensityOperator, Violation, _frozen, validate_state_vector
from .errors import ValidationError
from .ud import (
    REMAINDER_PSD_TOL,
    RetroBasis,
    UdInstance,
    _optimal_mu,
    retro_basis,
    ud_states,
)

# Basis order of the amplitudes: |0a 0b>, |0a 1b>, |1a 0b>, |1a 1b>.
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Unit vector on the two-qubit product space, subsystem a first."""

    amplitudes: np.ndarray

    def __post_init__(self):
        # Validate the raw amplitudes first: converting ragged or string input raises.
        violations = list(validate_state_vector(self.amplitudes, "two-qubit state").violations)
        if violations and violations[0].check == "complex_entries":
            raise ValidationError(violations)
        arr = _frozen(self.amplitudes)
        if arr.ndim == 1 and arr.shape[0] != 4:
            violations.append(
                Violation("vector_length", float(arr.shape[0]), "amplitudes must have length 4")
            )
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "amplitudes", arr)

    def density_matrix(self) -> np.ndarray:
        return linalg.outer(self.amplitudes)

    def reduced(self, trace_out: int) -> DensityOperator:
        """Reduced state of one qubit (trace_out=0 removes a, 1 removes b)."""
        m = linalg.partial_trace(self.density_matrix(), (2, 2), trace_out)
        return DensityOperator((m + linalg.dag(m)) / 2.0)

    def swapped(self) -> "TwoQubitState":
        return TwoQubitState(_SWAP @ self.amplitudes)

    def swap_residual(self) -> float:
        """Norm distance between the state and its a<->b swap."""
        return float(np.linalg.norm(self.amplitudes - _SWAP @ self.amplitudes))


def entangled_state(instance: UdInstance) -> TwoQubitState:
    """Shared state whose computational-basis preparation on a emits the UD pair."""
    psi1, psi2 = ud_states(instance)
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    amp = math.sqrt(instance.eta[0]) * np.kron(zero, psi1.amplitudes) + math.sqrt(
        instance.eta[1]
    ) * np.kron(one, psi2.amplitudes)
    return TwoQubitState(amp)


def symmetric_state(instance: UdInstance, basis: RetroBasis) -> TwoQubitState:
    """Shared state prepared in the instance's retro_basis; invariant under the a<->b swap."""
    psi1, psi2 = ud_states(instance)
    amp = math.sqrt(instance.eta[0]) * np.kron(
        basis.phi1.amplitudes, psi1.amplitudes
    ) + math.sqrt(instance.eta[1]) * np.kron(basis.phi2.amplitudes, psi2.amplitudes)
    return TwoQubitState(amp)


def sqrt_omega_in_retro_basis(basis: RetroBasis) -> np.ndarray:
    """Matrix of sqrt(Omega) in a retro_basis (symmetric off-diagonal), from its source spectrum."""
    u = basis.matrix()
    return linalg.dag(u) @ basis.omega_spectrum.sqrt() @ u


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
    """Alice's reduced state against her outcome-averaged post-measurement state.

    rho_a and rho_b reduce state, the symmetric state built in basis.
    max_residual is recomputed from the two operators on construction; a value
    at roundoff scale is the no-signaling statement for this channel.
    """

    rho_a: DensityOperator
    rho_a_tilde: DensityOperator
    rho_b: DensityOperator
    state: TwoQubitState
    basis: RetroBasis
    max_residual: float = field(init=False)

    def __post_init__(self):
        res = linalg.maxabs(self.rho_a.matrix - self.rho_a_tilde.matrix)
        object.__setattr__(self, "max_residual", res)


def no_signaling_check(
    instance: UdInstance,
    mu: tuple[float, float] | None = None,
) -> NoSignalingReport:
    """Compare Alice's reduced state with the mu-weighted decomposition.

    mu defaults to the closed-form optimal weights; any feasible pair may be passed.
    The failure contribution is the remainder of the source after removing the
    conclusive weights; if the remainder fails positivity (an infeasible mu),
    a ValidationError naming the PSD violation is raised.
    """
    e1, e2 = instance.eta
    mu1, mu2 = _optimal_mu(instance)[:2] if mu is None else (float(mu[0]), float(mu[1]))

    off = math.sqrt(e1 * e2) * instance.s
    remainder = np.array([[e1 - mu1, off], [off, e2 - mu2]])
    violations = []
    if min(e1 - mu1, e2 - mu2) < -REMAINDER_PSD_TOL:
        violations.append(
            Violation("psd", -min(e1 - mu1, e2 - mu2),
                      "weighted failure state has a negative diagonal entry")
        )
    det = (e1 - mu1) * (e2 - mu2) - off * off
    if det < -REMAINDER_PSD_TOL:
        violations.append(
            Violation("psd", -det, "weighted failure state has negative determinant")
        )
    if violations:
        raise ValidationError(violations)

    basis = retro_basis(instance)
    state = symmetric_state(instance, basis)
    rho_a = state.reduced(trace_out=1)
    rho_b = state.reduced(trace_out=0)

    u = basis.matrix()
    tilde = (
        mu1 * basis.phi1.projector()
        + mu2 * basis.phi2.projector()
        + u @ remainder.astype(np.complex128) @ linalg.dag(u)
    )
    rho_a_tilde = DensityOperator((tilde + linalg.dag(tilde)) / 2.0)
    return NoSignalingReport(rho_a, rho_a_tilde, rho_b, state, basis)
