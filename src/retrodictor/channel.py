"""The entangled two-qubit channel behind the discrimination protocol.

Alice can prepare Bob's states by measuring her half of a shared entangled
state.  Preparing in the computational basis gives the standard asymmetric
channel; preparing in the retrodictive basis gives a state that is invariant
under swapping the two parties, whose reduced state on either side is the
source function.  The no-signaling statement -- Bob's measurement cannot
change Alice's reduced state -- is the same constraint that bounds the dual
optimization.

A shared pure state is its validated (n, 2, 2) amplitude matrix M, one per
instance of a UD stack, row = party a and column = party b.  Swapping the
parties transposes M, and the two reduced states are M M^dag (a) and
M^T conj(M) (b); reduced_matrix and swap_residual read such matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ensembles import _as_array, _frozen, validate_operator_stack, validate_vector_stack
from .errors import ValidationError
from .tolerances import REMAINDER_PSD_TOL
from .ud import (
    RetroBasis,
    UdInstance,
    _eta,
    _instance_violations,
    _optimal_mu,
    retro_basis,
    source_remainder,
    ud_state_vectors,
)


def reduced_matrix(amplitudes: np.ndarray, trace_out: int) -> np.ndarray:
    """Reduced state of one party of each (..., da, db) amplitude matrix M.

    trace_out=1 removes b and gives M M^dag; trace_out=0 removes a and gives M^T conj(M).
    """
    m = np.swapaxes(amplitudes, -1, -2) if trace_out == 0 else amplitudes
    reduced = np.einsum("...ij,...kj->...ik", m, m.conj())
    return (reduced + linalg.dag(reduced)) / 2.0


def swap_residual(amplitudes: np.ndarray) -> np.ndarray:
    """Norm distance between each (..., d, d) amplitude matrix and its a<->b swap, its transpose."""
    return np.sqrt((np.abs(amplitudes - np.swapaxes(amplitudes, -1, -2)) ** 2).sum(axis=(-2, -1)))


def _two_qubit_amplitudes(x: UdInstance, alice: np.ndarray) -> np.ndarray:
    """sum_i sqrt(eta_i) |alice_i>|psi_i> as validated (n, 2, 2) amplitudes; alice_i are the columns of alice."""
    products = np.swapaxes(alice, -1, -2)[..., :, :, None] * ud_state_vectors(x)[..., :, None, :]
    amplitudes = (np.sqrt(_eta(x))[..., :, None, None] * products).sum(axis=-3)
    validate_vector_stack(amplitudes.reshape(*amplitudes.shape[:-2], -1), "two-qubit state").raise_if_failed()
    return amplitudes


def entangled_state(x: UdInstance) -> np.ndarray:
    """Shared state whose computational-basis preparation on a emits the UD pair, as (n, 2, 2) amplitudes."""
    return _two_qubit_amplitudes(x, np.eye(2))


def symmetric_state(x: UdInstance, basis: RetroBasis) -> np.ndarray:
    """Shared state prepared in x's retro_basis, as (n, 2, 2) amplitudes; symmetric, so swap-invariant."""
    return _two_qubit_amplitudes(x, basis.vectors)


def sqrt_omega_in_retro_basis(basis: RetroBasis) -> np.ndarray:
    """Matrix of sqrt(Omega) in a retro_basis (symmetric off-diagonal), from its source spectrum."""
    u = basis.vectors
    return linalg.dag(u) @ basis.omega_spectrum.sqrt() @ u


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
    """Alice's reduced state against her outcome-averaged post-measurement state.

    reduced_a and reduced_b reduce the symmetric state (amplitudes) built in
    basis; tilde_a is Alice's mu-weighted decomposition; the three are
    validated density matrices, each (n, 2, 2).  max_residual (n,) is
    recomputed from the two operators on construction; a value at roundoff
    scale is the no-signaling statement for this channel.
    """

    reduced_a: np.ndarray
    tilde_a: np.ndarray
    reduced_b: np.ndarray
    amplitudes: np.ndarray
    basis: RetroBasis
    max_residual: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "max_residual", linalg.maxabs_each(self.reduced_a - self.tilde_a))


def no_signaling_check(
    x: UdInstance,
    mu: tuple[np.ndarray, np.ndarray] | None = None,
) -> NoSignalingReport:
    """Compare Alice's reduced state with the mu-weighted decomposition, for each instance of x.

    mu defaults to the closed-form optimal weights; any feasible weights may be
    passed, as two (n,) arrays (mu_1, mu_2) over x's instances, and any other
    shape raises ValueError.  The failure contribution is the remainder of the
    source after removing the conclusive weights; if the remainder fails
    positivity (an infeasible mu), a ValidationError naming the PSD violation
    of each failing instance is raised.
    """
    if mu is None:
        mu1, mu2 = _optimal_mu(x)[:2]
    else:
        weights = _as_array(mu, float)
        if weights is None or weights.shape != (2, len(x)):
            raise ValueError(f"mu must be two arrays of shape ({len(x)},), one weight per instance")
        mu1, mu2 = weights
    remainder = source_remainder(x, mu1, mu2)
    diagonal = np.minimum(remainder[..., 0, 0], remainder[..., 1, 1])
    det = remainder[..., 0, 0] * remainder[..., 1, 1] - remainder[..., 0, 1] * remainder[..., 1, 0]
    violations = _instance_violations([
        ("psd", diagonal < -REMAINDER_PSD_TOL, -diagonal, "weighted failure state has a negative diagonal entry"),
        ("psd", det < -REMAINDER_PSD_TOL, -det, "weighted failure state has negative determinant"),
    ])
    if violations:
        raise ValidationError(violations)

    basis = retro_basis(x)
    amplitudes = symmetric_state(x, basis)
    u = basis.vectors
    projectors = linalg.outer(np.swapaxes(u, -1, -2))
    tilde = (
        mu1[..., None, None] * projectors[..., 0, :, :]
        + mu2[..., None, None] * projectors[..., 1, :, :]
        + u @ remainder.astype(np.complex128) @ linalg.dag(u)
    )
    states = np.stack(
        [reduced_matrix(amplitudes, 1), (tilde + linalg.dag(tilde)) / 2.0, reduced_matrix(amplitudes, 0)],
        axis=-3,
    )
    validate_operator_stack(states, "channel state (rho_a, rho_a_tilde, rho_b)", unit_trace=True).raise_if_failed()
    return NoSignalingReport(*(_frozen(states[..., k, :, :]) for k in range(3)), amplitudes, basis)
