import math

import numpy as np
import pytest

from retrodictor.channel import (
    TwoQubitState,
    entangled_state,
    no_signaling_check,
    sqrt_omega_in_retro_basis,
    symmetric_state,
)
from retrodictor.errors import SingularOperator, ValidationError
from retrodictor.linalg import hermitian_eig, maxabs
from retrodictor.ud import UdInstance, omega_in_retro_basis, omega_matrix, optimal_dual, retro_basis

ETA_GRID = np.linspace(0.5, 0.98, 12)
ALPHA_GRID = np.linspace(0.05, math.pi / 4 - 0.01, 12)


def test_two_qubit_state_validation():
    with pytest.raises(ValidationError):
        TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(ValidationError):
        TwoQubitState(np.array([1.0, 0.0]))  # wrong length


def test_entangled_state_orthogonal_inputs_is_maximally_entangled():
    # s = 0: Schmidt coefficients are (1/2, 1/2).
    state = entangled_state(UdInstance(math.pi / 4, (0.5, 0.5)))
    rho_a = state.reduced(trace_out=1)
    schmidt = hermitian_eig(rho_a.matrix).eigenvalues
    assert np.allclose(schmidt, [0.5, 0.5], atol=1e-12)


def test_entangled_state_reduced_b_is_source():
    inst = UdInstance(math.pi / 6, (0.7, 0.3))
    state = entangled_state(inst)
    assert maxabs(state.reduced(trace_out=0).matrix - omega_matrix(inst)) < 1e-10


def test_entangled_state_reduced_a_is_source_in_retro_matrix_form():
    inst = UdInstance(math.pi / 6, (0.7, 0.3))
    state = entangled_state(inst)
    assert maxabs(state.reduced(trace_out=1).matrix - omega_in_retro_basis(inst)) < 1e-10


def test_symmetric_state_swap_invariance():
    inst = UdInstance(math.pi / 8, (0.5, 0.5))
    state = symmetric_state(inst, retro_basis(inst))
    assert state.swap_residual() < 1e-12
    assert maxabs(state.swapped().amplitudes - state.amplitudes) < 1e-12


def test_symmetric_state_both_reductions_equal_source():
    inst = UdInstance.from_overlap(0.6, (0.75, 0.25))
    state = symmetric_state(inst, retro_basis(inst))
    om = omega_matrix(inst)
    assert maxabs(state.reduced(0).matrix - om) < 1e-10
    assert maxabs(state.reduced(1).matrix - om) < 1e-10


def test_symmetric_state_is_alice_basis_change_of_entangled_state():
    inst = UdInstance.from_overlap(0.45, (0.65, 0.35))
    u = retro_basis(inst).vectors
    lifted = np.kron(u, np.eye(2)) @ entangled_state(inst).amplitudes
    assert maxabs(lifted - symmetric_state(inst, retro_basis(inst)).amplitudes) < 1e-10


def test_symmetric_state_rejects_singular_source():
    inst = UdInstance(1e-9, (0.5, 0.5))
    with pytest.raises(SingularOperator):
        symmetric_state(inst, retro_basis(inst))


def test_no_signaling_at_optimum():
    report = no_signaling_check(UdInstance.from_overlap(0.5, (0.5, 0.5)))
    assert report.max_residual < 1e-10
    om = omega_matrix(UdInstance.from_overlap(0.5, (0.5, 0.5)))
    assert maxabs(report.reduced_a - om) < 1e-10
    assert maxabs(report.reduced_b - om) < 1e-10


def test_no_signaling_for_any_feasible_decomposition():
    inst = UdInstance.from_overlap(0.5, (0.6, 0.4))
    report = no_signaling_check(inst, mu=(0.12, 0.07))
    assert report.max_residual < 1e-10


def test_no_signaling_infeasible_mu_reports_psd_violation():
    inst = UdInstance.from_overlap(0.5, (0.6, 0.4))
    with pytest.raises(ValidationError) as excinfo:
        no_signaling_check(inst, mu=(0.7, 0.0))
    violation = excinfo.value.violations[0]
    assert violation.check == "psd"
    assert violation.residual > 0.09  # eta_1 - mu_1 = -0.1 on the diagonal


def test_sqrt_omega_symmetric_in_retro_basis():
    inst = UdInstance.from_overlap(0.7, (0.8, 0.2))
    sq = sqrt_omega_in_retro_basis(retro_basis(inst))
    assert abs(sq[0, 1] - sq[1, 0]) < 1e-12


def test_channel_properties_on_grid():
    worst_swap = worst_red = worst_ns = worst_sq = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            inst = UdInstance(float(alpha), (float(1 - eta_max), float(eta_max)))
            basis = retro_basis(inst)
            state = symmetric_state(inst, basis)
            worst_swap = max(worst_swap, state.swap_residual())
            om = omega_matrix(inst)
            worst_red = max(
                worst_red,
                maxabs(state.reduced(0).matrix - om),
                maxabs(state.reduced(1).matrix - om),
            )
            worst_ns = max(worst_ns, no_signaling_check(inst).max_residual)
            sq = sqrt_omega_in_retro_basis(basis)
            worst_sq = max(worst_sq, abs(sq[0, 1] - sq[1, 0]))
    assert worst_swap < 1e-10
    assert worst_red < 1e-10
    assert worst_ns < 1e-10
    assert worst_sq < 1e-12


def test_failure_weight_matches_dual_mu0():
    inst = UdInstance.from_overlap(0.5, (0.6, 0.4))
    opt = optimal_dual(inst)
    # trace of the remainder equals mu_0
    remainder_trace = (inst.eta[0] - opt.mu1) + (inst.eta[1] - opt.mu2)
    assert abs(remainder_trace - opt.mu0) < 1e-12
