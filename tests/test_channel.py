import math

import numpy as np
import pytest

from retrodictor.channel import (
    entangled_state,
    no_signaling_check,
    reduced_matrix,
    sqrt_omega_in_retro_basis,
    swap_residual,
    symmetric_state,
)
from retrodictor.errors import SingularOperator, ValidationError
from retrodictor.linalg import hermitian_eig, maxabs, outer
from retrodictor.ud import UdInstance, omega_in_retro_basis, omega_matrix, optimal_dual, retro_basis

ETA_GRID = np.linspace(0.5, 0.98, 12)
ALPHA_GRID = np.linspace(0.05, math.pi / 4 - 0.01, 12)


def test_entangled_state_orthogonal_inputs_is_maximally_entangled():
    # s = 0: Schmidt coefficients are (1/2, 1/2).
    state = entangled_state(UdInstance([math.pi / 4], [[0.5], [0.5]]))[0]
    rho_a = reduced_matrix(state, trace_out=1)
    schmidt = hermitian_eig(rho_a).eigenvalues
    assert np.allclose(schmidt, [0.5, 0.5], atol=1e-12)


def test_entangled_state_reduced_b_is_source():
    inst = UdInstance([math.pi / 6], [[0.7], [0.3]])
    state = entangled_state(inst)[0]
    assert maxabs(reduced_matrix(state, trace_out=0) - omega_matrix(inst)[0]) < 1e-10


def test_entangled_state_reduced_a_is_source_in_retro_matrix_form():
    inst = UdInstance([math.pi / 6], [[0.7], [0.3]])
    state = entangled_state(inst)[0]
    assert maxabs(reduced_matrix(state, trace_out=1) - omega_in_retro_basis(inst)[0]) < 1e-10


def test_symmetric_state_swap_invariance():
    inst = UdInstance([math.pi / 8], [[0.5], [0.5]])
    state = symmetric_state(inst, retro_basis(inst))[0]
    assert state.shape == (2, 2) and abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert swap_residual(state) < 1e-12
    # Row = party a, column = party b: the swap transposes the amplitude matrix.
    assert maxabs(state.T - state) < 1e-12


def test_symmetric_state_both_reductions_equal_source():
    inst = UdInstance.from_overlap([0.6], [[0.75], [0.25]])
    state = symmetric_state(inst, retro_basis(inst))[0]
    om = omega_matrix(inst)[0]
    assert maxabs(reduced_matrix(state, 0) - om) < 1e-10
    assert maxabs(reduced_matrix(state, 1) - om) < 1e-10


def test_symmetric_state_is_alice_basis_change_of_entangled_state():
    inst = UdInstance.from_overlap([0.45], [[0.65], [0.35]])
    u = retro_basis(inst).vectors[0]
    lifted = u @ entangled_state(inst)[0]
    assert maxabs(lifted - symmetric_state(inst, retro_basis(inst))[0]) < 1e-10


def test_symmetric_state_rejects_singular_source():
    inst = UdInstance([1e-9], [[0.5], [0.5]])
    with pytest.raises(SingularOperator):
        symmetric_state(inst, retro_basis(inst))


def test_no_signaling_at_optimum():
    report = no_signaling_check(UdInstance.from_overlap([0.5], [[0.5], [0.5]]))
    assert report.max_residual[0] < 1e-10
    om = omega_matrix(UdInstance.from_overlap([0.5], [[0.5], [0.5]]))[0]
    assert maxabs(report.reduced_a[0] - om) < 1e-10
    assert maxabs(report.reduced_b[0] - om) < 1e-10


def test_no_signaling_for_any_feasible_decomposition():
    inst = UdInstance.from_overlap([0.5], [[0.6], [0.4]])
    report = no_signaling_check(inst, mu=([0.12], [0.07]))
    assert report.max_residual[0] < 1e-10


def test_no_signaling_infeasible_mu_reports_psd_violation():
    inst = UdInstance.from_overlap([0.5], [[0.6], [0.4]])
    with pytest.raises(ValidationError) as excinfo:
        no_signaling_check(inst, mu=([0.7], [0.0]))
    violation = excinfo.value.violations[0]
    assert violation.check == "psd"
    assert violation.residual > 0.09  # eta_1 - mu_1 = -0.1 on the diagonal


def test_no_signaling_per_instance_weights_equal_each_instance_alone():
    x = UdInstance.from_overlap([0.5, 0.3], [[0.6, 0.35], [0.4, 0.65]])
    mu1, mu2 = np.array([0.12, 0.2]), np.array([0.07, 0.3])
    report = no_signaling_check(x, mu=(mu1, mu2))
    for k in range(len(x)):
        alone = no_signaling_check(x[k], mu=(mu1[k:k + 1], mu2[k:k + 1]))
        for name in ("reduced_a", "tilde_a", "reduced_b", "amplitudes", "max_residual"):
            assert np.array_equal(getattr(report, name)[k], getattr(alone, name)[0]), name


def test_no_signaling_names_each_infeasible_instance_only():
    x = UdInstance.from_overlap([0.5, 0.5, 0.5], [[0.6, 0.6, 0.6], [0.4, 0.4, 0.4]])
    with pytest.raises(ValidationError) as excinfo:
        no_signaling_check(x, mu=([0.12, 0.7, 0.12], [0.07, 0.0, 0.07]))
    violations = excinfo.value.violations
    assert violations and all(v.check == "psd" and v.message.endswith("(instance[1])") for v in violations)


@pytest.mark.parametrize("mu", [(0.12, 0.07), ([0.12, 0.1], [0.07, 0.05]), ([0.12, 0.1], [0.07]), ("a", "b")])
def test_no_signaling_rejects_weights_of_another_shape(mu):
    with pytest.raises(ValueError, match=r"two arrays of shape \(1,\)"):
        no_signaling_check(UdInstance.from_overlap([0.5], [[0.6], [0.4]]), mu=mu)


def test_reduced_matrix_of_product_state():
    # A rectangular 3 x 2 amplitude matrix: the product of an (unnormalised) a and b.
    rng = np.random.default_rng(9)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    na, nb = np.vdot(a, a).real, np.vdot(b, b).real
    amplitudes = a[:, None] * b[None, :]
    assert maxabs(reduced_matrix(amplitudes, 1) - outer(a) * nb) < 1e-12 * na * nb
    assert maxabs(reduced_matrix(amplitudes, 0) - outer(b) * na) < 1e-12 * na * nb


def test_sqrt_omega_symmetric_in_retro_basis():
    inst = UdInstance.from_overlap([0.7], [[0.8], [0.2]])
    sq = sqrt_omega_in_retro_basis(retro_basis(inst))[0]
    assert abs(sq[0, 1] - sq[1, 0]) < 1e-12


def test_channel_properties_on_grid():
    worst_swap = worst_red = worst_ns = worst_sq = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            inst = UdInstance([float(alpha)], [[float(1 - eta_max)], [float(eta_max)]])
            basis = retro_basis(inst)
            state = symmetric_state(inst, basis)[0]
            worst_swap = max(worst_swap, swap_residual(state))
            om = omega_matrix(inst)[0]
            worst_red = max(
                worst_red,
                maxabs(reduced_matrix(state, 0) - om),
                maxabs(reduced_matrix(state, 1) - om),
            )
            worst_ns = max(worst_ns, no_signaling_check(inst).max_residual[0])
            sq = sqrt_omega_in_retro_basis(basis)[0]
            worst_sq = max(worst_sq, abs(sq[0, 1] - sq[1, 0]))
    assert worst_swap < 1e-10
    assert worst_red < 1e-10
    assert worst_ns < 1e-10
    assert worst_sq < 1e-12


def test_failure_weight_matches_dual_mu0():
    inst = UdInstance.from_overlap([0.5], [[0.6], [0.4]])
    opt = optimal_dual(inst)
    # trace of the remainder equals mu_0
    remainder_trace = (inst.eta[0, 0] - opt.mu1[0]) + (inst.eta[1, 0] - opt.mu2[0])
    assert abs(remainder_trace - opt.mu0[0]) < 1e-12
