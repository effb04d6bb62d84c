import math

import numpy as np
import pytest

from retrodictor.ensembles import Povm, PureState, source_from_ensemble
from retrodictor.errors import SingularOperator, ValidationError
from retrodictor.linalg import dag, hermitian_eig, maxabs
from retrodictor.retrodiction import outcome_probs
from retrodictor.ud import (
    MAX_GRID_STEP,
    MIN_GRID_STEP,
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
    ud_retro_dual,
    ud_states,
    verify_purity_identification,
)

ETA_GRID = np.linspace(0.5, 0.98, 20)
ALPHA_GRID = np.linspace(0.02, math.pi / 4 - 0.01, 20)


def test_instance_validation():
    with pytest.raises(ValidationError):
        UdInstance(0.0, (0.5, 0.5))
    with pytest.raises(ValidationError):
        UdInstance(1.0, (0.5, 0.5))  # above pi/4
    with pytest.raises(ValidationError):
        UdInstance(0.3, (1.0, 0.0))
    with pytest.raises(ValidationError):
        UdInstance(0.3, (0.6, 0.6))
    with pytest.raises(ValidationError):
        UdInstance.from_overlap(1.0, (0.5, 0.5))


def test_angle_conventions():
    inst = UdInstance(math.pi / 8, (0.5, 0.5))
    psi1, psi2 = ud_states(inst)
    overlap = float(psi1.overlap(psi2).real)
    assert abs(overlap - math.cos(2 * inst.alpha)) < 1e-12
    assert abs(overlap - inst.s) < 1e-12
    assert abs(math.cos(inst.theta) - inst.s) < 1e-12
    # alpha = pi/8: overlap = cos(pi/4) = sqrt(2)/2
    assert abs(overlap - math.sqrt(2) / 2) < 1e-12


def test_states_at_quarter_pi_are_pm():
    psi1, psi2 = ud_states(UdInstance(math.pi / 4, (0.5, 0.5)))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    assert maxabs(psi1.amplitudes - plus) < 1e-14
    assert maxabs(psi2.amplitudes - minus) < 1e-14
    assert abs(UdInstance(math.pi / 4, (0.5, 0.5)).s) < 1e-12


def test_omega_closed_form_balanced_orthogonal():
    cf = omega_closed_form(UdInstance(math.pi / 4, (0.5, 0.5)))
    assert abs(cf.w1 - 0.5) < 1e-12
    assert abs(cf.w2 - 0.5) < 1e-12
    assert abs(cf.omega_angle) < 1e-12


def test_omega_angle_zero_for_equal_priors():
    for alpha in (0.1, 0.4, math.pi / 4):
        cf = omega_closed_form(UdInstance(alpha, (0.5, 0.5)))
        assert abs(cf.omega_angle) < 1e-12


def test_omega_closed_form_vs_numeric_eig():
    # Frozen oracle (numpy eigvalsh on the source matrix, eta=(0.7,0.3), alpha=pi/6):
    # eigenvalues (0.195861873485089, 0.804138126514911).
    inst = UdInstance(math.pi / 6, (0.7, 0.3))
    cf = omega_closed_form(inst)
    assert abs(cf.w2 - 0.195861873485089) < 1e-12
    assert abs(cf.w1 - 0.804138126514911) < 1e-12
    spec = hermitian_eig(omega_matrix(inst))
    assert abs(spec.eigenvalues[0] - cf.w2) < 1e-10
    assert abs(spec.eigenvalues[1] - cf.w1) < 1e-10
    # characteristic-polynomial invariants
    assert abs(cf.w1 + cf.w2 - 1.0) < 1e-12
    prod = inst.eta[0] * inst.eta[1] * math.sin(2 * inst.alpha) ** 2
    assert abs(cf.w1 * cf.w2 - prod) < 1e-12
    assert abs(
        math.tan(2 * cf.omega_angle) - (inst.eta[0] - inst.eta[1]) * math.tan(2 * inst.alpha)
    ) < 1e-10


def test_quarter_pi_boundary_with_unequal_priors():
    # alpha = pi/4 puts the eigenvector angle on its branch boundary (+-pi/4).
    for eta in ((0.25, 0.75), (0.75, 0.25)):
        inst = UdInstance(math.pi / 4, eta)
        cf = omega_closed_form(inst)
        assert abs(abs(cf.omega_angle) - math.pi / 4) < 1e-12
        numeric = retro_basis(inst)
        closed = retro_basis_closed_form(inst)
        assert maxabs(numeric.vectors[:, 0] - closed.vectors[:, 0]) < 1e-12
        assert maxabs(numeric.vectors[:, 1] - closed.vectors[:, 1]) < 1e-12
        assert abs(optimal_dual(inst).p_success - 1.0) < 1e-12


def test_omega_closed_form_rejects_singular():
    with pytest.raises(SingularOperator):
        omega_closed_form(UdInstance(1e-9, (0.5, 0.5)))


def test_retro_basis_balanced_priors():
    basis = retro_basis(UdInstance(math.pi / 6, (0.5, 0.5)))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    assert maxabs(PureState(basis.vectors[:, 0]).projector() - np.outer(plus, plus)) < 1e-12
    assert maxabs(PureState(basis.vectors[:, 1]).projector() - np.outer(minus, minus)) < 1e-12


def test_retro_basis_orthonormal_and_matches_closed_form_on_grid():
    worst_orth = worst_gap = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            inst = UdInstance(float(alpha), (float(eta_max), float(1 - eta_max)))
            numeric = retro_basis(inst)
            closed = retro_basis_closed_form(inst)
            phi1, phi2 = PureState(numeric.vectors[:, 0]), PureState(numeric.vectors[:, 1])
            worst_orth = max(worst_orth, abs(phi1.overlap(phi2)))
            worst_gap = max(
                worst_gap,
                maxabs(numeric.vectors[:, 0] - closed.vectors[:, 0]),
                maxabs(numeric.vectors[:, 1] - closed.vectors[:, 1]),
            )
    assert worst_orth < 1e-9
    assert worst_gap < 1e-10


def test_retro_bases_carry_the_source_spectrum_they_were_built_from():
    # Both eta orderings: the eigenvector angle changes sign with eta_1 - eta_2.
    for eta_max in ETA_GRID[::4]:
        for alpha in ALPHA_GRID[::4]:
            for eta in ((eta_max, 1 - eta_max), (1 - eta_max, eta_max)):
                inst = UdInstance(float(alpha), (float(eta[0]), float(eta[1])))
                numeric = retro_basis(inst).omega_spectrum
                closed = retro_basis_closed_form(inst).omega_spectrum
                assert maxabs(numeric.reconstruct() - omega_matrix(inst)) < 1e-14
                assert maxabs(numeric.eigenvalues - closed.eigenvalues) < 1e-12
                # Same vectors, phases included: both follow the Spectrum convention.
                assert maxabs(numeric.eigenvectors - closed.eigenvectors) < 1e-12


def test_omega_in_retro_basis_examples():
    assert maxabs(
        omega_in_retro_basis(UdInstance(math.pi / 4, (0.5, 0.5))) - np.eye(2) / 2
    ) < 1e-12
    m = omega_in_retro_basis(UdInstance.from_overlap(0.5, (0.6, 0.4)))
    off = 0.5 * math.sqrt(0.24)
    assert maxabs(m - np.array([[0.6, off], [off, 0.4]])) < 1e-12


def test_omega_in_retro_basis_matches_basis_change():
    inst = UdInstance.from_overlap(0.37, (0.62, 0.38))
    u = retro_basis(inst).vectors
    assert maxabs(dag(u) @ omega_matrix(inst) @ u - omega_in_retro_basis(inst)) < 1e-10


def test_optimal_dual_even_priors_spot_value():
    opt = optimal_dual(UdInstance.from_overlap(0.5, (0.5, 0.5)))
    assert opt.regime == "interior"
    assert abs(opt.p_success - 0.5) < 1e-12
    assert abs(opt.mu1 - 0.25) < 1e-12
    assert abs(opt.mu2 - 0.25) < 1e-12


def test_optimal_dual_clamped_spot_value():
    opt = optimal_dual(UdInstance.from_overlap(math.sqrt(0.5), (0.9, 0.1)))
    assert opt.regime == "clamped"
    assert abs(opt.p_success - 0.45) < 1e-12
    assert opt.mu2 == 0.0
    # the unlikely state keeps no weight; mu_max closes the determinant
    assert abs(opt.mu1 - 0.45) < 1e-12


def test_optimal_dual_against_grid_oracle():
    inst = UdInstance.from_overlap(0.4, (0.7, 0.3))
    expected = 1.0 - 0.8 * math.sqrt(0.21)
    opt = optimal_dual(inst)
    assert abs(opt.p_success - expected) < 1e-12
    _, _, p_grid = brute_force_dual(inst, 1e-4)
    assert abs(opt.p_success - p_grid) <= 2e-4


def test_brute_force_examples():
    m1, m2, p = brute_force_dual(UdInstance.from_overlap(0.5, (0.5, 0.5)), 1e-4)
    assert abs(p - 0.5) <= 2e-4
    # s = 0: success probability is exactly 1 on the grid
    m1, m2, p = brute_force_dual(UdInstance(math.pi / 4, (0.5, 0.5)), 1e-4)
    assert p == 1.0
    _, _, p = brute_force_dual(UdInstance.from_overlap(math.sqrt(0.5), (0.9, 0.1)), 1e-4)
    assert abs(p - 0.45) <= 2e-4


def test_brute_force_rejects_bad_step():
    with pytest.raises(ValueError):
        brute_force_dual(UdInstance(0.3, (0.5, 0.5)), 0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.5 * MIN_GRID_STEP])
def test_brute_force_rejects_non_finite_and_sub_floor_steps(step):
    with pytest.raises(ValueError, match=f"at least {MIN_GRID_STEP:g}"):
        brute_force_dual(UdInstance(0.3, (0.5, 0.5)), step)


@pytest.mark.parametrize("step", [10.0, 0.5, 0.02, 1.5 * MAX_GRID_STEP])
def test_brute_force_rejects_steps_above_the_bound(step):
    # A step this coarse scans little more than mu_1 = 0, and its 2 * step tolerance
    # (20 at step 10) exceeds any deviation a success probability can have.
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_STEP:g}"):
        brute_force_dual(UdInstance.from_overlap(0.5, (0.5, 0.5)), step)


def test_brute_force_runs_at_the_step_bound():
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    _, _, p = brute_force_dual(inst, MAX_GRID_STEP)
    assert abs(p - optimal_dual(inst).p_success) <= 2.0 * MAX_GRID_STEP


def test_brute_force_runs_at_the_step_floor():
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    _, _, p = brute_force_dual(inst, MIN_GRID_STEP)
    assert abs(p - optimal_dual(inst).p_success) <= 2.0 * MIN_GRID_STEP


def test_dual_invariants_on_grid():
    for eta_max in ETA_GRID[::3]:
        for alpha in ALPHA_GRID[::3]:
            inst = UdInstance(float(alpha), (float(1 - eta_max), float(eta_max)))
            opt = optimal_dual(inst)
            assert abs(opt.mu1 + opt.mu2 + opt.mu0 - 1.0) < 1e-12
            assert -1e-15 <= opt.mu1 <= inst.eta[0] + 1e-15
            assert -1e-15 <= opt.mu2 <= inst.eta[1] + 1e-15
            weighted = opt.mu0 * opt.rho0
            assert abs(np.linalg.det(weighted)) < 1e-10
            basis = retro_basis(inst)
            total = (
                opt.mu1 * PureState(basis.vectors[:, 0]).projector()
                + opt.mu2 * PureState(basis.vectors[:, 1]).projector()
                + weighted
            )
            assert maxabs(total - omega_matrix(inst)) < 1e-10


def test_interior_failure_state_is_balanced_superposition():
    inst = UdInstance.from_overlap(0.3, (0.55, 0.45))
    opt = optimal_dual(inst)
    assert opt.regime == "interior"
    basis = retro_basis(inst)
    phi0 = (basis.vectors[:, 0] + basis.vectors[:, 1]) / math.sqrt(2)
    assert maxabs(opt.rho0 - np.outer(phi0, phi0.conj())) < 1e-10


def test_regime_boundary_continuity():
    for s in np.linspace(0.05, 0.9, 30):
        eta_max = 1.0 / (1.0 + float(s) ** 2)
        interior = 1.0 - 2.0 * math.sqrt(eta_max * (1 - eta_max)) * float(s)
        clamped = eta_max * (1.0 - float(s) ** 2)
        assert abs(interior - clamped) < 1e-9


def test_tie_priors_hit_no_strict_branch():
    # eta_1 = eta_2 = 1/2 must behave identically under both orderings.
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    opt = optimal_dual(inst)
    assert opt.mu1 == opt.mu2
    assert opt.regime == "interior"


def test_predictive_povm_annihilates_wrong_state():
    for inst in (UdInstance(0.3, (0.6, 0.4)), UdInstance.from_overlap(0.8, (0.85, 0.15))):
        ud_povm = optimal_predictive_povm(inst)
        psi1, psi2 = ud_states(inst)
        p12 = float(np.vdot(psi2.amplitudes, ud_povm.elements[0] @ psi2.amplitudes).real)
        p21 = float(np.vdot(psi1.amplitudes, ud_povm.elements[1] @ psi1.amplitudes).real)
        assert abs(p12) < 1e-12
        assert abs(p21) < 1e-12


def test_predictive_success_equals_dual_optimum():
    inst = UdInstance.from_overlap(0.5, (0.5, 0.5))
    ud_povm = optimal_predictive_povm(inst)
    assert abs(predictive_success_probability(inst, ud_povm) - 0.5) < 1e-10


def test_clamped_predictive_measurement_ignores_unlikely_state():
    ud_povm = optimal_predictive_povm(UdInstance.from_overlap(math.sqrt(0.5), (0.9, 0.1)))
    assert ud_povm.c[1] == 0.0
    assert abs(ud_povm.c[0] - 1.0) < 1e-12


def test_duality_bridge_mu_equals_predictive_terms():
    inst = UdInstance.from_overlap(0.45, (0.7, 0.3))
    opt = optimal_dual(inst)
    ud_povm = optimal_predictive_povm(inst)
    psi1, psi2 = ud_states(inst)
    term1 = inst.eta[0] * float(
        np.vdot(psi1.amplitudes, ud_povm.elements[0] @ psi1.amplitudes).real
    )
    term2 = inst.eta[1] * float(
        np.vdot(psi2.amplitudes, ud_povm.elements[1] @ psi2.amplitudes).real
    )
    assert abs(term1 - opt.mu1) < 1e-10
    assert abs(term2 - opt.mu2) < 1e-10
    mu = outcome_probs(Povm(ud_povm.elements), source_from_ensemble(ud_ensemble(inst)))
    assert abs(mu[0] - opt.mu1) < 1e-10
    assert abs(mu[1] - opt.mu2) < 1e-10


def _purity_identification_residuals(inst):
    """Every defined residual of the instance's purity/identification report."""
    report = verify_purity_identification(inst, optimal_dual(inst), ud_retro_dual(inst))
    values = (
        *report.purity_residuals,
        *report.projector_residuals,
        *report.sqrt_route_residuals,
        report.failure_det_residual,
    )
    return [v for v in values if not math.isnan(v)]


def test_purity_identification_balanced_instance():
    residuals = _purity_identification_residuals(UdInstance(math.pi / 8, (0.5, 0.5)))
    assert max(residuals) < 1e-10


def test_purity_identification_orthogonal_unbiased_case():
    # s = 0, eta = 1/2: the retro states are the projective detectors themselves.
    inst = UdInstance(math.pi / 4, (0.5, 0.5))
    dual = ud_retro_dual(inst)
    ud_povm = optimal_predictive_povm(inst)
    for j in (0, 1):
        element = ud_povm.elements[j]
        expected = element / float(np.trace(element).real)
        assert dual.defined[j]
        assert maxabs(dual.state_stack[j] - expected) < 1e-12


def test_purity_identification_grid():
    worst = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            residuals = _purity_identification_residuals(
                UdInstance(float(alpha), (float(eta_max), float(1 - eta_max)))
            )
            worst = max(worst, *residuals)
    assert worst < 1e-9


# Instances whose failure outcome is far above the source floor but rarely
# fires: Pi_0 = I - Pi_1 - Pi_2 kept its zero eigenvalue only up to
# roundoff, which the division by the small mu_0 made a negative eigenvalue
# of rho_0^ret.
FAR_ABOVE_FLOOR = [
    UdInstance.from_overlap(1e-6, (0.9, 0.1)),
    UdInstance.from_overlap(1e-6, (0.1, 0.9)),
    UdInstance.from_overlap(1e-6, (0.98, 0.02)),
    UdInstance(0.785398, (0.6, 0.4)),
]


@pytest.mark.parametrize("inst", FAR_ABOVE_FLOOR)
def test_small_failure_weight_instance_has_a_dual(inst):
    from retrodictor.verify import checks_for_ud

    ud_povm = optimal_predictive_povm(inst)
    dual = ud_retro_dual(inst, ud_povm)
    assert dual.defined[2]
    assert all(c.passed for c in checks_for_ud(inst, optimal_dual(inst), ud_povm))


def test_ud_command_far_above_the_floor_succeeds(tmp_path):
    from retrodictor.cli import main

    assert main(["ud", "--eta1", "0.6", "--alpha", "0.785398", "--out", str(tmp_path / "ud.json")]) == 0


@pytest.mark.parametrize("s", [0.0, 1e-6, 1e-5, 1e-4, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("eta1", [0.5, 0.6, 0.9, 0.98, 0.1])
def test_failure_element_is_the_remainder_and_transforms(s, eta1):
    inst = UdInstance.from_overlap(s, (eta1, 1.0 - eta1))
    ud_povm = optimal_predictive_povm(inst)
    pi1, pi2, pi0 = ud_povm.elements
    assert maxabs(pi0 - (np.eye(2) - pi1 - pi2)) < 1e-15
    ud_retro_dual(inst, ud_povm)  # validates rho_0^ret


# Overlaps from 0 to 0.99, dense towards orthogonal states, against priors in
# both regimes and within 1e-9 of even: every instance clears the source floor.
SWEEP_OVERLAPS = [0.0, 1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.3, 0.7, 0.99]
SWEEP_ETA1 = [
    0.02, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.55, 0.6, 0.7, 0.8, 0.9, 0.98, 0.999
]


def test_every_valid_instance_above_the_floor_passes_the_ud_and_channel_checks():
    # The failure state used to divide the source remainder by a tiny mu_0,
    # and the closed-form spectrum cancelled where Omega is close to I/2.
    from retrodictor.channel import no_signaling_check
    from retrodictor.verify import checks_for_channel, checks_for_ud

    failures = []
    for s in SWEEP_OVERLAPS:
        for eta1 in SWEEP_ETA1:
            try:
                inst = UdInstance.from_overlap(s, (eta1, 1.0 - eta1))
                checks = checks_for_ud(inst, optimal_dual(inst), optimal_predictive_povm(inst))
                checks += checks_for_channel(inst, no_signaling_check(inst))
            except ValidationError as exc:
                failures.append((s, eta1, str(exc)))
            else:
                failures += [(s, eta1, c.name, c.value) for c in checks if not c.passed]
    assert failures == []


def test_ud_command_for_nearly_orthogonal_states_succeeds(tmp_path):
    from retrodictor.cli import main

    assert main(["ud", "--eta1", "0.7", "--overlap", "1e-7", "--out", str(tmp_path / "ud.json")]) == 0


def test_a_stack_with_mismatched_shapes_or_an_overlap_out_of_range_raises_a_named_error():
    with pytest.raises(ValidationError) as shape:
        UdInstance(np.array([0.3, 0.4]), np.array([[0.6, 0.4, 0.5], [0.4, 0.6, 0.5]]))
    assert [v.check for v in shape.value.violations] == ["eta_shape"]
    with pytest.raises(ValidationError) as overlap:
        UdInstance.from_overlap(np.array([0.2, 1.0, 0.5]), np.array([[0.6] * 3, [0.4] * 3]))
    assert [(v.check, v.residual) for v in overlap.value.violations] == [("overlap_range", 1.0)]


@pytest.mark.parametrize("fn", [ud_states, ud_ensemble])
def test_per_instance_entry_points_raise_on_a_stack(fn):
    stack = UdInstance.from_overlap([0.5, 0.3], [[0.5, 0.7], [0.5, 0.3]])
    with pytest.raises(ValueError, match="is a stack"):
        fn(stack)
