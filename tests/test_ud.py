import math

import numpy as np
import pytest

from retrodictor import ud as ud_module
from retrodictor.channel import no_signaling_check
from retrodictor.ensembles import Povm
from retrodictor.errors import SingularOperator, ValidationError
from retrodictor.linalg import dag, hermitian_eig, maxabs, outer
from retrodictor.retrodiction import retro_transform
from retrodictor.ud import (
    MAX_GRID_STEP,
    MIN_GRID_STEP,
    UdInstance,
    brute_force_dual,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    duality_bridge,
    optimal_dual,
    retro_basis,
    retro_basis_closed_form,
    ud_ensemble,
    ud_retro_dual,
    ud_state_vectors,
    verify_purity_identification,
)
from retrodictor.verify import checks_for_channel, checks_for_ud

ETA_GRID = np.linspace(0.5, 0.98, 20)
ALPHA_GRID = np.linspace(0.02, math.pi / 4 - 0.01, 20)


def test_instance_validation():
    with pytest.raises(ValidationError):
        UdInstance([0.0], [[0.5], [0.5]])
    with pytest.raises(ValidationError):
        UdInstance([1.0], [[0.5], [0.5]])  # above pi/4
    with pytest.raises(ValidationError):
        UdInstance([0.3], [[1.0], [0.0]])
    with pytest.raises(ValidationError):
        UdInstance([0.3], [[0.6], [0.6]])
    with pytest.raises(ValidationError):
        UdInstance.from_overlap([1.0], [[0.5], [0.5]])


def test_a_non_finite_prior_sum_is_named_not_warned():
    # inf + -inf is NaN: it warned while summing the priors, and a NaN sum never flagged eta_sum.
    with pytest.raises(ValidationError) as excinfo:
        UdInstance([0.3], [[np.inf], [-np.inf]])
    assert "eta_sum" in [v.check for v in excinfo.value.violations]


def test_ud_violations_name_every_failing_instance_only():
    with pytest.raises(ValidationError) as excinfo:
        UdInstance([0.3, 0.4, 0.5], [[0.5, 0.5, 1.5], [0.5, 0.5, -0.5]])
    assert [str(v) for v in excinfo.value.violations] == [
        "eta_positive: priors must be positive (instance[2]) (residual -5.000e-01)"
    ]
    with pytest.raises(ValidationError) as excinfo:
        UdInstance([1.0, 0.3, 0.0], [[0.5, 0.6, 0.5], [0.5, 0.6, 0.5]])
    assert [(v.check, v.message) for v in excinfo.value.violations] == [
        ("alpha_range", "alpha must lie in (0, pi/4] (instance[0])"),
        ("eta_sum", "priors must sum to 1 (instance[1])"),
        ("alpha_range", "alpha must lie in (0, pi/4] (instance[2])"),
    ]


def test_c_range_names_every_failing_instance_only(monkeypatch):
    # c is in [0, 1] at the closed-form weights; doubling instance 1's mu_1 puts its c_1 at 4/3.
    optimal_mu = ud_module._optimal_mu

    def doubled(x):
        mu1, mu2, regime = optimal_mu(x)
        return mu1 * [1.0, 2.0, 1.0], mu2, regime

    monkeypatch.setattr(ud_module, "_optimal_mu", doubled)
    with pytest.raises(ValidationError) as excinfo:
        optimal_dual(UdInstance.from_overlap([0.5, 0.5, 0.5], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]))
    assert [(v.check, v.message) for v in excinfo.value.violations] == [
        ("c_range", "transmission weight outside [0, 1] (instance[1])")
    ]


def test_angle_conventions():
    inst = UdInstance([math.pi / 8], [[0.5], [0.5]])
    psi1, psi2 = ud_state_vectors(inst)[0]
    overlap = float(np.vdot(psi1, psi2).real)
    assert abs(overlap - math.cos(2 * inst.alpha[0])) < 1e-12
    assert abs(overlap - inst.s[0]) < 1e-12
    assert abs(math.cos(inst.theta[0]) - inst.s[0]) < 1e-12
    # alpha = pi/8: overlap = cos(pi/4) = sqrt(2)/2
    assert abs(overlap - math.sqrt(2) / 2) < 1e-12


def test_states_at_quarter_pi_are_pm():
    psi1, psi2 = ud_state_vectors(UdInstance([math.pi / 4], [[0.5], [0.5]]))[0]
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    assert maxabs(psi1 - plus) < 1e-14
    assert maxabs(psi2 - minus) < 1e-14
    assert abs(UdInstance([math.pi / 4], [[0.5], [0.5]]).s[0]) < 1e-12


def test_omega_closed_form_balanced_orthogonal():
    cf = omega_closed_form(UdInstance([math.pi / 4], [[0.5], [0.5]]))
    assert abs(cf.w1[0] - 0.5) < 1e-12
    assert abs(cf.w2[0] - 0.5) < 1e-12
    assert abs(cf.omega_angle[0]) < 1e-12


def test_omega_angle_zero_for_equal_priors():
    for alpha in (0.1, 0.4, math.pi / 4):
        cf = omega_closed_form(UdInstance([alpha], [[0.5], [0.5]]))
        assert abs(cf.omega_angle[0]) < 1e-12


def test_omega_closed_form_vs_numeric_eig():
    # Frozen oracle (numpy eigvalsh on the source matrix, eta=(0.7,0.3), alpha=pi/6):
    # eigenvalues (0.195861873485089, 0.804138126514911).
    inst = UdInstance([math.pi / 6], [[0.7], [0.3]])
    cf = omega_closed_form(inst)
    assert abs(cf.w2[0] - 0.195861873485089) < 1e-12
    assert abs(cf.w1[0] - 0.804138126514911) < 1e-12
    spec = hermitian_eig(omega_matrix(inst)[0])
    assert abs(spec.eigenvalues[0] - cf.w2[0]) < 1e-10
    assert abs(spec.eigenvalues[1] - cf.w1[0]) < 1e-10
    # characteristic-polynomial invariants
    assert abs(cf.w1[0] + cf.w2[0] - 1.0) < 1e-12
    (eta1, eta2), alpha = inst.eta[:, 0], inst.alpha[0]
    prod = eta1 * eta2 * math.sin(2 * alpha) ** 2
    assert abs(cf.w1[0] * cf.w2[0] - prod) < 1e-12
    assert abs(
        math.tan(2 * cf.omega_angle[0]) - (eta1 - eta2) * math.tan(2 * alpha)
    ) < 1e-10


def test_quarter_pi_boundary_with_unequal_priors():
    # alpha = pi/4 puts the eigenvector angle on its branch boundary (+-pi/4).
    for eta in ([[0.25], [0.75]], [[0.75], [0.25]]):
        inst = UdInstance([math.pi / 4], eta)
        cf = omega_closed_form(inst)
        assert abs(abs(cf.omega_angle[0]) - math.pi / 4) < 1e-12
        numeric = retro_basis(inst)
        closed = retro_basis_closed_form(inst)
        assert maxabs(numeric.vectors[0, :, 0] - closed.vectors[0, :, 0]) < 1e-12
        assert maxabs(numeric.vectors[0, :, 1] - closed.vectors[0, :, 1]) < 1e-12
        assert abs(optimal_dual(inst).p_success[0] - 1.0) < 1e-12


def test_omega_closed_form_rejects_singular():
    with pytest.raises(SingularOperator):
        omega_closed_form(UdInstance([1e-9], [[0.5], [0.5]]))


def test_retro_basis_balanced_priors():
    basis = retro_basis(UdInstance([math.pi / 6], [[0.5], [0.5]]))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    assert maxabs(outer(basis.vectors[0, :, 0]) - np.outer(plus, plus)) < 1e-12
    assert maxabs(outer(basis.vectors[0, :, 1]) - np.outer(minus, minus)) < 1e-12


def test_retro_basis_orthonormal_and_matches_closed_form_on_grid():
    worst_orth = worst_gap = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            inst = UdInstance([float(alpha)], [[float(eta_max)], [float(1 - eta_max)]])
            numeric = retro_basis(inst)
            closed = retro_basis_closed_form(inst)
            worst_orth = max(worst_orth, abs(np.vdot(numeric.vectors[0, :, 0], numeric.vectors[0, :, 1])))
            worst_gap = max(
                worst_gap,
                maxabs(numeric.vectors[0, :, 0] - closed.vectors[0, :, 0]),
                maxabs(numeric.vectors[0, :, 1] - closed.vectors[0, :, 1]),
            )
    assert worst_orth < 1e-9
    assert worst_gap < 1e-10


def test_retro_bases_carry_the_source_spectrum_they_were_built_from():
    # Both eta orderings: the eigenvector angle changes sign with eta_1 - eta_2.
    for eta_max in ETA_GRID[::4]:
        for alpha in ALPHA_GRID[::4]:
            for eta in ((eta_max, 1 - eta_max), (1 - eta_max, eta_max)):
                inst = UdInstance([float(alpha)], [[float(eta[0])], [float(eta[1])]])
                numeric = retro_basis(inst).omega_spectrum
                closed = retro_basis_closed_form(inst).omega_spectrum
                rebuilt = (numeric.eigenvectors * numeric.eigenvalues[..., None, :]) @ dag(numeric.eigenvectors)
                assert maxabs(rebuilt - omega_matrix(inst)) < 1e-14
                assert maxabs(numeric.eigenvalues - closed.eigenvalues) < 1e-12
                # Same vectors, phases included: both follow the Spectrum convention.
                assert maxabs(numeric.eigenvectors - closed.eigenvectors) < 1e-12


def test_omega_in_retro_basis_examples():
    assert maxabs(
        omega_in_retro_basis(UdInstance([math.pi / 4], [[0.5], [0.5]]))[0] - np.eye(2) / 2
    ) < 1e-12
    m = omega_in_retro_basis(UdInstance.from_overlap([0.5], [[0.6], [0.4]]))[0]
    off = 0.5 * math.sqrt(0.24)
    assert maxabs(m - np.array([[0.6, off], [off, 0.4]])) < 1e-12


def test_omega_in_retro_basis_matches_basis_change():
    inst = UdInstance.from_overlap([0.37], [[0.62], [0.38]])
    u = retro_basis(inst).vectors
    assert maxabs(dag(u) @ omega_matrix(inst) @ u - omega_in_retro_basis(inst)) < 1e-10


def test_optimal_dual_even_priors_spot_value():
    opt = optimal_dual(UdInstance.from_overlap([0.5], [[0.5], [0.5]]))
    assert opt.regime[0] == "interior"
    assert abs(opt.p_success[0] - 0.5) < 1e-12
    assert abs(opt.mu1[0] - 0.25) < 1e-12
    assert abs(opt.mu2[0] - 0.25) < 1e-12


def test_optimal_dual_clamped_spot_value():
    opt = optimal_dual(UdInstance.from_overlap([math.sqrt(0.5)], [[0.9], [0.1]]))
    assert opt.regime[0] == "clamped"
    assert abs(opt.p_success[0] - 0.45) < 1e-12
    assert opt.mu2[0] == 0.0
    # the unlikely state keeps no weight; mu_max closes the determinant
    assert abs(opt.mu1[0] - 0.45) < 1e-12


def test_optimal_dual_against_grid_oracle():
    inst = UdInstance.from_overlap([0.4], [[0.7], [0.3]])
    expected = 1.0 - 0.8 * math.sqrt(0.21)
    opt = optimal_dual(inst)
    assert abs(opt.p_success[0] - expected) < 1e-12
    _, _, (p_grid,) = brute_force_dual(inst, 1e-4)
    assert abs(opt.p_success[0] - p_grid) <= 2e-4


def test_brute_force_examples():
    _, _, (p,) = brute_force_dual(UdInstance.from_overlap([0.5], [[0.5], [0.5]]), 1e-4)
    assert abs(p - 0.5) <= 2e-4
    # s = 0: success probability is exactly 1 on the grid
    _, _, (p,) = brute_force_dual(UdInstance([math.pi / 4], [[0.5], [0.5]]), 1e-4)
    assert p == 1.0
    _, _, (p,) = brute_force_dual(UdInstance.from_overlap([math.sqrt(0.5)], [[0.9], [0.1]]), 1e-4)
    assert abs(p - 0.45) <= 2e-4


def test_brute_force_rejects_bad_step():
    with pytest.raises(ValueError):
        brute_force_dual(UdInstance([0.3], [[0.5], [0.5]]), 0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.5 * MIN_GRID_STEP])
def test_brute_force_rejects_non_finite_and_sub_floor_steps(step):
    with pytest.raises(ValueError, match=f"at least {MIN_GRID_STEP:g}"):
        brute_force_dual(UdInstance([0.3], [[0.5], [0.5]]), step)


@pytest.mark.parametrize("step", [10.0, 0.5, 0.02, 1.5 * MAX_GRID_STEP])
def test_brute_force_rejects_steps_above_the_bound(step):
    # A step this coarse scans little more than mu_1 = 0, and its 2 * step tolerance
    # (20 at step 10) exceeds any deviation a success probability can have.
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_STEP:g}"):
        brute_force_dual(UdInstance.from_overlap([0.5], [[0.5], [0.5]]), step)


def test_brute_force_runs_at_the_step_bound():
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    _, _, (p,) = brute_force_dual(inst, MAX_GRID_STEP)
    assert abs(p - optimal_dual(inst).p_success[0]) <= 2.0 * MAX_GRID_STEP


def test_brute_force_runs_at_the_step_floor():
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    _, _, (p,) = brute_force_dual(inst, MIN_GRID_STEP)
    assert abs(p - optimal_dual(inst).p_success[0]) <= 2.0 * MIN_GRID_STEP


def test_dual_invariants_on_grid():
    for eta_max in ETA_GRID[::3]:
        for alpha in ALPHA_GRID[::3]:
            inst = UdInstance([float(alpha)], [[float(1 - eta_max)], [float(eta_max)]])
            opt = optimal_dual(inst)
            mu1, mu2, mu0 = opt.mu1[0], opt.mu2[0], opt.mu0[0]
            assert abs(mu1 + mu2 + mu0 - 1.0) < 1e-12
            assert -1e-15 <= mu1 <= inst.eta[0, 0] + 1e-15
            assert -1e-15 <= mu2 <= inst.eta[1, 0] + 1e-15
            weighted = mu0 * opt.rho0[0]
            assert abs(np.linalg.det(weighted)) < 1e-10
            basis = retro_basis(inst)
            total = (
                mu1 * outer(basis.vectors[0, :, 0])
                + mu2 * outer(basis.vectors[0, :, 1])
                + weighted
            )
            assert maxabs(total - omega_matrix(inst)[0]) < 1e-10


def test_interior_failure_state_is_balanced_superposition():
    inst = UdInstance.from_overlap([0.3], [[0.55], [0.45]])
    opt = optimal_dual(inst)
    assert opt.regime[0] == "interior"
    basis = retro_basis(inst)
    phi0 = (basis.vectors[0, :, 0] + basis.vectors[0, :, 1]) / math.sqrt(2)
    assert maxabs(opt.rho0[0] - np.outer(phi0, phi0.conj())) < 1e-10


def test_regime_boundary_continuity():
    for s in np.linspace(0.05, 0.9, 30):
        eta_max = 1.0 / (1.0 + float(s) ** 2)
        interior = 1.0 - 2.0 * math.sqrt(eta_max * (1 - eta_max)) * float(s)
        clamped = eta_max * (1.0 - float(s) ** 2)
        assert abs(interior - clamped) < 1e-9


def test_tie_priors_hit_no_strict_branch():
    # eta_1 = eta_2 = 1/2 must behave identically under both orderings.
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    opt = optimal_dual(inst)
    assert opt.mu1[0] == opt.mu2[0]
    assert opt.regime[0] == "interior"


def test_predictive_povm_annihilates_wrong_state():
    for inst in (UdInstance([0.3], [[0.6], [0.4]]), UdInstance.from_overlap([0.8], [[0.85], [0.15]])):
        elements = optimal_dual(inst).elements[0]
        psi1, psi2 = ud_state_vectors(inst)[0]
        p12 = float(np.vdot(psi2, elements[0] @ psi2).real)
        p21 = float(np.vdot(psi1, elements[1] @ psi1).real)
        assert abs(p12) < 1e-12
        assert abs(p21) < 1e-12


def test_predictive_success_equals_dual_optimum():
    inst = UdInstance.from_overlap([0.5], [[0.5], [0.5]])
    assert abs(duality_bridge(inst, optimal_dual(inst))[0].sum() - 0.5) < 1e-10


def test_clamped_predictive_measurement_ignores_unlikely_state():
    opt = optimal_dual(UdInstance.from_overlap([math.sqrt(0.5)], [[0.9], [0.1]]))
    assert opt.c[1][0] == 0.0
    assert abs(opt.c[0][0] - 1.0) < 1e-12


def test_duality_bridge_mu_equals_predictive_terms():
    inst = UdInstance.from_overlap([0.45], [[0.7], [0.3]])
    opt = optimal_dual(inst)
    psi1, psi2 = ud_state_vectors(inst)[0]
    elements = opt.elements[0]
    term1 = inst.eta[0, 0] * float(np.vdot(psi1, elements[0] @ psi1).real)
    term2 = inst.eta[1, 0] * float(np.vdot(psi2, elements[1] @ psi2).real)
    assert abs(term1 - opt.mu1[0]) < 1e-10
    assert abs(term2 - opt.mu2[0]) < 1e-10
    mu = retro_transform(ud_ensemble(inst), Povm(elements)).mu
    assert abs(mu[0] - opt.mu1[0]) < 1e-10
    assert abs(mu[1] - opt.mu2[0]) < 1e-10


def _purity_identification_residuals(inst):
    """Every defined residual of the purity/identification report of the stack of one inst."""
    opt = optimal_dual(inst)
    report = verify_purity_identification(inst, opt, ud_retro_dual(inst, opt))
    values = (
        *report.purity_residuals[0],
        *report.projector_residuals[0],
        *report.sqrt_route_residuals[0],
        report.failure_det_residual[0],
    )
    return [v for v in values if not math.isnan(v)]


def test_purity_identification_balanced_instance():
    residuals = _purity_identification_residuals(UdInstance([math.pi / 8], [[0.5], [0.5]]))
    assert max(residuals) < 1e-10


def test_purity_identification_orthogonal_unbiased_case():
    # s = 0, eta = 1/2: the retro states are the projective detectors themselves.
    inst = UdInstance([math.pi / 4], [[0.5], [0.5]])
    opt = optimal_dual(inst)
    dual = ud_retro_dual(inst, opt)
    for j in (0, 1):
        element = opt.elements[0, j]
        expected = element / float(np.trace(element).real)
        assert dual.defined[0, j]
        assert maxabs(dual.state_stack[0, j] - expected) < 1e-12


def test_purity_identification_grid():
    worst = 0.0
    for eta_max in ETA_GRID:
        for alpha in ALPHA_GRID:
            residuals = _purity_identification_residuals(
                UdInstance([float(alpha)], [[float(eta_max)], [float(1 - eta_max)]])
            )
            worst = max(worst, *residuals)
    assert worst < 1e-9


# Instances whose failure outcome is far above the source floor but rarely
# fires: Pi_0 = I - Pi_1 - Pi_2 kept its zero eigenvalue only up to
# roundoff, which the division by the small mu_0 made a negative eigenvalue
# of rho_0^ret.
FAR_ABOVE_FLOOR = [
    UdInstance.from_overlap([1e-6], [[0.9], [0.1]]),
    UdInstance.from_overlap([1e-6], [[0.1], [0.9]]),
    UdInstance.from_overlap([1e-6], [[0.98], [0.02]]),
    UdInstance([0.785398], [[0.6], [0.4]]),
]


@pytest.mark.parametrize("inst", FAR_ABOVE_FLOOR)
def test_small_failure_weight_instance_has_a_dual(inst):
    from retrodictor.verify import checks_for_ud

    opt = optimal_dual(inst)
    dual = ud_retro_dual(inst, opt)
    assert dual.defined[0, 2]
    assert all(c.passed for c in checks_for_ud(inst, opt))


def test_ud_command_far_above_the_floor_succeeds(tmp_path):
    from retrodictor.cli import main

    assert main(["ud", "--eta1", "0.6", "--alpha", "0.785398", "--out", str(tmp_path / "ud.json")]) == 0


@pytest.mark.parametrize("s", [0.0, 1e-6, 1e-5, 1e-4, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("eta1", [0.5, 0.6, 0.9, 0.98, 0.1])
def test_failure_element_is_the_remainder_and_transforms(s, eta1):
    inst = UdInstance.from_overlap([s], [[eta1], [1.0 - eta1]])
    opt = optimal_dual(inst)
    pi1, pi2, pi0 = opt.elements[0]
    assert maxabs(pi0 - (np.eye(2) - pi1 - pi2)) < 1e-15
    ud_retro_dual(inst, opt)  # validates rho_0^ret


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
                inst = UdInstance.from_overlap([s], [[eta1], [1.0 - eta1]])
                checks = checks_for_ud(inst, optimal_dual(inst))
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
    assert [v.check for v in shape.value.violations] == ["instance_shape"]
    with pytest.raises(ValidationError) as overlap:
        UdInstance.from_overlap(np.array([0.2, 1.0, 0.5]), np.array([[0.6] * 3, [0.4] * 3]))
    assert [(v.check, v.residual) for v in overlap.value.violations] == [("overlap_range", 1.0)]


def test_every_overlap_out_of_range_is_named_by_its_instance():
    with pytest.raises(ValidationError) as excinfo:
        UdInstance.from_overlap([0.3, 1.2, 1.5], [[0.5] * 3] * 2)
    assert [(v.check, v.residual, v.message) for v in excinfo.value.violations] == [
        ("overlap_range", 1.2, "overlap must lie in [0, 1) (instance[1])"),
        ("overlap_range", 1.5, "overlap must lie in [0, 1) (instance[2])"),
    ]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: UdInstance(0.3, (0.6, 0.4)), id="0-d"),
        pytest.param(lambda: UdInstance.from_overlap(0.5, (0.6, 0.4)), id="0-d-overlap"),
        pytest.param(lambda: UdInstance(np.full((6, 6), 0.3), np.full((2, 6, 6), 0.5)), id="6x6"),
        pytest.param(lambda: UdInstance.from_overlap(np.full((6, 6), 0.5), np.full((2, 6, 6), 0.5)), id="6x6-overlap"),
        # The shape is checked before the range, so no overlap of a 2-D stack is named by a flat index.
        pytest.param(lambda: UdInstance.from_overlap([[1.5, 0.5]], np.full((2, 1, 2), 0.5)), id="2-d-overlap-above-1"),
    ],
)
def test_an_instance_that_is_not_one_dimensional_raises_the_named_shape_violation(build):
    # A stack has one shape, alpha (n,) and eta (2, n); one instance is a stack of one.
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert [v.check for v in excinfo.value.violations] == ["instance_shape"]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: UdInstance([0.3, 0.4], [[0.5, 0.5], [0.5]]), id="ragged-eta"),
        pytest.param(lambda: UdInstance("x", [[0.5], [0.5]]), id="string-alpha"),
        pytest.param(lambda: UdInstance([0.3j], [[0.5], [0.5]]), id="complex-alpha"),
        pytest.param(lambda: UdInstance.from_overlap("a", [[0.5], [0.5]]), id="string-overlap"),
        pytest.param(lambda: UdInstance.from_overlap([0.5], [[0.5], ["b"]]), id="string-eta"),
    ],
)
def test_input_that_is_not_an_array_of_real_numbers_raises_a_named_error(build):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert [v.check for v in excinfo.value.violations] == ["real_entries"]


@pytest.mark.parametrize(
    "fn",
    [
        ud_ensemble,
        pytest.param(lambda x: checks_for_ud(x, optimal_dual(x)), id="checks_for_ud"),
        pytest.param(lambda x: checks_for_channel(x, no_signaling_check(x)), id="checks_for_channel"),
    ],
)
def test_per_instance_entry_points_raise_on_a_stack(fn):
    # One instance is a stack of one; a longer stack is named, not broadcast.
    fn(UdInstance.from_overlap([0.5], [[0.5], [0.5]]))
    stack = UdInstance.from_overlap([0.5, 0.3], [[0.5, 0.7], [0.5, 0.3]])
    with pytest.raises(ValueError, match="one instance, not a stack of 2"):
        fn(stack)
