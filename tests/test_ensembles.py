import math
import warnings

import numpy as np
import pytest

from retrodictor.ensembles import (
    PSD_TOL,
    DensityOperator,
    Ensemble,
    Povm,
    PureState,
    source_from_ensemble,
    validate_density_matrix,
    validate_ensemble,
    validate_povm,
    validate_priors,
    validate_priors_stack,
)
from retrodictor.errors import ValidationError
from retrodictor.linalg import maxabs, outer


def qubit_pair(alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return PureState(np.array([c, s])), PureState(np.array([c, -s]))


def test_orthogonal_pair_gives_unbiased_source():
    up = PureState(np.array([1.0, 0.0]))
    down = PureState(np.array([0.0, 1.0]))
    ensemble = Ensemble.from_pure_states([up, down], np.array([0.5, 0.5]))
    source = source_from_ensemble(ensemble)
    assert maxabs(source.matrix - np.eye(2) / 2) < 1e-14
    assert source.unbiased


def test_source_matrix_matches_two_state_closed_form():
    # cos(a)|0> +- sin(a)|1> with priors (e1, e2):
    # [[cos^2 a, (e1-e2) sin a cos a], [(e1-e2) sin a cos a, sin^2 a]]
    alpha, e1, e2 = math.pi / 6, 0.7, 0.3
    psi1, psi2 = qubit_pair(alpha)
    ensemble = Ensemble.from_pure_states([psi1, psi2], np.array([e1, e2]))
    source = source_from_ensemble(ensemble)
    c, s = math.cos(alpha), math.sin(alpha)
    expected = np.array([[c * c, (e1 - e2) * s * c], [(e1 - e2) * s * c, s * s]])
    assert maxabs(source.matrix - expected) < 1e-14
    assert not source.unbiased


def test_single_state_source_is_the_state():
    rho = DensityOperator(np.diag([0.25, 0.75]))
    source = source_from_ensemble(Ensemble((rho,), np.array([1.0])))
    assert maxabs(source.matrix - rho.matrix) < 1e-14


def test_wellformed_povm_validates_clean():
    report = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert report.ok


def test_priors_sum_residual_is_named():
    report = validate_priors([0.5, 0.4])
    assert not report.ok
    violation = report.violations[0]
    assert violation.check == "priors_sum"
    assert abs(violation.residual - 0.1) < 1e-12


def test_a_priors_stack_reports_what_each_row_reports():
    rows = np.array([[0.5, 0.5], [0.5, 0.4], [1.2, -0.3], [np.inf, 1.0], [0.25, 0.75]])
    stacked = validate_priors_stack(rows, "corpus priors").violations
    single = [v for row in rows for v in validate_priors(row).violations]
    assert [(v.check, v.residual) for v in stacked] == [(v.check, v.residual) for v in single]
    assert [v.message for v in single] == [
        "priors do not sum to 1",
        "negative prior",
        "priors do not sum to 1",
        "priors has non-finite entries",
    ]
    rows_named = [f" (corpus priors[{k}])" for k in (1, 2, 2, 3)]
    assert [v.message for v in stacked] == [v.message + at for v, at in zip(single, rows_named)]
    assert validate_priors_stack(rows[[0, 4]], "corpus priors").ok


def test_povm_psd_violation_magnitude_measured():
    # Perturb a valid element so one eigenvalue dips to about -1e-3.
    eps = 1e-3
    bad = np.array([[1.0, 0.0], [0.0, -eps]])
    other = np.eye(2) - bad
    report = validate_povm([bad, other])
    psd = [v for v in report.violations if v.check == "psd"]
    assert psd
    assert abs(psd[0].residual - eps) < 1e-9


def test_ensemble_report_collects_all_failures():
    report = validate_ensemble([np.diag([0.7, 0.7]), np.eye(3) / 3], [0.6, 0.6])
    checks = {v.check for v in report.violations}
    assert "priors_sum" in checks
    assert "unit_trace" in checks
    assert "common_dim" in checks


def test_priors_drift_is_an_error_not_renormalized():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        Ensemble((rho, rho), np.array([0.5, 0.5 + 1e-9]))


def test_negative_prior_rejected():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        Ensemble((rho, rho), np.array([1.5, -0.5]))


def test_pure_state_norm_enforced():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))


def test_density_operator_invariants_enforced():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_povm_completeness_enforced():
    with pytest.raises(ValidationError):
        Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))


def test_values_are_immutable():
    state = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_operator_stacks_are_read_only():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == np.complex128
    psi1, psi2 = qubit_pair(0.3)
    ensemble = Ensemble.from_pure_states([psi1, psi2], np.array([0.4, 0.6]))
    assert ensemble.matrices.shape == (2, 2, 2)
    assert np.array_equal(ensemble.matrices[1], ensemble.states[1].matrix)
    for stack in (povm.elements, ensemble.matrices):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 9.0


def test_projector_matches_outer_product():
    psi1, _ = qubit_pair(0.3)
    assert maxabs(psi1.projector() - outer(psi1.amplitudes)) == 0.0
    assert abs(psi1.density().purity() - 1.0) < 1e-12


def _psd_edge_operators(dim, w_min):
    """A state and a POVM element with smallest eigenvalue w_min, in a random basis."""
    rng = np.random.default_rng(dim)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))

    def in_basis(eigenvalues):
        m = (u * eigenvalues) @ u.conj().T
        return (m + m.conj().T) / 2.0

    rest = np.full(dim - 1, (1.0 - w_min) / (dim - 1))
    return in_basis(np.r_[w_min, rest]), in_basis(np.r_[w_min, np.full(dim - 1, 0.5)])


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_psd_check_accepts_half_its_tolerance_below_zero(dim):
    rho, element = _psd_edge_operators(dim, -0.5 * PSD_TOL)
    DensityOperator(rho)
    Povm((element, np.eye(dim) - element))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_psd_check_rejects_twice_its_tolerance_below_zero(dim):
    w_min = -2.0 * PSD_TOL
    rho, element = _psd_edge_operators(dim, w_min)
    for build in (lambda: DensityOperator(rho), lambda: Povm((element, np.eye(dim) - element))):
        with pytest.raises(ValidationError) as excinfo:
            build()
        (psd,) = [v for v in excinfo.value.violations if v.check == "psd"]
        assert abs(psd.residual - (-w_min)) <= 1e-15


def test_ensemble_constructor_and_report_share_their_invariants():
    rho = DensityOperator(np.eye(2) / 2)
    for states, priors in (
        ((rho, rho), [0.5, 0.4]),
        ((rho,), [0.5, 0.5]),
        ((rho, DensityOperator(np.eye(3) / 3)), [0.5, 0.5]),
        ((rho, DensityOperator(np.eye(3) / 3)), [0.5, 0.4]),
        ((), [1.0]),
    ):
        with pytest.raises(ValidationError) as excinfo:
            Ensemble(states, np.array(priors))
        report = validate_ensemble([s.matrix for s in states], priors)
        assert [str(v) for v in excinfo.value.violations] == [str(v) for v in report.violations]


def test_huge_trace_reports_unit_trace_without_a_warning():
    # The trace of entries near the float64 limit overflows to inf: a unit_trace
    # violation, not a numpy RuntimeWarning escaping validation.
    huge = [[1e308, 1e308], [1e308, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as excinfo:
            DensityOperator(huge)
        report = validate_density_matrix(huge)
    assert "unit_trace" in [v.check for v in excinfo.value.violations]
    assert [v.check for v in report.violations] == [v.check for v in excinfo.value.violations]
