import math
import warnings

import numpy as np
import pytest

from retrodictor.channel import no_signaling_check
from retrodictor.ensembles import (
    PSD_TOL,
    Ensemble,
    Povm,
    is_unbiased,
    validate_density_matrix,
    validate_ensemble,
    validate_operator_stack,
    validate_povm,
    validate_priors,
    validate_priors_stack,
    validate_state_vector,
)
from retrodictor.errors import ValidationError
from retrodictor.linalg import maxabs, outer
from retrodictor.ud import UdInstance, retro_basis


def qubit_pair(alpha):
    """The state vectors cos(alpha)|0> +- sin(alpha)|1>, as rows."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [c, -s]])


def source(ensemble):
    """The source function Omega = sum_i eta_i rho_i, summed in state order."""
    return sum(eta * rho for eta, rho in zip(ensemble.priors, ensemble.matrices))


def test_orthogonal_pair_gives_unbiased_source():
    ensemble = Ensemble(outer(np.eye(2)), np.array([0.5, 0.5]))
    assert maxabs(source(ensemble) - np.eye(2) / 2) < 1e-14
    assert is_unbiased(source(ensemble))


def test_source_matrix_matches_two_state_closed_form():
    # cos(a)|0> +- sin(a)|1> with priors (e1, e2):
    # [[cos^2 a, (e1-e2) sin a cos a], [(e1-e2) sin a cos a, sin^2 a]]
    alpha, e1, e2 = math.pi / 6, 0.7, 0.3
    ensemble = Ensemble(outer(qubit_pair(alpha)), np.array([e1, e2]))
    c, s = math.cos(alpha), math.sin(alpha)
    expected = np.array([[c * c, (e1 - e2) * s * c], [(e1 - e2) * s * c, s * s]])
    assert maxabs(source(ensemble) - expected) < 1e-14
    assert not is_unbiased(source(ensemble))


def test_single_state_source_is_the_state():
    rho = np.diag([0.25, 0.75])
    assert maxabs(source(Ensemble((rho,), np.array([1.0]))) - rho) < 1e-14


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


def test_a_priors_stack_of_empty_rows_names_each_row():
    violations = validate_priors_stack(np.zeros((3, 0)), "p").violations
    assert [(v.check, v.residual, v.message) for v in violations] == [
        ("priors_sum", 1.0, f"priors do not sum to 1 (p[{k}])") for k in range(3)
    ]
    assert validate_priors_stack(np.zeros((0, 3)), "p").ok  # no rows, nothing to name


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
    rho = np.eye(2) / 2
    with pytest.raises(ValidationError):
        Ensemble((rho, rho), np.array([0.5, 0.5 + 1e-9]))


def test_negative_prior_rejected():
    rho = np.eye(2) / 2
    with pytest.raises(ValidationError):
        Ensemble((rho, rho), np.array([1.5, -0.5]))


def _checks_raised(report) -> list[str]:
    with pytest.raises(ValidationError) as excinfo:
        report.raise_if_failed()
    return [v.check for v in excinfo.value.violations]


def test_pure_state_norm_enforced():
    assert _checks_raised(validate_state_vector(np.array([1.0, 1.0]))) == ["unit_norm"]


def test_density_operator_invariants_enforced():
    assert _checks_raised(validate_density_matrix(np.diag([1.0, 1.0]))) == ["unit_trace"]
    assert _checks_raised(validate_density_matrix(np.diag([1.5, -0.5]))) == ["psd"]
    assert _checks_raised(validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))) == ["hermiticity"]


def test_povm_completeness_enforced():
    with pytest.raises(ValidationError):
        Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))


def test_values_are_immutable():
    # Derived state vectors and density matrices are returned read-only.
    inst = UdInstance([0.3], [[0.6], [0.4]])
    vectors = retro_basis(inst).vectors[0]
    with pytest.raises(ValueError):
        vectors[0, 0] = 0.0
    rho = no_signaling_check(inst).reduced_a[0]
    with pytest.raises(ValueError):
        rho[0, 0] = 9.0


def test_operator_stacks_are_read_only():
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == np.complex128
    psi = qubit_pair(0.3)
    ensemble = Ensemble([outer(v) for v in psi], np.array([0.4, 0.6]))
    assert ensemble.matrices.shape == (2, 2, 2) and ensemble.matrices.dtype == np.complex128
    assert np.array_equal(ensemble.matrices[1], outer(psi[1]))
    assert ensemble.priors.dtype == np.float64
    for stack in (povm.elements, ensemble.matrices, ensemble.priors):
        with pytest.raises(ValueError):
            stack[(0,) * stack.ndim] = 9.0
    # An (n, d, d) array is taken as the stack, copied.
    states, priors = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])]), np.array([0.5, 0.5])
    ensemble = Ensemble(states, priors)
    states[0, 0, 0], priors[0] = 9.0, 9.0
    assert ensemble.matrices[0, 0, 0] == 0.5 and ensemble.priors[0] == 0.5
    assert (len(ensemble), ensemble.dim) == (2, 2)


def test_projector_matches_outer_product():
    psi = qubit_pair(0.3)
    projectors = Ensemble(outer(psi), np.array([0.5, 0.5])).matrices
    assert maxabs(projectors[0] - np.outer(psi[0], psi[0].conj())) == 0.0
    assert abs(np.trace(projectors[0] @ projectors[0]).real - 1.0) < 1e-12


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
    Ensemble((rho,), [1.0])
    Povm((element, np.eye(dim) - element))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_psd_check_rejects_twice_its_tolerance_below_zero(dim):
    w_min = -2.0 * PSD_TOL
    rho, element = _psd_edge_operators(dim, w_min)
    for build in (lambda: Ensemble((rho,), [1.0]), lambda: Povm((element, np.eye(dim) - element))):
        with pytest.raises(ValidationError) as excinfo:
            build()
        (psd,) = [v for v in excinfo.value.violations if v.check == "psd"]
        assert abs(psd.residual - (-w_min)) <= 1e-15


def _operator(rng, dim, w_min):
    """A Hermitian dim x dim operator with smallest eigenvalue w_min (the others in [0.1, 1]), in a random basis."""
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    m = (u * np.r_[w_min, rng.uniform(0.1, 1.0, dim - 1)]) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _mixed_stack(dim, w_min, bad=2, size=5):
    """A stack of PSD operators whose member bad has smallest eigenvalue w_min."""
    rng = np.random.default_rng(dim)
    return np.array([_operator(rng, dim, w_min if k == bad else 0.0) for k in range(size)])


def _eigvalsh_psd_findings(stack, label):
    """(check, residual, message) of each matrix that eigvalsh alone finds below -PSD_TOL."""
    w = np.linalg.eigvalsh(stack)[:, 0]
    return [("psd", -w[k], f"{label}[{k}] has negative eigenvalue {w[k]:.3e}") for k in np.flatnonzero(w < -PSD_TOL)]


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("w_min", [-2.0 * PSD_TOL, -1.25e-6, -0.5])
def test_the_cholesky_gate_flags_and_names_what_eigvalsh_does(dim, w_min):
    stack = _mixed_stack(dim, w_min)
    report = validate_operator_stack(stack, "op")
    findings = [(v.check, v.residual, v.message) for v in report.violations]
    assert findings == _eigvalsh_psd_findings(stack, "op") and [f[2][:5] for f in findings] == ["op[2]"]


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("w_min", [-0.5 * PSD_TOL, -5e-11, None])
def test_the_cholesky_gate_passes_half_its_tolerance_and_zeros_without_eigvalsh(monkeypatch, dim, w_min):
    # None: the stack's members are zero matrices, as a padded corpus POVM's are.
    stack = np.zeros((3, dim, dim), dtype=complex) if w_min is None else _mixed_stack(dim, w_min)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args))
    assert validate_operator_stack(stack, "op").ok
    assert not calls


def test_the_cholesky_gate_gives_eigvalsh_verdicts_around_its_threshold():
    # Seeded smallest eigenvalues over +-10 PSD_TOL, and densely within 10% of
    # -PSD_TOL, except a relative 1e-3 window around it where roundoff may
    # decide either way.
    rng = np.random.default_rng(2024)
    near = -PSD_TOL * (1.0 + rng.choice([-1.0, 1.0], 200) * rng.uniform(0.0, 0.1, 200))
    targets = np.r_[rng.uniform(-10.0 * PSD_TOL, 10.0 * PSD_TOL, 400), near]
    targets = targets[np.abs(targets / -PSD_TOL - 1.0) > 1e-3]
    dims = rng.choice([2, 3, 4, 8], len(targets))
    verdicts, expected = [], []
    for dim, w_min in zip(dims, targets):
        op = _operator(rng, dim, w_min)[None]
        verdicts.append(validate_operator_stack(op, "op").ok)
        expected.append(not _eigvalsh_psd_findings(op, "op"))
    assert verdicts == expected
    assert 0 < sum(verdicts) < len(verdicts)


def test_ensemble_constructor_and_report_share_their_invariants():
    rho = np.eye(2) / 2
    for states, priors in (
        ((rho, rho), [0.5, 0.4]),
        ((rho,), [0.5, 0.5]),
        ((rho, np.eye(3) / 3), [0.5, 0.5]),
        ((rho, np.eye(3) / 3), [0.5, 0.4]),
        ((), [1.0]),
        ((rho, np.diag([1.5, -0.5])), [0.5, 0.5]),
        (np.array([rho, np.diag([0.7, 0.7])]), [0.5, 0.4]),
    ):
        with pytest.raises(ValidationError) as excinfo:
            Ensemble(states, np.array(priors))
        report = validate_ensemble(states, priors)
        assert [str(v) for v in excinfo.value.violations] == [str(v) for v in report.violations]


def test_huge_trace_reports_unit_trace_without_a_warning():
    # The trace of entries near the float64 limit overflows to inf: a unit_trace
    # violation, not a numpy RuntimeWarning escaping validation.
    huge = [[1e308, 1e308], [1e308, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as excinfo:
            Ensemble((huge,), [1.0])
        report = validate_density_matrix(huge)
    assert "unit_trace" in [v.check for v in excinfo.value.violations]
    assert [v.check for v in report.violations] == [v.check for v in excinfo.value.violations]
