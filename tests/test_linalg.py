import math

import numpy as np
import pytest

from retrodictor.errors import NonHermitianInput, SingularOperator
from retrodictor.linalg import (
    MIN_EIG_DEFAULT,
    dag,
    hermitian_eig,
    inv_sqrtm_psd,
    maxabs,
    outer,
    sqrtm_psd,
)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_pauli_x_spectrum():
    spec = hermitian_eig([[0, 1], [1, 0]])
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    # phase convention: first component real positive
    assert spec.eigenvectors[0, 0].real > 0
    assert spec.eigenvectors[0, 1].real > 0
    assert maxabs((spec.eigenvectors * spec.eigenvalues) @ dag(spec.eigenvectors) - np.array([[0, 1], [1, 0]])) < 1e-14


def test_identity_is_degenerate_but_orthonormal():
    spec = hermitian_eig(np.eye(2))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0])
    gram = dag(spec.eigenvectors) @ spec.eigenvectors
    assert maxabs(gram - np.eye(2)) < 1e-10


def test_ud_source_eigenvalues_match_closed_form():
    # eta = (1/2, 1/2), half-angle pi/8: w = (1 +- sqrt(1 - sin^2(2a))) / 2,
    # evaluated independently = (0.8535533905932737, 0.1464466094067262).
    a = math.pi / 8
    c, s = math.cos(a), math.sin(a)
    om = np.array([[c * c, 0.0], [0.0, s * s]])
    spec = hermitian_eig(om)
    assert abs(spec.eigenvalues[0] - 0.1464466094067262) < 1e-12
    assert abs(spec.eigenvalues[1] - 0.8535533905932737) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig([[0, 1], [0, 0]])


def test_eig_rejects_non_finite():
    with pytest.raises(ValueError):
        hermitian_eig([[np.nan, 0], [0, 1]])


def test_eig_deterministic_bitwise():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 6)
    s1 = hermitian_eig(h)
    s2 = hermitian_eig(h)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eig_reconstruction_property():
    # 1000 seeded trials, D <= 8: reconstruction error < 1e-10, and every
    # eigenvector's first component above 1e-8 is real and positive.
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        h = random_hermitian(rng, d)
        spec = hermitian_eig(h)
        worst = max(worst, maxabs((spec.eigenvectors * spec.eigenvalues) @ dag(spec.eigenvectors) - h))
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        gram = dag(spec.eigenvectors) @ spec.eigenvectors
        assert maxabs(gram - np.eye(d)) < 1e-10
        for k in range(d):
            col = spec.eigenvectors[:, k]
            pivot = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15
    assert worst < 1e-10


def test_spectral_map_sqrt_examples():
    out = hermitian_eig(np.diag([4.0, 9.0])).map(np.sqrt)
    assert maxabs(out - np.diag([2.0, 3.0])) < 1e-12
    out = inv_sqrtm_psd(np.eye(2) / 2)
    assert maxabs(out - math.sqrt(2) * np.eye(2)) < 1e-12


def test_spectral_map_roundtrip_recovers_source():
    e1, e2, a = 0.7, 0.3, math.pi / 6
    c, s = math.cos(a), math.sin(a)
    om = np.array([[c * c, (e1 - e2) * s * c], [(e1 - e2) * s * c, s * s]])
    spectrum = hermitian_eig(om)
    inv_root = spectrum.map(lambda w: 1.0 / np.sqrt(w), min_eig=MIN_EIG_DEFAULT)
    squared = inv_root @ inv_root
    recovered = np.linalg.inv(squared)
    assert maxabs(recovered - om) < 1e-10
    root = spectrum.sqrt()
    assert maxabs(root @ root - om) < 1e-10


def test_sqrt_square_property():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p = g @ g.conj().T
        root = sqrtm_psd(p)
        assert maxabs(root @ root - p) < 1e-9


def test_inv_sqrt_whitening_property():
    rng = np.random.default_rng(78)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        p = g @ g.conj().T + 1e-6 * np.eye(d)
        inv_root = inv_sqrtm_psd(p)
        assert maxabs(inv_root @ p @ inv_root - np.eye(d)) < 1e-9


def test_pole_function_on_singular_operator_raises():
    with pytest.raises(SingularOperator):
        inv_sqrtm_psd(np.diag([1.0, 0.0]))


def test_support_restricted_mode_acts_on_support_only():
    out = inv_sqrtm_psd(np.diag([4.0, 0.0]), support_restricted=True)
    assert maxabs(out - np.diag([0.5, 0.0])) < 1e-12


def test_is_psd_examples():
    assert np.linalg.eigvalsh(np.eye(2))[0] >= -1e-10
    assert not np.linalg.eigvalsh(np.diag([1.0, -1.0]))[0] >= -1e-10


def test_is_psd_on_optimal_failure_state():
    # mu_0 rho_0^ret at the optimum: PSD with min eigenvalue ~ 0 (det = 0).
    e1, e2, s = 0.6, 0.4, 0.5
    cross = math.sqrt(e1 * e2) * s
    weighted = np.array([[cross, cross], [cross, cross]])
    assert np.linalg.eigvalsh(weighted)[0] >= -1e-10
    assert abs(hermitian_eig(weighted).eigenvalues[0]) < 1e-12


def test_outer_product():
    v = np.array([1.0, 1j]) / math.sqrt(2)
    p = outer(v)
    assert maxabs(p - np.array([[0.5, -0.5j], [0.5j, 0.5]])) < 1e-14
