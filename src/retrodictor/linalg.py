"""Dense complex linear algebra for small operators (D <= 8).

Hermitian eigendecomposition is done with cyclic complex Jacobi rotations
rather than LAPACK: for the small dimensions used here it is robust, and the
fixed sweep order plus a fixed eigenvector phase convention make the output
bit-deterministic for identical input, which the closed-form comparisons and
the reproducible reports rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonHermitianInput, NumericIntegrityError, SingularOperator

TOL_HERM = 1e-12
# The source-eigenvalue floor: inverse square roots raise SingularOperator for
# an eigenvalue below it, and sqrtm_psd clips eigenvalues in [-floor, 0) to 0.
MIN_EIG_DEFAULT = 1e-10

# Jacobi sweep control: converged when the off-diagonal Frobenius mass drops
# below this (relative to the matrix scale for inputs with norm > 1).
_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

# Components smaller than this are ignored when picking the entry that fixes
# each eigenvector's global phase (unit vectors always have one >= 1/sqrt(D)).
_PHASE_PIVOT_TOL = 1e-8


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Max-abs deviation of a matrix from its conjugate transpose."""
    return float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0))


def require_hermitian(matrix, tol: float = TOL_HERM) -> np.ndarray:
    """Return the input as a complex array, raising NonHermitianInput beyond tol."""
    m = as_complex_matrix(matrix)
    res = hermiticity_residual(m)
    if res > tol:
        raise NonHermitianInput(f"Hermiticity residual {res:.3e} exceeds {tol:.3e}")
    return m


def dag(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(matrix).conj().T


def outer(v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Outer product v w^dag (projector |v><v| when w is omitted)."""
    v = np.asarray(v, dtype=np.complex128)
    w = v if w is None else np.asarray(w, dtype=np.complex128)
    return np.outer(v, w.conj())


def maxabs(matrix: np.ndarray) -> float:
    """Max-abs entry norm."""
    return float(np.max(np.abs(matrix), initial=0.0))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    eigenvalues are real and ascending; eigenvectors[:, k] is the unit
    eigenvector paired with eigenvalues[k], with its first component of
    magnitude > 1e-8 made real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted eigenprojectors."""
        return (self.eigenvectors * self.eigenvalues) @ dag(self.eigenvectors)


def _jacobi_rotation(tau: float) -> tuple[float, float]:
    """Cosine/sine of the rotation annihilating an off-diagonal pair."""
    # Smaller-magnitude root of t^2 - 2*tau*t - 1 = 0; hypot avoids overflow.
    if tau >= 0.0:
        t = -1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = 1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c


def hermitian_eig(matrix, tol: float = TOL_HERM) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi sweeps.

    Deterministic for identical input: fixed pivot order (row-major upper
    triangle), convergence at off-diagonal Frobenius mass < 1e-14 (relative to
    the Frobenius norm for large inputs), at most 100 sweeps.
    """
    a = require_hermitian(matrix, tol)
    a = (a + dag(a)) / 2.0
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    if d == 1:
        return Spectrum(np.array([a[0, 0].real]), v)

    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = _JACOBI_OFF_TOL * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        offdiag = a - np.diag(np.diag(a))
        off = float(np.linalg.norm(offdiag))
        if off < threshold:
            break
        negligible = 1e-18 * scale
        for p in range(d - 1):
            for q in range(p + 1, d):
                g = a[p, q]
                absg = abs(g)
                if absg <= negligible:
                    # Zeroing instead of rotating keeps tau/phase finite.
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                phase = g / absg
                c, s = _jacobi_rotation((a[q, q].real - a[p, p].real) / (2.0 * absg))
                # A <- R^dag A R with R[p,p]=R[q,q]=c, R[p,q]=-s*phase, R[q,p]=s*conj(phase).
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p + s * np.conj(phase) * vcol_q
                v[:, q] = -s * phase * vcol_p + c * vcol_q
    else:
        raise NumericIntegrityError(
            f"Jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )

    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    for k in range(d):
        col = vectors[:, k]
        pivots = np.flatnonzero(np.abs(col) > _PHASE_PIVOT_TOL)
        if pivots.size == 0:
            raise NumericIntegrityError("eigenvector lost unit norm during sweeps")
        pv = col[pivots[0]]
        vectors[:, k] = col * (np.conj(pv) / abs(pv))
    return Spectrum(eigenvalues, vectors)


def spectral_map(
    matrix,
    f: Callable[[float], float],
    min_eig: float | None = None,
    support_restricted: bool = False,
) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    For f with a pole at 0, pass min_eig: eigenvalues below it either raise
    SingularOperator (default) or, with support_restricted=True, are mapped to
    0 so that f acts on the operator's support only. The latter deviates from
    the underlying theory, which assumes an invertible source.
    """
    spec = hermitian_eig(matrix)
    vals = spec.eigenvalues
    if min_eig is not None:
        small = vals < min_eig
        if np.any(small) and not support_restricted:
            raise SingularOperator(
                f"eigenvalue {vals.min():.3e} below min_eig {min_eig:.3e}"
            )
        mapped = np.array([0.0 if s else float(f(w)) for w, s in zip(vals, small)])
    else:
        mapped = np.array([float(f(w)) for w in vals])
    out = (spec.eigenvectors * mapped) @ dag(spec.eigenvectors)
    return (out + dag(out)) / 2.0


def sqrtm_psd(matrix, psd_tol: float = MIN_EIG_DEFAULT) -> np.ndarray:
    """Square root of a PSD Hermitian matrix (eigenvalues in [-psd_tol, 0) clipped)."""
    spec = hermitian_eig(matrix)
    if spec.eigenvalues[0] < -psd_tol:
        raise SingularOperator(
            f"matrix is not PSD: min eigenvalue {spec.eigenvalues[0]:.3e}"
        )
    vals = np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    out = (spec.eigenvectors * vals) @ dag(spec.eigenvectors)
    return (out + dag(out)) / 2.0


def inv_sqrtm_psd(
    matrix,
    min_eig: float = MIN_EIG_DEFAULT,
    support_restricted: bool = False,
) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix."""
    return spectral_map(
        matrix,
        lambda w: 1.0 / math.sqrt(w),
        min_eig=min_eig,
        support_restricted=support_restricted,
    )


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eig(matrix).eigenvalues[0])


def is_psd(matrix, tol: float = 1e-10) -> bool:
    """True iff the Hermitian matrix has min eigenvalue >= -tol."""
    return min_eigenvalue(matrix) >= -tol


def partial_trace(matrix, dims: tuple[int, int], trace_out: int) -> np.ndarray:
    """Partial trace of an operator on a (dims[0] * dims[1])-dimensional product space.

    trace_out=0 removes the first factor, trace_out=1 the second.
    """
    da, db = dims
    m = as_complex_matrix(matrix)
    if m.shape[0] != da * db:
        raise ValueError(f"operator dim {m.shape[0]} != {da}*{db}")
    t = m.reshape(da, db, da, db)
    if trace_out == 0:
        return np.einsum("ijik->jk", t)
    if trace_out == 1:
        return np.einsum("ijkj->ik", t)
    raise ValueError("trace_out must be 0 or 1")
