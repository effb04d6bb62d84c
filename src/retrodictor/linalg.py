"""Dense complex linear algebra for small operators (D <= 8).

Hermitian eigendecomposition is LAPACK's (numpy.linalg.eigh) with a fixed
eigenvector phase convention; identical input gives bit-identical output on
one platform and one numpy/LAPACK build.  Inverse square roots raise
SingularOperator below the source floor MIN_EIG_DEFAULT, whose derivation is
its entry in the tolerances table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonHermitianInput, SingularOperator
from .tolerances import MIN_EIG_DEFAULT, PHASE_PIVOT_TOL, PSD_CLIP_TOL, TOL_HERM


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce to a complex128 square matrix or stack of them (..., d, d), rejecting NaN/Inf entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def dag(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.asarray(matrix).conj().swapaxes(-1, -2)


def outer(v: np.ndarray) -> np.ndarray:
    """The projector |v><v| of each vector of a stack."""
    v = np.asarray(v, dtype=np.complex128)
    return v[..., :, None] * v.conj()[..., None, :]


def maxabs(matrix: np.ndarray) -> float:
    """Max-abs entry norm."""
    return float(np.max(np.abs(matrix), initial=0.0))


def maxabs_each(matrices: np.ndarray) -> np.ndarray:
    """Max-abs entry norm of each matrix of a (..., d, d) stack."""
    return np.abs(matrices).max(axis=(-2, -1))


def norm_each(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector of a (..., d) stack."""
    return np.sqrt((np.abs(vectors) ** 2).sum(axis=-1))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, or of each operator of a stack.

    eigenvalues (..., d) are real and ascending; eigenvectors[..., :, k] is the
    unit eigenvector paired with eigenvalues[..., k], with its first component
    of magnitude > PHASE_PIVOT_TOL made real and positive on construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vectors = self.eigenvectors
        pivots = np.argmax(np.abs(vectors) > PHASE_PIVOT_TOL, axis=-2)
        pv = np.take_along_axis(vectors, pivots[..., None, :], axis=-2)
        object.__setattr__(self, "eigenvectors", vectors * (np.conj(pv) / np.abs(pv)))
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    def map(
        self,
        f: Callable[[np.ndarray], np.ndarray],
        min_eig: float | None = None,
        support_restricted: bool = False,
    ) -> np.ndarray:
        """Apply a real function, elementwise on an eigenvalue array (a ufunc), to the operator.

        The one matrix-function body.  For f with a pole at 0, pass min_eig:
        eigenvalues below it raise SingularOperator, which names the rows of
        a stack that hold them. With support_restricted=True, those at most
        PSD_CLIP_TOL (zero up to roundoff) are mapped to 0 instead (f never
        sees them), so f acts on the operator's support only; this mode
        deviates from the underlying theory, which assumes an invertible source.
        """
        vals = self.eigenvalues
        small = vals < (-math.inf if min_eig is None else min_eig)
        dropped = small & (vals <= PSD_CLIP_TOL) & support_restricted
        raising = small & ~dropped
        if np.any(raising):
            message = f"eigenvalue {vals[raising].min():.3e} below min_eig {min_eig:.3e}"
            raise SingularOperator(message, np.argwhere(raising.any(axis=-1)))
        mapped = np.where(dropped, 0.0, f(np.where(dropped, 1.0, vals)))
        out = (self.eigenvectors * mapped[..., None, :]) @ dag(self.eigenvectors)
        return (out + dag(out)) / 2.0

    def sqrt(self) -> np.ndarray:
        """Square root of a PSD operator (eigenvalues in [-PSD_CLIP_TOL, 0) clipped)."""
        negative = self.eigenvalues[..., 0] < -PSD_CLIP_TOL
        if np.any(negative):
            w_min = self.eigenvalues[..., 0].min()
            raise SingularOperator(f"matrix is not PSD: min eigenvalue {w_min:.3e}", np.argwhere(negative))
        return self.map(lambda w: np.sqrt(np.maximum(w, 0.0)))

    def inv_sqrt(self, min_eig: float = MIN_EIG_DEFAULT, support_restricted: bool = False):
        """Inverse square root of a positive definite operator (see map for min_eig)."""
        return self.map(lambda w: 1.0 / np.sqrt(w), min_eig, support_restricted)


def hermitian_eig(matrix) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack, by LAPACK (numpy.linalg.eigh).

    The input is checked for Hermiticity (NonHermitianInput beyond TOL_HERM)
    and symmetrised first, halved before adding so as not to overflow;
    LAPACK's arbitrary eigenvector phases are then fixed by the Spectrum convention.
    """
    a = as_complex_matrix(matrix)
    residual = maxabs(a - dag(a))
    if residual > TOL_HERM:
        raise NonHermitianInput(f"Hermiticity residual {residual:.3e} exceeds {TOL_HERM:.3e}")
    return Spectrum(*np.linalg.eigh(a / 2.0 + dag(a) / 2.0))


def sqrtm_psd(matrix) -> np.ndarray:
    """Square root of a PSD Hermitian matrix (eigenvalues in [-PSD_CLIP_TOL, 0) clipped)."""
    return hermitian_eig(matrix).sqrt()


def inv_sqrtm_psd(
    matrix,
    min_eig: float = MIN_EIG_DEFAULT,
    support_restricted: bool = False,
) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix (see Spectrum.map)."""
    return hermitian_eig(matrix).inv_sqrt(min_eig, support_restricted)
