"""Dense Hermitian linear algebra used by all estimators.

Everything here works for both real symmetric and complex Hermitian
matrices; ``conj().T`` is a no-op on real input. Matrices are plain
ndarrays, real float64 or complex128.

A positive definite A is factored once, A = L L^H (:func:`chol_pd`), and its
inverse, log-determinant and geometric mean come from L alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .exceptions import InvalidInputError, NumericalFailureError


def as_field_array(arr, name: str = "array") -> np.ndarray:
    """Cast to float64 or complex128 and require finite entries."""
    arr = np.asarray(arr)
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.asarray(arr, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize to kill floating-point asymmetry of an almost-Hermitian matrix."""
    return 0.5 * (M + M.conj().T)


def check_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is square and Hermitian within 1e-10 relative (Frobenius)."""
    M = as_field_array(M, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if scale > 0 and np.linalg.norm(M - M.conj().T) > 1e-10 * scale:
        raise InvalidInputError(f"{name} is not Hermitian")
    return M


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition with eigenvalues sorted in descending order."""

    values: np.ndarray   # real, descending
    vectors: np.ndarray  # unitary, columns match ``values``


def hermitian_eig(M) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Parameters
    ----------
    M : ndarray, shape (k, k)
        Hermitian (real symmetric or complex Hermitian) matrix, trusted:
        callers check their input first.

    Returns
    -------
    EigenDecomposition
        ``values`` sorted descending, ``vectors`` unitary, such that
        ``vectors @ diag(values) @ vectors.conj().T`` reproduces ``M``.
    """
    values, vectors = np.linalg.eigh(M)
    return EigenDecomposition(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def chol_pd(M, name: str = "matrix") -> np.ndarray | None:
    """Lower Cholesky factor of ``M``, or None when ``M`` is not positive definite.

    One LAPACK ``potrf`` call for the field of ``M``; the factor's upper
    triangle is zero. ``M`` is trusted to be Hermitian: only its lower
    triangle is read.
    Non-finite entries raise InvalidInputError; the None return is a value
    used for feasibility checks, not an error.
    """
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    potrf = lapack.zpotrf if np.iscomplexobj(M) else lapack.dpotrf
    L, info = potrf(M, lower=1, clean=1)
    if info < 0:
        raise NumericalFailureError("Cholesky factorization failed", info=int(info))
    return L if info == 0 else None


def _spans(columns) -> bool:
    """Whether the K x n ``columns`` span the whole space.

    Every sum of their outer products with positive weights is then
    positive definite. Scaled to unit length, they span when there are at
    least K of them and their Gram matrix has a Cholesky factor; a zero
    column stays zero.
    """
    k, n = columns.shape
    if n < k:
        return False
    norms = np.linalg.norm(columns, axis=0)
    unit = columns / np.where(norms > 0.0, norms, 1.0)
    return chol_pd(unit @ unit.conj().T) is not None


def pd_sqrt(M) -> np.ndarray:
    """Unique positive definite square root of a positive definite matrix."""
    eig = hermitian_eig(M)
    if eig.values[-1] <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    U, r = eig.vectors, np.sqrt(eig.values)
    return hermitize((U * r) @ U.conj().T)


def _tri_inverse(L) -> np.ndarray:
    """L^{-1} of a lower Cholesky factor L, whose diagonal is positive."""
    return (lapack.ztrtri if np.iscomplexobj(L) else lapack.dtrtri)(L, lower=1)[0]


def _chol_inverse(L) -> np.ndarray:
    """A^{-1} = L^{-H} L^{-1} of A = L L^H, from its lower Cholesky factor L."""
    L_inv = _tri_inverse(L)
    return L_inv.conj().T @ L_inv


def _chol_logdet(L) -> float:
    """log det A = 2 sum_i log L_ii of A = L L^H, from its lower Cholesky factor L."""
    return float(2.0 * np.log(L.diagonal().real).sum())


def pd_geometric_mean(A, M) -> np.ndarray:
    """Matrix geometric mean of PD matrices: the PD solution X of X A^{-1} X = M."""
    A, M = check_hermitian(A, "A"), check_hermitian(M, "M")
    L = chol_pd(A, "A")
    if L is None:
        raise InvalidInputError("A is not positive definite")
    return _geometric_mean(L, M)


def _geometric_mean(L, M) -> np.ndarray:
    """:func:`pd_geometric_mean` of A = L L^H and M by congruence: L (L^{-1} M L^{-H})^{1/2} L^H."""
    L_inv = _tri_inverse(L)
    inner = pd_sqrt(hermitize(L_inv @ M @ L_inv.conj().T))
    return hermitize(L @ inner @ L.conj().T)


def dft_matrix(L: int) -> np.ndarray:
    """Unitary discrete Fourier transform matrix of size L.

    Entry (m, n) is ``exp(-2j*pi*m*n/L) / sqrt(L)``.
    """
    if L < 1:
        raise InvalidInputError("DFT size must be at least 1")
    idx = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / L) / np.sqrt(L)
