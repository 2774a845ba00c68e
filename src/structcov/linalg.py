"""Dense Hermitian linear algebra used by all estimators.

Everything here works for both real symmetric and complex Hermitian
matrices; ``conj().T`` is a no-op on real input. Matrices are plain
ndarrays, real float64 or complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError


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
        Hermitian (real symmetric or complex Hermitian) matrix.

    Returns
    -------
    EigenDecomposition
        ``values`` sorted descending, ``vectors`` unitary, such that
        ``vectors @ diag(values) @ vectors.conj().T`` reproduces ``M``.
    """
    M = check_hermitian(M)
    values, vectors = np.linalg.eigh(M)
    return EigenDecomposition(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def chol_pd(M, name: str = "matrix") -> np.ndarray | None:
    """Lower Cholesky factor of ``M``, or None when ``M`` is not positive definite.

    ``M`` is trusted to be Hermitian: only its lower triangle is read.
    Non-finite entries raise InvalidInputError; the None return is a value
    used for feasibility checks, not an error.
    """
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _eigen_root(M) -> tuple[np.ndarray, np.ndarray]:
    """(U, sqrt(lambda)) of a positive definite M = U diag(lambda) U^H."""
    eig = hermitian_eig(M)
    if eig.values[-1] <= 0.0:
        raise InvalidInputError("matrix is not positive definite")
    return eig.vectors, np.sqrt(eig.values)


def pd_sqrt(M) -> np.ndarray:
    """Unique positive definite square root of a positive definite matrix."""
    U, r = _eigen_root(M)
    return hermitize((U * r) @ U.conj().T)


def pd_geometric_mean(A, M) -> np.ndarray:
    """Matrix geometric mean of PD matrices: the PD solution X of X A^{-1} X = M."""
    U, r = _eigen_root(A)
    A_half, A_half_inv = hermitize((U * r) @ U.conj().T), hermitize((U / r) @ U.conj().T)
    inner = pd_sqrt(hermitize(A_half_inv @ check_hermitian(M, "M") @ A_half_inv))
    return hermitize(A_half @ inner @ A_half)


def dft_matrix(L: int) -> np.ndarray:
    """Unitary discrete Fourier transform matrix of size L.

    Entry (m, n) is ``exp(-2j*pi*m*n/L) / sqrt(L)``.
    """
    if L < 1:
        raise InvalidInputError("DFT size must be at least 1")
    idx = np.arange(L)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / L) / np.sqrt(L)
