import numpy as np
import pytest

from structcov import InvalidInputError, pd_geometric_mean
from structcov.linalg import (
    _chol_inverse,
    _chol_logdet,
    _geometric_mean,
    chol_pd,
    dft_matrix,
    hermitian_eig,
    pd_sqrt,
)
from support import rand_hermitian, rand_pd


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0])
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted_descending(self):
        eig = hermitian_eig(np.diag([4.0, 1.0]))
        assert np.allclose(eig.values, [4.0, 1.0])
        # eigenvectors are a signed permutation of the identity
        assert np.allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_reconstruction(self, seed, complex_):
        rng = np.random.default_rng(seed)
        M = rand_hermitian(5, rng, complex_)
        eig = hermitian_eig(M)
        U = eig.vectors
        resid = np.linalg.norm((U * eig.values) @ U.conj().T - M) / np.linalg.norm(M)
        assert resid <= 1e-10
        assert np.all(np.diff(eig.values) <= 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_pd_matrix_has_positive_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        eig = hermitian_eig(rand_pd(6, rng, complex_=bool(seed % 2)))
        assert eig.values[-1] > 0


class TestCholPd:
    def test_identity(self):
        assert np.allclose(chol_pd(np.eye(2)), np.eye(2))

    def test_indefinite_returns_none(self):
        # eigenvalues 3 and -1
        assert chol_pd(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_known_factor(self):
        M = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = chol_pd(M)
        assert np.allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(L @ L.T, M)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pd(self, seed):
        rng = np.random.default_rng(seed)
        M = rand_pd(5, rng, complex_=bool(seed % 2))
        L = chol_pd(M)
        assert L is not None
        assert np.allclose(L @ L.conj().T, M, atol=1e-10)

    def test_one_by_one(self):
        assert np.allclose(chol_pd(np.array([[9.0]])), [[3.0]])
        assert chol_pd(np.array([[-1.0]])) is None

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            chol_pd(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(InvalidInputError):
            chol_pd(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_complex_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            chol_pd(np.array([[1.0, 0.0], [bad, 1.0]], dtype=complex))

    def test_reads_the_lower_triangle_only(self):
        # callers pass matrices they built Hermitian; the upper triangle is not read
        M = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(chol_pd(np.array([[4.0, 99.0], [2.0, 3.0]])), chol_pd(M))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 3, 15, 40])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_numpy_with_a_zero_upper_triangle(self, complex_, k, order):
        M = np.asarray(rand_pd(k, np.random.default_rng(k + 100 * complex_), complex_),
                       order=order)
        L = chol_pd(M)
        ref = np.linalg.cholesky(M)
        assert L.dtype == ref.dtype
        assert np.linalg.norm(L - ref) <= 1e-13 * np.linalg.norm(ref)
        # L @ inner @ L^H in the geometric mean relies on exact zeros above the diagonal
        assert np.all(L[np.triu_indices(k, 1)] == 0.0)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_indefinite_and_rank_deficient_return_none(self, complex_):
        rng = np.random.default_rng(7)
        M = rand_pd(6, rng, complex_)
        M[2, 2] = -1.0  # e_2^H M e_2 < 0
        assert chol_pd(M) is None
        # rank one with integer entries: the second pivot is exactly zero
        v = np.array([1.0, 2.0j, 3.0 - 1.0j]) if complex_ else np.array([1.0, 2.0, 3.0])
        assert chol_pd(np.outer(v, v.conj())) is None


class TestFromTheCholeskyFactor:
    """The inverse, log-determinant and geometric mean taken from A = L L^H."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_inverse_and_logdet_match_lapack(self, k, complex_):
        rng = np.random.default_rng(10 * k + complex_)
        A = rand_pd(k, rng, complex_)
        L = chol_pd(A)
        inv = np.linalg.inv(A)
        assert np.linalg.norm(_chol_inverse(L) - inv) <= 1e-12 * np.linalg.norm(inv)
        logdet = np.linalg.slogdet(A).logabsdet
        assert abs(_chol_logdet(L) - logdet) <= 1e-12 * abs(logdet)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_geometric_mean_solves_its_equation(self, seed, complex_):
        rng = np.random.default_rng(seed)
        A, M = rand_pd(5, rng, complex_), rand_pd(5, rng, complex_)
        X = _geometric_mean(chol_pd(A), M)
        resid = np.linalg.norm(X @ np.linalg.solve(A, X) - M) / np.linalg.norm(M)
        assert resid <= 1e-10
        assert np.array_equal(X, X.conj().T) and np.linalg.eigvalsh(X)[0] > 0


class TestPdSqrt:
    def test_identity(self):
        assert np.allclose(pd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(pd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("complex_", [False, True])
    def test_square_reproduces(self, seed, complex_):
        rng = np.random.default_rng(seed)
        M = rand_pd(4, rng, complex_)
        S = pd_sqrt(M)
        assert np.linalg.norm(S @ S - M) / np.linalg.norm(M) <= 1e-10
        assert np.linalg.eigvalsh(S)[0] > 0

    def test_not_pd_rejected(self):
        with pytest.raises(InvalidInputError):
            pd_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestDftMatrix:
    def test_size_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_size_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(dft_matrix(2), expected, atol=1e-15)

    def test_size_four_unitary(self):
        F = dft_matrix(4)
        assert np.linalg.norm(F @ F.conj().T - np.eye(4)) <= 1e-12

    def test_unitary_exhaustive(self):
        for size in range(1, 65):
            F = dft_matrix(size)
            assert np.linalg.norm(F @ F.conj().T - np.eye(size)) <= 1e-12

    def test_bad_size(self):
        with pytest.raises(InvalidInputError):
            dft_matrix(0)


class TestGeometricMean:
    @pytest.mark.parametrize("seed", range(4))
    def test_defining_equation(self, seed):
        rng = np.random.default_rng(seed)
        A = rand_pd(5, rng)
        M = rand_pd(5, rng)
        X = pd_geometric_mean(A, M)
        resid = np.linalg.norm(X @ np.linalg.solve(A, X) - M) / np.linalg.norm(M)
        assert resid <= 1e-9

    def test_identity_base(self):
        rng = np.random.default_rng(7)
        M = rand_pd(4, rng)
        assert np.allclose(pd_geometric_mean(np.eye(4), M), pd_sqrt(M), atol=1e-10)

    def test_non_hermitian_rejected(self):
        not_hermitian = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(InvalidInputError):
            pd_geometric_mean(np.eye(2), not_hermitian)
        with pytest.raises(InvalidInputError):
            pd_geometric_mean(not_hermitian, np.eye(2))

    def test_non_pd_rejected(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for A, M in ((indefinite, np.eye(2)), (np.eye(2), indefinite)):
            with pytest.raises(InvalidInputError):
                pd_geometric_mean(A, M)
