import numpy as np
import pytest

from structcov import InvalidInputError, pd_geometric_mean
from structcov.linalg import chol_pd, dft_matrix, hermitian_eig, pd_sqrt
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

    def test_nonfinite_rejected(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            hermitian_eig(M)

    def test_nonhermitian_rejected(self):
        with pytest.raises(InvalidInputError):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


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

    def test_reads_the_lower_triangle_only(self):
        # callers pass matrices they built Hermitian; the upper triangle is not read
        M = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(chol_pd(np.array([[4.0, 99.0], [2.0, 3.0]])), chol_pd(M))


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
