import numpy as np
import pytest

from structcov import (
    InvalidInputError,
    LinearStructure,
    MMSettings,
    banded_toeplitz_basis,
    diagonal_basis,
    estimate_linear,
    full_symmetric_basis,
    hermitian_basis,
    sample_elliptical,
    stationarity_residual,
    structure_from_name,
    toeplitz_basis,
    tyler_unconstrained,
)
from structcov.linear import _surrogate_pieces, inner_update, surrogate_gradient
from structcov.simulate import ar_cov, nmse
from support import (
    coordinate_descent_linear,
    linear_surrogate_naive,
    nonincreasing,
    rand_pd,
)


def _feasible_point(struct, rng, spread=0.3):
    """Random coefficients near the structure's default feasible point."""
    for _ in range(100):
        a = struct.init_coeffs * (1.0 + spread * rng.standard_normal(struct.size))
        R = struct.assemble(a)
        if np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0] > 1e-6:
            return a
    raise AssertionError("could not draw a feasible point")


def _interior_point(struct, rng, spread=0.1):
    """The default feasible point plus an additive perturbation of every coefficient."""
    for _ in range(100):
        a = struct.init_coeffs + spread * rng.standard_normal(struct.size)
        R = struct.assemble(a)
        if np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0] > 1e-3:
            return a
    raise AssertionError("could not draw a feasible point")


def _pieces_inputs(name, seed):
    """(struct, coeffs, Wt, M): a real Toeplitz or a complex Hermitian surrogate."""
    rng = np.random.default_rng(seed)
    complex_ = name == "hermitian"
    struct = hermitian_basis(3) if complex_ else toeplitz_basis(5)
    Wt = np.linalg.inv(rand_pd(struct.dim, rng, complex_))
    M = rand_pd(struct.dim, rng, complex_, ridge=1.0)
    return struct, _interior_point(struct, rng), Wt, M


class TestPresets:
    @pytest.mark.parametrize("name", ["toeplitz", "banded:2", "diagonal", "full", "circulant"])
    def test_presets_contain_identity(self, name):
        struct = structure_from_name(name, 6)
        R0 = struct.assemble(struct.init_coeffs)
        assert np.allclose(R0, np.eye(6), atol=1e-10)

    def test_basis_counts(self):
        k = 6
        assert toeplitz_basis(k).size == k
        assert banded_toeplitz_basis(k, 2).size == 3
        assert diagonal_basis(k).size == k
        assert full_symmetric_basis(k).size == k * (k + 1) // 2
        assert hermitian_basis(k).size == k * k

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            structure_from_name("wat", 4)
        with pytest.raises(InvalidInputError):
            structure_from_name("banded:x", 4)

    def test_dependent_basis_rejected(self):
        B = np.stack([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(InvalidInputError):
            LinearStructure(basis=B)

    def test_indefinite_init_rejected(self):
        B = np.zeros((1, 2, 2))
        B[0] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite span
        with pytest.raises(InvalidInputError):
            LinearStructure(basis=B, init_coeffs=np.array([1.0]))

    def test_infinite_init_coeffs_rejected(self):
        # checked as for estimate_linear(init_coeffs=...), before R(a) is assembled
        with pytest.raises(InvalidInputError):
            LinearStructure(
                basis=banded_toeplitz_basis(4, 2).basis, init_coeffs=[np.inf, 0.0, 0.0]
            )

    def test_custom_hermitian_structure(self):
        rng = np.random.default_rng(0)
        base = [np.eye(3, dtype=complex)]
        H = np.zeros((3, 3), dtype=complex)
        H[0, 1] = 1 + 1j
        H[1, 0] = 1 - 1j
        base.append(H)
        struct = LinearStructure(basis=np.stack(base), init_coeffs=np.array([1.0, 0.0]))
        assert struct.dim == 3


class TestInnerUpdate:
    def test_identity_basis_closed_form(self):
        # f(a) = a Tr(R_t^{-1}) + Tr(M)/a minimized at sqrt(Tr(M)/Tr(R_t^{-1}))
        k, r, m = 4, 2.0, 3.0
        struct = LinearStructure(basis=np.eye(k)[None, :, :], init_coeffs=np.array([1.0]))
        a = inner_update(struct, np.array([1.0]), np.linalg.inv(r * np.eye(k)), m * np.eye(k))
        expected = np.sqrt((m * k) / (k / r))
        # accuracy implied by the 1e-8 gradient stopping rule
        assert a[0] == pytest.approx(expected, rel=1e-6)

    def test_diagonal_closed_form(self):
        struct = diagonal_basis(2)
        a = inner_update(struct, np.array([1.0, 1.0]), np.eye(2), np.diag([4.0, 9.0]))
        assert np.allclose(a, [2.0, 3.0], rtol=1e-9)

    def test_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(10)
        struct = toeplitz_basis(4)
        R_t = rand_pd(4, rng)
        M_t = rand_pd(4, rng, ridge=1.0)
        start = struct.init_coeffs
        a_newton = inner_update(struct, start, np.linalg.inv(R_t), M_t)
        a_oracle = coordinate_descent_linear(struct, start, R_t, M_t)
        f_newton = linear_surrogate_naive(struct, a_newton, R_t, M_t)
        f_oracle = linear_surrogate_naive(struct, a_oracle, R_t, M_t)
        assert f_newton <= f_oracle + 1e-8
        assert abs(f_newton - f_oracle) <= 1e-8

    def test_descent_and_gradient_tolerance(self):
        rng = np.random.default_rng(11)
        struct = toeplitz_basis(5)
        R_t = rand_pd(5, rng)
        M_t = rand_pd(5, rng, ridge=1.0)
        start = _feasible_point(struct, rng)
        a = inner_update(struct, start, np.linalg.inv(R_t), M_t)
        f0 = linear_surrogate_naive(struct, start, R_t, M_t)
        f1 = linear_surrogate_naive(struct, a, R_t, M_t)
        assert f1 <= f0 + 1e-12
        g = surrogate_gradient(struct, a, R_t, M_t)
        assert np.linalg.norm(g) <= 1e-7 * (1.0 + abs(f1))

    def test_singular_weight_matrix_uses_barrier(self):
        # rank-deficient M_t keeps a usable minimizer thanks to the barrier
        struct = diagonal_basis(3)
        M = np.diag([1.0, 1.0, 0.0])
        a = inner_update(struct, np.ones(3), np.eye(3), M)
        assert np.all(np.isfinite(a))
        f_start = linear_surrogate_naive(struct, np.ones(3), np.eye(3), M)
        f_end = linear_surrogate_naive(struct, a, np.eye(3), M)
        assert f_end <= f_start + 1e-9


class TestDerivatives:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        struct = toeplitz_basis(5)
        R_t = rand_pd(5, rng)
        M_t = rand_pd(5, rng, ridge=1.0)
        a = _feasible_point(struct, rng)
        g = surrogate_gradient(struct, a, R_t, M_t)
        h = 1e-6
        for j in range(struct.size):
            e = np.zeros(struct.size)
            e[j] = h
            fd = (
                linear_surrogate_naive(struct, a + e, R_t, M_t)
                - linear_surrogate_naive(struct, a - e, R_t, M_t)
            ) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_hessian_psd_on_feasible_points(self):
        rng = np.random.default_rng(300)
        struct = toeplitz_basis(5)
        M_t = rand_pd(5, rng, ridge=1.0)
        for _ in range(50):
            a = _feasible_point(struct, rng)
            H = _surrogate_pieces(struct, a, np.eye(5), M_t, 0.0)[2]
            assert np.linalg.eigvalsh(H)[0] >= -1e-8


class TestSurrogatePieces:
    """The value, gradient and Hessian that the inner Newton solve uses."""

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian"])
    def test_hessian_matches_reference_loop(self, name, mu):
        struct, a, Wt, M = _pieces_inputs(name, 400)
        _, _, H = _surrogate_pieces(struct, a, Wt, M, mu)
        W = np.linalg.inv(struct.assemble(a))
        B = struct.basis
        ref = np.zeros((struct.size, struct.size))
        for l in range(struct.size):
            for m in range(struct.size):
                ref[l, m] = 2.0 * np.trace(W @ M @ W @ B[l] @ W @ B[m]).real
                ref[l, m] += mu * np.trace(W @ B[l] @ W @ B[m]).real
        assert np.max(np.abs(H - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian"])
    def test_derivatives_match_central_differences(self, name, mu):
        struct, a, Wt, M = _pieces_inputs(name, 500)
        _, grad, H = _surrogate_pieces(struct, a, Wt, M, mu)
        h = 1e-5
        for j in range(struct.size):
            e = np.zeros(struct.size)
            e[j] = h
            f_plus, g_plus, _ = _surrogate_pieces(struct, a + e, Wt, M, mu)
            f_minus, g_minus, _ = _surrogate_pieces(struct, a - e, Wt, M, mu)
            assert grad[j] == pytest.approx((f_plus - f_minus) / (2 * h), rel=1e-6, abs=1e-8)
            fd = (g_plus - g_minus) / (2 * h)
            assert np.max(np.abs(H[:, j] - fd)) <= 1e-6 * np.max(np.abs(H))

    def test_infeasible_point(self):
        struct, a, Wt, M = _pieces_inputs("toeplitz", 600)
        assert _surrogate_pieces(struct, -a, Wt, M, 0.0) is None


class TestEstimateLinear:
    def test_full_basis_matches_unconstrained(self):
        X = sample_elliptical(ar_cov(5, 0.5), 50, seed=20)
        struct = full_symmetric_basis(5)
        res = estimate_linear(struct, X)
        ref = tyler_unconstrained(X)
        assert np.linalg.norm(res.scatter - ref.scatter) <= 1e-6

    def test_hermitian_basis_matches_unconstrained_complex(self):
        truth = rand_pd(4, np.random.default_rng(26), complex_=True)
        X = sample_elliptical(truth, 50, seed=26)
        assert X.is_complex
        res = estimate_linear(hermitian_basis(4), X)
        ref = tyler_unconstrained(X)
        assert res.termination == "converged"
        assert np.linalg.norm(res.scatter - ref.scatter) <= 1e-6

    def test_diagonal_structure(self):
        truth = np.diag([5.0, 3.0, 2.0, 1.0, 0.5])
        truth = truth / np.trace(truth)
        X = sample_elliptical(truth, 200, seed=21)
        res = estimate_linear(diagonal_basis(5), X)
        off = res.scatter - np.diag(np.diag(res.scatter))
        assert np.all(off == 0.0)
        assert nmse([res.scatter], truth) <= 0.05

    def test_structure_membership_and_trace(self):
        X = sample_elliptical(ar_cov(6, 0.6), 80, seed=22)
        struct = toeplitz_basis(6)
        res = estimate_linear(struct, X)
        rebuilt = struct.assemble(res.params)
        assert np.max(np.abs(rebuilt - res.scatter)) <= 1e-12
        assert abs(np.trace(res.scatter) - 1.0) <= 1e-12

    def test_descent_and_stationarity(self):
        X = sample_elliptical(ar_cov(6, 0.7), 90, seed=23)
        struct = toeplitz_basis(6)
        res = estimate_linear(struct, X, MMSettings(tol=1e-9, max_iter=2000))
        assert nonincreasing(res.objective_trace)
        assert res.termination == "converged"
        assert stationarity_residual(struct, res.scatter, X) <= 1e-5

    def test_dimension_mismatch(self):
        X = sample_elliptical(ar_cov(4, 0.5), 40, seed=24)
        with pytest.raises(InvalidInputError):
            estimate_linear(toeplitz_basis(5), X)

    def test_undersampled_rejected(self):
        X = sample_elliptical(ar_cov(6, 0.5), 5, seed=25)
        with pytest.raises(InvalidInputError):
            estimate_linear(toeplitz_basis(6), X)

    @pytest.mark.parametrize(
        "init",
        [
            [1.0, 2.0, 0.0],  # unit diagonal, correlation 2: not positive definite
            [-1.0, 0.0, 0.0],  # negative trace
            [0.0, 1.0, 0.0],  # zero trace
            [np.nan, 0.0, 0.0],
            [np.inf, 0.0, 0.0],
            [1.0, 0.0],  # one coefficient short
        ],
    )
    def test_infeasible_init_coeffs_rejected(self, init):
        X = sample_elliptical(ar_cov(4, 0.5), 30, seed=27)
        with pytest.raises(InvalidInputError):
            estimate_linear(banded_toeplitz_basis(4, 2), X, init_coeffs=init)
