import numpy as np
import pytest

from structcov import (
    InvalidInputError,
    LinearStructure,
    MMSettings,
    NumericalFailureError,
    SampleSet,
    banded_toeplitz_basis,
    circulant_basis,
    diagonal_basis,
    estimate_linear,
    full_symmetric_basis,
    hermitian_basis,
    sample_elliptical,
    stationarity_residual,
    structure_from_name,
    toeplitz_basis,
    tyler_cost,
    tyler_unconstrained,
)
from structcov.linear import (
    PowerBound,
    _basis_traces,
    _surrogate_gradient,
    _surrogate_hessian,
    _surrogate_pieces,
    _surrogate_value,
    inner_update,
    surrogate_gradient,
)
from structcov.linalg import chol_pd
from structcov.rankone import power_update
from structcov.simulate import ar_cov, nmse
from structcov.toeplitz import _power_structure
from structcov.tyler import Iterate, _Whitening
from support import (
    central_gradient,
    coordinate_descent,
    gaussian_cost_naive,
    linear_surrogate_naive,
    nonincreasing,
    preset_basis_loop,
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


def _power_bound(powers):
    """The structure of a ``_power_structure`` triple and a fit's ``PowerBound`` at floor 0."""
    struct, factors, blocks = powers
    return struct, PowerBound(floor=np.zeros(struct.size), separable=power_update,
                              factors=factors, blocks=blocks)


def _pieces_inputs(name, seed):
    """(struct, bound, coeffs, Wt, M): a real Toeplitz or a complex Hermitian surrogate.

    The "powers" surrogates are those of circulant powers at L = 2K - 1,
    whose pieces come from the factors of their basis matrices, which the
    ``bound`` holds (None for the others).
    """
    rng = np.random.default_rng(seed)
    complex_ = name in ("hermitian", "powers-complex")
    struct, bound = {"toeplitz": lambda: (toeplitz_basis(5), None),
                     "hermitian": lambda: (hermitian_basis(3), None),
                     "powers": lambda: _power_bound(_power_structure(5, 9, False)),
                     "powers-complex": lambda: _power_bound(_power_structure(3, 5, True))}[name]()
    Wt = np.linalg.inv(rand_pd(struct.dim, rng, complex_))
    M = rand_pd(struct.dim, rng, complex_, ridge=1.0)
    return struct, bound, _interior_point(struct, rng), Wt, M


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

    @pytest.mark.parametrize("k", range(1, 13))
    def test_presets_match_the_loop_reference(self, k):
        # byte for byte: dtype, shape, order of the matrices and sign of every zero
        builders = {"toeplitz": toeplitz_basis, "circulant": circulant_basis,
                    "diagonal": diagonal_basis, "full": full_symmetric_basis,
                    "hermitian": hermitian_basis}
        cases = [(name, None) for name in builders] + [("banded", bw) for bw in range(k)]
        for name, bandwidth in cases:
            if name == "banded":
                got = banded_toeplitz_basis(k, bandwidth).basis
            else:
                got = builders[name](k).basis
            ref = preset_basis_loop(name, k, bandwidth)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes(), (name, bandwidth)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            structure_from_name("wat", 4)
        with pytest.raises(InvalidInputError):
            structure_from_name("banded:x", 4)
        with pytest.raises(InvalidInputError):
            structure_from_name("banded:-1", 4)

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


def _mm_fixed_point(struct, a, M, max_steps=500):
    """Run the map as MM on a fixed scatter M until it returns its input.

    Each step starts at its own iterate, Wt = R(a)^{-1}, as in a fit, so
    a fixed point minimizes g(a) = log det R(a) + Tr(M R(a)^{-1}) over
    the structure. Checks that no step raises its surrogate or g;
    returns the fixed point.
    """
    g = gaussian_cost_naive(struct, a, M)
    for _ in range(max_steps):
        R_t = struct.assemble(a)
        nxt = inner_update(struct, a, np.linalg.inv(R_t), M)
        if nxt is a:
            return a
        f = linear_surrogate_naive(struct, a, R_t, M)
        assert linear_surrogate_naive(struct, nxt, R_t, M) <= f + 1e-12 * (1.0 + abs(f))
        g_next = gaussian_cost_naive(struct, nxt, M)
        assert g_next <= g + 1e-12 * (1.0 + abs(g))
        a, g = nxt, g_next
    raise AssertionError(f"the map did not reach a fixed point in {max_steps} steps")


def _newton_pieces(struct, Wt, M, mu, bound=None):
    """Value, gradient and Hessian at the warm start, from the surrogate's pieces."""
    value, w, u, hessian = _surrogate_pieces(struct, Wt, M, mu, None, bound)
    return value, w - u - mu * w, hessian(mu)


def _pieces_at(struct, a, Wt, M, mu):
    """Value, gradient and Hessian of the surrogate at any feasible ``a``, through W = R(a)^{-1}."""
    value, W = _surrogate_value(struct, a, Wt, M, mu)
    WMW = W @ M @ W
    grad = _surrogate_gradient(struct, Wt, W, WMW, mu)
    return value, grad, _surrogate_hessian(struct, W, WMW, mu)


class TestInnerUpdate:
    """``inner_update`` is one safeguarded Newton step from the iterate:
    run as MM on a fixed scatter M it must reach the minimizer of
    log det R + Tr(M R^{-1}) over the structure."""

    def test_identity_basis_closed_form(self):
        # g(a) = K log a + Tr(M)/a is minimized at a = Tr(M)/K
        rng = np.random.default_rng(9)
        struct = LinearStructure(basis=np.eye(4)[None, :, :], init_coeffs=np.array([1.0]))
        M = rand_pd(4, rng, ridge=1.0)
        a = _mm_fixed_point(struct, np.array([1.0]), M)
        # accuracy implied by the 1e-8 gradient stopping rule
        assert a[0] == pytest.approx(np.trace(M) / 4, rel=1e-6)

    def test_diagonal_closed_form(self):
        # g(a) = sum_i log a_i + M_ii / a_i is minimized at a = diag(M)
        rng = np.random.default_rng(10)
        M = rand_pd(3, rng, ridge=1.0)
        a = _mm_fixed_point(diagonal_basis(3), np.ones(3), M)
        assert np.allclose(a, np.diag(M), rtol=1e-6)

    def test_matches_coordinate_descent_oracle(self):
        # the reference is certified: the best end point of several starts,
        # whose central-difference gradient of g vanishes (g is not convex,
        # and from the default start of draw 720 a stalled oracle once ended
        # 4.0e-3 above the fixed point)
        struct = toeplitz_basis(4)
        start = struct.init_coeffs
        for seed in (10, 720):
            rng = np.random.default_rng(seed)
            M = rand_pd(4, rng, ridge=1.0)

            def g(a, M=M):
                return gaussian_cost_naive(struct, a, M)

            a_mm = _mm_fixed_point(struct, start, M)
            starts = [start] + [_interior_point(struct, rng, spread=0.3) for _ in range(3)]
            a_oracle = min((coordinate_descent(g, a) for a in starts), key=g)
            g_mm, g_oracle = g(a_mm), g(a_oracle)
            assert np.abs(central_gradient(g, a_oracle)).max() <= 1e-6 * (1.0 + abs(g_oracle))
            assert g_mm <= g_oracle + 1e-8
            assert abs(g_mm - g_oracle) <= 1e-8

    def test_descent_and_gradient_tolerance(self):
        # one step from any feasible iterate lowers its surrogate, and the
        # map stops only where the cost gradient meets its tolerance
        rng = np.random.default_rng(11)
        for name in ("toeplitz", "full", "hermitian"):
            complex_ = name == "hermitian"
            struct = hermitian_basis(3) if complex_ else structure_from_name(name, 5)
            for _ in range(20):
                M_t = rand_pd(struct.dim, rng, complex_, ridge=1.0)
                start = _feasible_point(struct, rng)
                R_t = struct.assemble(start)
                a = inner_update(struct, start, np.linalg.inv(R_t), M_t)
                R = struct.assemble(a)
                assert np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0] > 0.0
                f0 = linear_surrogate_naive(struct, start, R_t, M_t)
                f1 = linear_surrogate_naive(struct, a, R_t, M_t)
                assert f1 < f0
            a = _mm_fixed_point(struct, start, M_t)
            R = struct.assemble(a)
            f = linear_surrogate_naive(struct, a, R, M_t)
            g = surrogate_gradient(struct, a, R, M_t)
            assert np.linalg.norm(g) <= 1e-7 * (1.0 + abs(f))

    def test_stationary_point_returned_unchanged(self):
        rng = np.random.default_rng(12)
        struct = toeplitz_basis(5)
        M = rand_pd(5, rng, ridge=1.0)
        a = _mm_fixed_point(struct, _feasible_point(struct, rng), M)
        again = inner_update(struct, a.copy(), np.linalg.inv(struct.assemble(a)), M)
        assert np.array_equal(again, a)

    def test_singular_weight_matrix_uses_barrier(self):
        # rank-deficient M_t: the step on the barrier surrogate stays finite
        # and never raises the surrogate
        struct = diagonal_basis(3)
        M = np.diag([1.0, 1.0, 0.0])
        a = np.ones(3)
        f = linear_surrogate_naive(struct, a, np.eye(3), M)
        a = inner_update(struct, a, np.eye(3), M)
        assert np.all(np.isfinite(a)) and np.all(a > 0.0)
        assert linear_surrogate_naive(struct, a, np.eye(3), M) <= f + 1e-9
        # the unpenalized coordinates stay at their minimizer sqrt(m_ii)
        assert np.allclose(a[:2], 1.0, rtol=1e-6)

    def test_zero_weighted_scatter_takes_the_gradient_step(self):
        # M_t = 0 gives H = 0, which has no Cholesky factor, and a zero
        # barrier weight: the step follows -g on the linear Tr(Wt R(a))
        struct = toeplitz_basis(4)
        a = inner_update(struct, struct.init_coeffs, np.eye(4), np.zeros((4, 4)))
        R = struct.assemble(a)
        assert np.linalg.eigvalsh(R)[0] > 0.0
        assert np.trace(R) < 4.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weighted_scatter_raises(self, bad):
        rng = np.random.default_rng(14)
        struct = toeplitz_basis(4)
        M = rand_pd(4, rng, ridge=1.0)
        M[1, 2] = M[2, 1] = bad
        with pytest.raises(NumericalFailureError, match="non-finite"):
            inner_update(struct, struct.init_coeffs, np.eye(4), M)

    @pytest.mark.parametrize("singular", [True, False])
    def test_barrier_weight(self, singular, monkeypatch):
        # mu = 1e-10 Tr(M_t) exactly when the fit's samples do not span the
        # space, which its space decides once, from the samples alone
        data = sample_elliptical(ar_cov(4, 0.5), 20, seed=13).data.copy()
        if singular:
            data[:, 0] = 0.0
        X = SampleSet.from_array(data)
        assert _Whitening(X).spans is not singular
        weights, scatters = [], []

        def recorded(structure, Wt, M_t, mu, logdet=None, bound=None):
            weights.append(mu)
            scatters.append(M_t)
            return _surrogate_pieces(structure, Wt, M_t, mu, logdet, bound)

        monkeypatch.setattr("structcov.linear._surrogate_pieces", recorded)
        estimate_linear(toeplitz_basis(4), X, MMSettings(max_iter=3))
        assert len(weights) == 3
        assert weights == [1e-10 * np.trace(M) if singular else 0.0 for M in scatters]

    @pytest.mark.parametrize("n", [3, 20])
    def test_a_kronecker_fit_decides_its_barrier_once(self, n, monkeypatch):
        # at N = 3 the reshaped samples have 6 columns in C^8, so every B moment
        # is singular, yet roundoff gives some of them a Cholesky factor: every
        # step of the fit takes the barrier all the same; at N = 20 none does
        from structcov import estimate_kronecker

        barrier, factored = [], []

        def recorded(structure, Wt, M_t, mu, logdet=None, bound=None):
            barrier.append(mu > 0.0)
            factored.append(chol_pd(M_t) is not None)
            return _surrogate_pieces(structure, Wt, M_t, mu, logdet, bound)

        monkeypatch.setattr("structcov.linear._surrogate_pieces", recorded)
        truth = np.kron(ar_cov(2, 0.5), ar_cov(8, 0.8))
        for draw in range(3):
            X = sample_elliptical(truth, n, np.random.SeedSequence([9, 3, draw]))
            estimate_kronecker(X, 2, 8, MMSettings(tol=1e-7), b_structure=toeplitz_basis(8))
        assert barrier and all(barrier) == (n == 3) and any(barrier) == (n == 3)
        if n == 3:
            assert any(factored)


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
            H = _pieces_at(struct, a, np.eye(5), M_t, 0.0)[2]
            assert np.linalg.eigvalsh(H)[0] >= -1e-8

    @pytest.mark.parametrize(
        "bad", ["indefinite R_t", "non-finite M", "misshapen M", "short coeffs", "column coeffs"]
    )
    def test_surrogate_gradient_checks_its_input(self, bad):
        rng = np.random.default_rng(310)
        struct = toeplitz_basis(4)
        R_t, M = rand_pd(4, rng), rand_pd(4, rng, ridge=1.0)
        coeffs = struct.init_coeffs
        if bad == "indefinite R_t":
            R_t = -R_t
        elif bad == "non-finite M":
            M[1, 2] = M[2, 1] = np.nan
        elif bad == "misshapen M":
            M = M[:3, :3]
        elif bad == "short coeffs":
            coeffs = coeffs[:3]
        else:
            coeffs = coeffs[:, None]
        with pytest.raises(InvalidInputError):
            surrogate_gradient(struct, coeffs, R_t, M)


class TestSurrogatePieces:
    """The value, gradient and Hessian that the Newton step uses."""

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian", "powers", "powers-complex"])
    def test_warm_start_matches_value_evaluation(self, name, mu):
        # at R(a) = R_t the pieces built from Wt alone are those of the
        # factored evaluation at a
        struct, bound, a, _, M = _pieces_inputs(name, 350)
        Wt = np.linalg.inv(struct.assemble(a))
        pieces = _newton_pieces(struct, Wt, M, mu, bound)
        for got, ref in zip(pieces, _pieces_at(struct, a, Wt, M, mu)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian"])
    def test_hessian_matches_reference_loop(self, name, mu):
        struct, _, a, Wt, M = _pieces_inputs(name, 400)
        _, _, H = _pieces_at(struct, a, Wt, M, mu)
        W = np.linalg.inv(struct.assemble(a))
        B = struct.basis
        ref = np.zeros((struct.size, struct.size))
        for l in range(struct.size):
            for m in range(struct.size):
                ref[l, m] = 2.0 * np.trace(W @ M @ W @ B[l] @ W @ B[m]).real
                ref[l, m] += mu * np.trace(W @ B[l] @ W @ B[m]).real
        assert np.max(np.abs(H - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian", "powers", "powers-complex"])
    def test_derivatives_match_central_differences(self, name, mu):
        struct, bound, a, _, M = _pieces_inputs(name, 500)
        Wt = np.linalg.inv(struct.assemble(a))
        _, grad, H = _newton_pieces(struct, Wt, M, mu, bound)
        h = 1e-5
        for j in range(struct.size):
            e = np.zeros(struct.size)
            e[j] = h
            f_plus, g_plus, _ = _pieces_at(struct, a + e, Wt, M, mu)
            f_minus, g_minus, _ = _pieces_at(struct, a - e, Wt, M, mu)
            assert grad[j] == pytest.approx((f_plus - f_minus) / (2 * h), rel=1e-6, abs=1e-8)
            fd = (g_plus - g_minus) / (2 * h)
            assert np.max(np.abs(H[:, j] - fd)) <= 1e-6 * np.max(np.abs(H))

    def test_infeasible_point(self):
        struct, _, a, Wt, M = _pieces_inputs("toeplitz", 600)
        assert _surrogate_value(struct, -a, Wt, M, 0.0) is None


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

    def test_full_basis_with_n_close_to_k(self):
        # N = K + 1 with strongly correlated data: an inner solve run to its
        # gradient tolerance stalled on this draw; the one-step map converges
        X = sample_elliptical(ar_cov(5, 0.9), 6, np.random.SeedSequence([77, 5, 6, 7]))
        struct = full_symmetric_basis(5)
        res = estimate_linear(struct, X, MMSettings(tol=1e-7))
        assert res.termination == "converged"
        assert nonincreasing(res.objective_trace)
        # "converged" means stationary: at N = K + 1 the MM contraction is
        # slow, so the 1e-7 relative-change stop ends at a residual near 1e-4
        # (so does the exact-minimization map on neighbouring draws); at the
        # tolerance of test_descent_and_stationarity it meets the same bound
        tight = estimate_linear(struct, X, MMSettings(tol=1e-9))
        assert tight.termination == "converged"
        assert nonincreasing(tight.objective_trace)
        assert stationarity_residual(struct, tight.scatter, X) <= 1e-5

    def test_zero_coordinate_converges_on_the_barrier(self):
        # the third coordinate is zero in every sample, so every M_t is
        # singular; without the log-det barrier the line search fails
        X = np.random.default_rng(28).standard_normal((40, 3))
        X[:, 2] = 0.0
        res = estimate_linear(diagonal_basis(3), SampleSet.from_array(X))
        assert res.termination == "converged"
        assert nonincreasing(res.objective_trace)
        assert np.diag(res.scatter)[2] <= 1e-12

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


def _unbounded_step(struct, coeffs, Wt, M_t, logdet=None):
    """The Newton step of a structure whose coefficients are not bounded, written out in full.

    Its samples span the space, so the step models g(a) = log det R(a) + Tr(M_t R(a)^{-1}).
    """
    from scipy.linalg import lapack

    assert logdet is not None
    coeffs = np.asarray(coeffs, dtype=float)
    value = float((M_t * Wt.conj()).sum().real) + logdet
    WMW = Wt @ M_t @ Wt
    grad = _surrogate_gradient(struct, Wt, Wt, WMW, 0.0)
    if np.linalg.norm(grad) <= 1e-8 * (1.0 + abs(value)):
        return coeffs
    L = chol_pd(_surrogate_hessian(struct, Wt, WMW, -1.0))
    if L is None:
        L = chol_pd(_surrogate_hessian(struct, Wt, WMW, 0.0))
    step = -grad if L is None else lapack.dpotrs(L, -grad, lower=1)[0]
    slope = float(grad @ step)
    slack = 1e-12 * (1.0 + abs(value))
    t = 1.0
    for _ in range(60):
        trial = coeffs + t * step
        point = _surrogate_value(struct, trial, None, M_t, 0.0)
        if point is not None and point[0] <= value + 1e-4 * t * slope + slack:
            return trial
        t *= 0.5
    raise AssertionError("line search failed")


@pytest.mark.parametrize("preset", [toeplitz_basis, full_symmetric_basis],
                         ids=["toeplitz", "full"])
def test_an_unbounded_structure_takes_the_unbounded_step(preset, monkeypatch):
    """Without a bound, the step is the plain Newton step, bit for bit."""
    import structcov.linear

    struct = preset(15)
    X = sample_elliptical(ar_cov(15, 0.8), 40, seed=8)
    settings = MMSettings(tol=1e-8, max_iter=200)
    fit = estimate_linear(struct, X, settings)
    monkeypatch.setattr(structcov.linear, "inner_update", _unbounded_step)
    plain = estimate_linear(struct, X, settings)
    assert fit.iterations == plain.iterations and fit.termination == "converged"
    assert np.array_equal(fit.params, plain.params)
    assert np.array_equal(fit.scatter, plain.scatter)
    assert np.array_equal(fit.objective_trace, plain.objective_trace)


def _tight_inputs(name, seed):
    """(struct, bound, samples, rng) of one unbounded preset or one bounded power structure."""
    rng = np.random.default_rng(seed)
    struct, bound = {"toeplitz": lambda: (toeplitz_basis(5), None),
                     "full": lambda: (full_symmetric_basis(4), None),
                     "hermitian": lambda: (hermitian_basis(3), None),
                     "powers": lambda: _power_bound(_power_structure(5, 9, False)),
                     "powers-complex": lambda: _power_bound(_power_structure(3, 5, True))}[name]()
    complex_ = name in ("hermitian", "powers-complex")
    X = sample_elliptical(rand_pd(struct.dim, rng, complex_), 4 * struct.dim, seed=seed)
    return struct, bound, X, rng


def _tight_start(struct, bound, rng):
    """Random coefficients of a PD member: powers above the floor, or near the default point."""
    if bound is None:
        return _feasible_point(struct, rng)
    return struct.init_coeffs * np.exp(rng.standard_normal(struct.size))


class TestTightStep:
    """With a spanning M_t the step models g(a) = log det R(a) + Tr(M_t R(a)^{-1})."""

    @pytest.mark.parametrize("name", ["toeplitz", "full", "hermitian", "powers", "powers-complex"])
    def test_each_step_lowers_g_and_the_cost(self, name):
        struct, bound, X, rng = _tight_inputs(name, 700)
        moved = 0
        for _ in range(10):
            start = _tight_start(struct, bound, rng)
            it = Iterate.at(struct.assemble(start), X)
            M = it.M
            a = inner_update(struct, start, it.inverse(), M, np.linalg.slogdet(it.R)[1], bound)
            moved += not np.array_equal(a, start)
            g0, g1 = gaussian_cost_naive(struct, start, M), gaussian_cost_naive(struct, a, M)
            assert g1 <= g0 + 1e-12 * (1.0 + abs(g0))
            c0, c1 = tyler_cost(it.R, X), tyler_cost(struct.assemble(a), X)
            assert c1 <= c0 + 1e-12 * (1.0 + abs(c0))
            if bound is not None:
                assert np.all(a >= 0.0)
        assert moved == 10

    @pytest.mark.parametrize("name", ["toeplitz", "powers"])
    def test_an_indefinite_model_takes_the_convex_hessian(self, name):
        # M_t = 0.1 R_t whitens to 0.1 I, so g's Hessian, with 2 * 0.1 I - I < 0
        # in its middle, is negative definite: the direction is f's
        struct, bound, _, rng = _tight_inputs(name, 710)
        start = _tight_start(struct, bound, rng)
        R_t = struct.assemble(start)
        M, Wt, logdet = 0.1 * R_t, np.linalg.inv(R_t), np.linalg.slogdet(R_t)[1]
        _, w, u, hessian = _surrogate_pieces(struct, Wt, M, 0.0, logdet, bound)
        assert np.linalg.eigvalsh(hessian(-1.0))[-1] < 0.0
        direction = -np.linalg.solve(hessian(0.0), w - u)
        a = inner_update(struct, start, Wt, M, logdet, bound)
        halvings = [t for t in 0.5 ** np.arange(12) if np.allclose(a, start + t * direction,
                                                                   rtol=1e-12, atol=0.0)]
        assert len(halvings) == 1
        assert gaussian_cost_naive(struct, a, M) < gaussian_cost_naive(struct, start, M)

    def test_the_map_stops_where_the_linearized_map_does(self):
        # run as MM on a fixed M, the tight map stops where the linearized map
        # does: both fixed points are the stationary points of g
        rng = np.random.default_rng(720)
        struct = toeplitz_basis(4)
        M = rand_pd(4, rng, ridge=1.0)
        a = struct.init_coeffs
        g = gaussian_cost_naive(struct, a, M)
        for _ in range(200):
            R = struct.assemble(a)
            nxt = inner_update(struct, a, np.linalg.inv(R), M, np.linalg.slogdet(R)[1])
            if nxt is a:
                break
            g_next = gaussian_cost_naive(struct, nxt, M)
            assert g_next <= g + 1e-12 * (1.0 + abs(g))
            a, g = nxt, g_next
        else:
            raise AssertionError("the tight map did not reach a fixed point")
        ref = _mm_fixed_point(struct, struct.init_coeffs, M)
        assert abs(g - gaussian_cost_naive(struct, ref, M)) <= 1e-8
        assert np.max(np.abs(a - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mu", ["g", 0.0])
    @pytest.mark.parametrize("name", ["toeplitz", "hermitian", "powers", "powers-complex"])
    def test_the_model_hessians_match_central_differences(self, name, mu):
        # hessian(-1) is g's, whose value is the factored evaluation without Wt;
        # hessian(0) is f's
        struct, bound, a, _, M = _pieces_inputs(name, 730)
        R = struct.assemble(a)
        Wt = np.linalg.inv(R)
        tight = mu == "g"
        value, w, u, hessian = _surrogate_pieces(struct, Wt, M, 0.0,
                                                 np.linalg.slogdet(R)[1] if tight else None, bound)
        H = hessian(-1.0 if tight else 0.0)
        model = None if tight else Wt
        assert value == pytest.approx(_surrogate_value(struct, a, model, M, 0.0)[0], rel=1e-12)
        h = 1e-5
        for j in range(struct.size):
            e = np.zeros(struct.size)
            e[j] = h
            grads = []
            for point in (a + e, a - e):
                W = _surrogate_value(struct, point, model, M, 0.0)[1]
                grads.append(_basis_traces(struct, W if tight else Wt)
                             - _basis_traces(struct, W @ M @ W))
            fd = (grads[0] - grads[1]) / (2 * h)
            assert np.max(np.abs(H[:, j] - fd)) <= 1e-6 * np.max(np.abs(H))
