import numpy as np
import pytest

from structcov import (
    InvalidInputError,
    KroneckerFactors,
    MMSettings,
    SampleSet,
    estimate_kronecker,
    kron_objective,
    sample_elliptical,
    toeplitz_basis,
    tyler_cost,
    tyler_unconstrained,
)
from structcov.kronecker import (
    ReshapedSamples,
    _batch_weights,
    _whiten_a,
    _whiten_b,
    block_mm_step,
    gauss_seidel_step,
)
from structcov.linalg import pd_sqrt
from structcov.simulate import ar_cov
from support import rand_pd, nonincreasing


def _kron_samples(p, q, n, seed, b_beta=0.6, complex_=False):
    R0 = np.kron(np.eye(p), ar_cov(q, b_beta))
    if complex_:
        R0 = R0.astype(complex)
    return sample_elliptical(R0, n, seed=seed), R0


class TestReshapedSamples:
    def test_vec_convention(self):
        p, q = 3, 2
        rng = np.random.default_rng(0)
        X = SampleSet.from_array(rng.standard_normal((4, p * q)))
        resh = ReshapedSamples.from_samples(X, p, q)
        # vec(M_i) column-major equals the sample
        for i in range(4):
            assert np.allclose(resh.mats[i].reshape(-1, order="F"), X.data[i])

    def test_quadratic_form_identity(self):
        p, q = 3, 4
        rng = np.random.default_rng(1)
        X = SampleSet.from_array(
            rng.standard_normal((5, p * q)) + 1j * rng.standard_normal((5, p * q))
        )
        resh = ReshapedSamples.from_samples(X, p, q)
        A = rand_pd(p, rng)
        B = rand_pd(q, rng)
        for i in range(5):
            x = X.data[i]
            quad = np.real(x.conj() @ np.linalg.solve(np.kron(A, B), x))
            M = resh.mats[i]
            tr = np.real(np.trace(np.linalg.solve(A, (M.conj().T @ np.linalg.solve(B, M)).T)))
            assert quad == pytest.approx(tr, rel=1e-10)

    def test_dimension_mismatch(self):
        X = SampleSet.from_array(np.random.default_rng(2).standard_normal((3, 6)))
        # (-2, -3) matches K=6 but names no factor size
        for p, q in [(4, 2), (-2, -3)]:
            with pytest.raises(InvalidInputError):
                ReshapedSamples.from_samples(X, p, q)


@pytest.mark.parametrize("p,q,n", [(3, 4, 10), (10, 8, 4)])
@pytest.mark.parametrize("complex_", [False, True])
def test_whiten_a_matches_einsum(p, q, n, complex_):
    rng = np.random.default_rng(p * q + n)
    X, _ = _kron_samples(p, q, n, seed=p + n, complex_=complex_)
    resh = ReshapedSamples.from_samples(X, p, q)
    A = rand_pd(p, rng, complex_=complex_)
    mats = resh.mats
    U_ref = np.einsum("nij,jk,nlk->nil", mats, np.linalg.inv(A).conj(), mats.conj())
    U = _whiten_a(resh, np.linalg.inv(A))
    assert np.linalg.norm(U - U_ref) <= 1e-13 * np.linalg.norm(U_ref)


class TestKroneckerFactors:
    """The constructor is the one check of a pair: kron_objective trusts it."""

    @staticmethod
    def _rejected_in_either_place(bad):
        with pytest.raises(InvalidInputError):
            KroneckerFactors(factor_a=bad, factor_b=np.eye(3))
        with pytest.raises(InvalidInputError):
            KroneckerFactors(factor_a=np.eye(3), factor_b=bad)

    def test_singular_factor_rejected(self):
        self._rejected_in_either_place(np.diag([1.0, 1.0, 0.0]))

    def test_indefinite_factor_rejected(self):
        self._rejected_in_either_place(np.diag([1.0, 1.0, -1.0]))

    def test_non_hermitian_factor_rejected(self):
        # PD lower triangle: a Cholesky factor alone would accept it
        upper = np.eye(3)
        upper[0, 1] = 5.0
        self._rejected_in_either_place(upper)


class TestKronObjective:
    def test_standard_basis_value(self):
        p, q = 2, 3
        k = p * q
        X = SampleSet.from_array(np.eye(k))
        resh = ReshapedSamples.from_samples(X, p, q)
        f = KroneckerFactors(factor_a=np.eye(p) / p, factor_b=np.eye(q) / q)
        # (pq/N) * N * log(pq) + q*log det(I/p) + p*log det(I/q) = 0
        assert kron_objective(f, resh) == pytest.approx(0.0, abs=1e-12)

    def test_scale_exchange_invariance(self):
        p, q = 3, 4
        rng = np.random.default_rng(3)
        X, _ = _kron_samples(p, q, 8, seed=10)
        resh = ReshapedSamples.from_samples(X, p, q)
        A = rand_pd(p, rng)
        B = rand_pd(q, rng)
        c = 3.0
        f1 = KroneckerFactors(factor_a=A, factor_b=B)
        f2 = KroneckerFactors(factor_a=c * A, factor_b=B / c)
        assert kron_objective(f1, resh) == pytest.approx(kron_objective(f2, resh), rel=1e-12)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_full_kronecker_cost_differences(self, complex_):
        p, q = 3, 4
        rng = np.random.default_rng(4)
        X, _ = _kron_samples(p, q, 10, seed=11, complex_=complex_)
        resh = ReshapedSamples.from_samples(X, p, q)
        pairs = []
        for _ in range(3):
            A = rand_pd(p, rng, complex_)
            B = rand_pd(q, rng, complex_)
            f = KroneckerFactors(factor_a=A, factor_b=B)
            pairs.append((kron_objective(f, resh), tyler_cost(np.kron(A, B), X)))
        for i in range(1, len(pairs)):
            diff_factors = pairs[i][0] - pairs[0][0]
            diff_full = pairs[i][1] - pairs[0][1]
            assert abs(diff_factors - diff_full) <= 1e-9


    def test_indefinite_pair_rejected(self):
        X, _ = _kron_samples(3, 4, 10, seed=26)
        resh = ReshapedSamples.from_samples(X, 3, 4)
        indefinite = np.diag([1.0, 1.0, -0.5])
        for pair in ((indefinite, np.eye(4)), (np.eye(3), np.diag([1.0, -1.0, 1.0, 1.0]))):
            with pytest.raises(InvalidInputError, match="positive definite"):
                kron_objective(pair, resh)

    def test_cost_of_an_iterate_reuses_its_factors(self):
        X, _ = _kron_samples(3, 4, 10, seed=27, complex_=True)
        resh = ReshapedSamples.from_samples(X, 3, 4)
        rng = np.random.default_rng(27)
        pair = (rand_pd(3, rng, True), rand_pd(4, rng, True))
        it = resh(pair)
        assert kron_objective(it, resh) == it.cost == kron_objective(pair, resh)
        other = ReshapedSamples(mats=resh.mats.copy())
        with pytest.raises(InvalidInputError, match="different sample set"):
            kron_objective(it, other)


class TestGaussSeidel:
    def test_scalar_factors_are_fixed(self):
        X = SampleSet.from_array(np.random.default_rng(5).standard_normal((6, 1)))
        resh = ReshapedSamples.from_samples(X, 1, 1)
        f = KroneckerFactors(factor_a=np.eye(1), factor_b=np.eye(1))
        A, B = gauss_seidel_step(resh(f))
        assert np.allclose(A, [[1.0]])
        assert np.allclose(B, [[1.0]])

    def test_common_whitened_moment_fixed_point(self):
        # all M_i^T M_i equal to a single PD matrix W: the A-subproblem
        # fixed point is proportional to W
        p, q = 3, 5
        rng = np.random.default_rng(6)
        W = rand_pd(p, rng, ridge=1.0)
        W_half = pd_sqrt(W)
        mats = []
        for _ in range(7):
            Q, _r = np.linalg.qr(rng.standard_normal((q, p)))
            mats.append(Q @ W_half)
        X = SampleSet.from_array(np.stack([m.reshape(-1, order="F") for m in mats]))
        resh = ReshapedSamples.from_samples(X, p, q)
        f = KroneckerFactors(factor_a=np.eye(p) / p, factor_b=np.eye(q))
        A, _B = gauss_seidel_step(resh(f))
        expected = W / np.trace(W)
        assert np.linalg.norm(A - expected) <= 1e-8

    def test_descent_and_inner_residual(self):
        p, q, n = 2, 2, 10
        X, _ = _kron_samples(p, q, n, seed=12)
        resh = ReshapedSamples.from_samples(X, p, q)
        f = KroneckerFactors(factor_a=np.eye(p) / p, factor_b=np.eye(q) / q)
        before = kron_objective(f, resh)
        A, B = gauss_seidel_step(resh(f))
        after = kron_objective((A, B), resh)
        assert after <= before + 1e-10
        # fixed-point residual of the A-subproblem at the returned factors
        T = _whiten_b(resh, np.linalg.inv(f.factor_b))
        weights = _batch_weights(T, np.linalg.inv(A))
        A_fp = (p / n) * np.einsum("n,nij->ij", 1.0 / weights, T)
        A_fp = A_fp / np.trace(A_fp).real
        assert np.linalg.norm(A_fp - A) <= 1e-8


def _scaled_step(step, factors, reshaped):
    """The pair a fit takes from ``step``: the space scales each factor to unit trace."""
    _flat, pair = reshaped.normalize(reshaped.flatten(step(reshaped(factors))))
    return pair


class TestBlockMM:
    def test_identity_base_gives_matrix_sqrt(self):
        p, q, n = 3, 4, 9
        X, _ = _kron_samples(p, q, n, seed=13)
        resh = ReshapedSamples.from_samples(X, p, q)
        f = KroneckerFactors(factor_a=np.eye(p), factor_b=np.eye(q))
        T = _whiten_b(resh, np.linalg.inv(f.factor_b))
        weights = _batch_weights(T, np.eye(p))
        M = (p / n) * np.einsum("n,nij->ij", 1.0 / weights, T)
        A, _B = _scaled_step(block_mm_step, f, resh)
        expected = pd_sqrt(0.5 * (M + M.T))
        expected = expected / np.trace(expected)
        assert np.linalg.norm(A - expected) <= 1e-10

    def test_geometric_mean_identity_along_iterations(self):
        from structcov import pd_geometric_mean

        p, q, n = 3, 3, 12
        X, _ = _kron_samples(p, q, n, seed=14)
        resh = ReshapedSamples.from_samples(X, p, q)
        A_0 = rand_pd(p, np.random.default_rng(7))
        f = KroneckerFactors(factor_a=A_0 / np.trace(A_0), factor_b=np.eye(q) / q)
        T = _whiten_b(resh, np.linalg.inv(f.factor_b))
        weights = _batch_weights(T, np.linalg.inv(f.factor_a))
        M = (p / n) * np.einsum("n,nij->ij", 1.0 / weights, T)
        M = 0.5 * (M + M.T)
        # the update is the matrix geometric mean: X A_t^{-1} X = M
        G = pd_geometric_mean(f.factor_a, M)
        resid = np.linalg.norm(G @ np.linalg.solve(f.factor_a, G) - M)
        assert resid / np.linalg.norm(M) <= 1e-8
        A, _B = _scaled_step(block_mm_step, f, resh)
        assert np.linalg.norm(A - G / np.trace(G)) <= 1e-10
        # the weighted moment stays PD on generic data
        assert np.linalg.eigvalsh(M)[0] > 0

    def test_fixed_point_when_moment_equals_base(self):
        rng = np.random.default_rng(8)
        from structcov import pd_geometric_mean

        A = rand_pd(4, rng)
        assert np.linalg.norm(pd_geometric_mean(A, A) - A) <= 1e-10

    def test_descent(self):
        p, q, n = 3, 4, 10
        X, _ = _kron_samples(p, q, n, seed=15)
        resh = ReshapedSamples.from_samples(X, p, q)
        f = KroneckerFactors(factor_a=np.eye(p) / p, factor_b=np.eye(q) / q)
        before = kron_objective(f, resh)
        out = block_mm_step(resh(f))
        assert kron_objective(out, resh) <= before + 1e-10


class TestEstimateKronecker:
    def test_p_equal_one_reduces_to_tyler(self):
        q, n = 4, 50
        R0 = ar_cov(q, 0.6)
        X = sample_elliptical(R0, n, seed=16)
        res = estimate_kronecker(X, 1, q, MMSettings(tol=1e-10, max_iter=3000))
        ref = tyler_unconstrained(X, MMSettings(tol=1e-10, max_iter=3000))
        assert np.linalg.norm(res.scatter - ref.scatter) <= 1e-6

    def test_methods_agree_and_unit_traces(self):
        p, q, n = 4, 3, 6
        X, _ = _kron_samples(p, q, n, seed=17)
        settings = MMSettings(tol=1e-9, max_iter=2000)
        # free B, then a Toeplitz B (the structured B update of both methods)
        for b_structure in (None, toeplitz_basis(q)):
            res_mm = estimate_kronecker(X, p, q, settings, method="mm", b_structure=b_structure)
            res_gs = estimate_kronecker(X, p, q, settings, method="gs", b_structure=b_structure)
            assert abs(res_mm.objective_trace[-1] - res_gs.objective_trace[-1]) <= 1e-6
            for res in (res_mm, res_gs):
                assert np.trace(res.details["factor_a"]) == pytest.approx(1.0, abs=1e-14)
                assert np.trace(res.details["factor_b"]) == pytest.approx(1.0, abs=1e-14)
                assert nonincreasing(res.objective_trace)

    def test_small_sample_count_supported(self):
        p, q = 5, 4
        X, R0 = _kron_samples(p, q, 3, seed=18, b_beta=0.7)
        res = estimate_kronecker(X, p, q)
        assert res.scatter.shape == (20, 20)
        assert abs(np.trace(res.scatter) - 1.0) <= 1e-10

    def test_structured_b_factor(self):
        p, q, n = 3, 5, 4
        X, R0 = _kron_samples(p, q, n, seed=19, b_beta=0.7)
        struct = toeplitz_basis(q)
        res = estimate_kronecker(X, p, q, method="mm", b_structure=struct)
        B = res.details["factor_b"]
        # B lives in the Toeplitz span
        from structcov import diagonal_spread

        assert diagonal_spread(B) <= 1e-10
        assert nonincreasing(res.objective_trace)

    @pytest.mark.parametrize("method", ["mm", "gs"])
    def test_structured_b_from_an_off_span_start(self, method):
        # a PD initial B that is not Toeplitz: the fit starts from its
        # nearest Toeplitz member and reaches the default start's optimum
        from structcov import diagonal_spread

        X, _ = _kron_samples(3, 4, 10, seed=21, b_beta=0.7)
        struct = toeplitz_basis(4)
        B = rand_pd(4, np.random.default_rng(21))
        assert diagonal_spread(B) > 0.1
        init = KroneckerFactors(np.eye(3), B)
        res = estimate_kronecker(X, 3, 4, method=method, b_structure=struct, init=init)
        ref = estimate_kronecker(X, 3, 4, method=method, b_structure=struct)
        assert res.termination == "converged"
        assert nonincreasing(res.objective_trace)
        assert abs(res.objective_trace[-1] - ref.objective_trace[-1]) <= 1e-8

    def test_structured_b_start_outside_the_cone_rejected(self):
        # B is PD, but its nearest Toeplitz matrix toeplitz([0.51, 0, 0, 1]) is not
        X, _ = _kron_samples(3, 4, 10, seed=22)
        v = np.array([1.0, 0.0, 0.0, 1.0])
        init = KroneckerFactors(np.eye(3), np.outer(v, v) + 0.01 * np.eye(4))
        with pytest.raises(InvalidInputError):
            estimate_kronecker(X, 3, 4, b_structure=toeplitz_basis(4), init=init)

    def test_bad_method_and_dims(self):
        X, _ = _kron_samples(2, 3, 5, seed=20)
        with pytest.raises(InvalidInputError):
            estimate_kronecker(X, 2, 3, method="nope")
        with pytest.raises(InvalidInputError):
            estimate_kronecker(X, 3, 3)
        with pytest.raises(InvalidInputError):
            estimate_kronecker(X, 2, 3, init=KroneckerFactors(np.eye(3), np.eye(2)))
        with pytest.raises(InvalidInputError):
            estimate_kronecker(X, 2, 3, b_structure=toeplitz_basis(2))

    def test_unbounded_descent_floor(self, monkeypatch):
        from structcov import DegenerateDataError
        import structcov.kronecker as kron_mod

        X, _ = _kron_samples(2, 3, 5, seed=22)
        # raising the floor above any reachable value must trip the guard
        monkeypatch.setattr(kron_mod, "_OBJECTIVE_FLOOR", 1e12)
        with pytest.raises(DegenerateDataError):
            estimate_kronecker(X, 2, 3)


def _one_or_two_gaussian_samples():
    """72 sample sets of N=1-2 Gaussian samples, real and complex, in three shapes."""
    for seed in range(6):
        for p, q in ((3, 4), (4, 2), (2, 5)):
            for n in (1, 2):
                for complex_ in (False, True):
                    rng = np.random.default_rng(seed)
                    data = rng.standard_normal((n, p * q))
                    if complex_:
                        data = data + 1j * rng.standard_normal((n, p * q))
                    yield p, q, SampleSet.from_array(data)


@pytest.mark.parametrize("method", ["mm", "gs"])
def test_degenerate_fits_fail_as_numerical_failures(method):
    """Too few samples make a factor singular: the fit fails as NumericalFailureError.

    Gauss-Seidel fits used to raise a bare LinAlgError or InvalidInputError
    (the factors the solver built itself were not PD) on 36 of these draws.
    """
    from structcov import NumericalFailureError

    failed = 0
    for p, q, X in _one_or_two_gaussian_samples():
        try:
            res = estimate_kronecker(X, p, q, method=method)
        except NumericalFailureError:
            failed += 1
            continue
        assert abs(np.trace(res.scatter).real - 1.0) <= 1e-10
    # 48 mm and 47 gs fits of the 72 fail
    assert failed >= 36


@pytest.mark.parametrize("method", ["mm", "gs"])
def test_a_non_finite_moment_fails_as_a_numerical_failure(method, monkeypatch):
    # a NaN moment reaches the mm step's eigh, which raises LinAlgError, and
    # ends the gs loop at its first relative change; an infinite one needs an overflow first
    from structcov import NumericalFailureError

    moments = []
    monkeypatch.setattr("structcov.kronecker._weighted_moment", lambda stack, weights: (
        moments.append(1) or np.full(stack.shape[1:], np.nan)))
    X, _ = _kron_samples(2, 3, 20, seed=1)
    with pytest.raises(NumericalFailureError, match="not finite" if method == "gs" else None):
        estimate_kronecker(X, 2, 3, method=method)
    if method == "gs":  # not its 5,000 inner sweeps
        assert len(moments) == 1


class TestKroneckerOnTheDriver:
    """Kronecker fits run on ``mm_drive``, extrapolating the flat pair [vec A; vec B]."""

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("method", ["mm", "gs"])
    def test_the_trace_does_not_change_the_fit(self, method, structured):
        X, _ = _kron_samples(3, 4, 10, seed=23)
        b_structure = toeplitz_basis(4) if structured else None
        traced, untraced = (
            estimate_kronecker(
                X, 3, 4, MMSettings(record_trace=trace), method=method, b_structure=b_structure
            )
            for trace in (True, False)
        )
        assert len(traced.objective_trace) == traced.iterations + 1
        assert len(untraced.objective_trace) == 0
        assert untraced.iterations == traced.iterations
        assert untraced.termination == traced.termination == "converged"
        assert np.array_equal(untraced.scatter, traced.scatter)
        for key in ("factor_a", "factor_b", "b_coeffs"):
            assert np.array_equal(untraced.details[key], traced.details[key])

    def test_the_floor_holds_without_a_trace(self, monkeypatch):
        from structcov import DegenerateDataError
        import structcov.kronecker as kron_mod

        X, _ = _kron_samples(2, 3, 5, seed=22)
        costs = estimate_kronecker(X, 2, 3).objective_trace
        assert costs[2] > costs[3]
        # a floor between the costs after maps 2 and 3 stops the fit at map 3
        monkeypatch.setattr(kron_mod, "_OBJECTIVE_FLOOR", 0.5 * (costs[2] + costs[3]))
        steps = []
        step = kron_mod.block_mm_step
        monkeypatch.setattr(
            kron_mod, "block_mm_step", lambda *a, **k: steps.append(1) or step(*a, **k)
        )
        with pytest.raises(DegenerateDataError):
            estimate_kronecker(X, 2, 3, MMSettings(record_trace=False))
        assert len(steps) == 3

    @pytest.mark.parametrize("method,name", [("mm", "block_mm_step"), ("gs", "gauss_seidel_step")])
    def test_a_failed_step_carries_its_iteration(self, method, name, monkeypatch):
        from structcov import NumericalFailureError
        import structcov.kronecker as kron_mod

        step = getattr(kron_mod, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalFailureError("step failed")
            return step(*args, **kwargs)

        monkeypatch.setattr(kron_mod, name, failing)
        X, _ = _kron_samples(3, 4, 10, seed=23)
        with pytest.raises(NumericalFailureError) as err:
            estimate_kronecker(X, 3, 4, MMSettings(tol=1e-14), method=method)
        assert err.value.mm_iteration == 3

    @pytest.mark.parametrize("method,name", [("mm", "block_mm_step"), ("gs", "gauss_seidel_step")])
    def test_a_step_that_is_not_pd_stops_the_fit(self, method, name, monkeypatch):
        """A step returns its pair unchecked; the space's PD check stops the fit at that map."""
        from structcov import FailedToConvergeError
        import structcov.kronecker as kron_mod

        step = getattr(kron_mod, name)
        calls = []

        def spoiled(*args, **kwargs):
            calls.append(1)
            A, B = step(*args, **kwargs)
            if len(calls) == 3:
                B = np.diag([2.0, -1.0, 0.5, 0.5])  # positive trace, indefinite
            return A, B

        monkeypatch.setattr(kron_mod, name, spoiled)
        X, _ = _kron_samples(3, 4, 10, seed=23)
        # map 3 ends the first cycle, so its point is always factored
        with pytest.raises(FailedToConvergeError) as err:
            estimate_kronecker(X, 3, 4, MMSettings(tol=1e-14), method=method)
        assert err.value.diagnostics["iteration"] == 3

    @pytest.mark.parametrize("method", ["mm", "gs"])
    def test_a_complex_fit_reports_both_factors_complex(self, method):
        """The flat pair has one number field: a real Toeplitz B of complex samples is complex."""
        X, _ = _kron_samples(3, 4, 10, seed=25, complex_=True)
        struct = toeplitz_basis(4)
        res = estimate_kronecker(X, 3, 4, method=method, b_structure=struct)
        A, B, coeffs = (res.details[key] for key in ("factor_a", "factor_b", "b_coeffs"))
        assert res.termination == "converged"
        assert A.dtype == B.dtype == np.complex128 and not B.imag.any()
        assert coeffs.dtype == np.float64
        assert np.linalg.norm(struct.assemble(coeffs) - B) <= 1e-12

    @pytest.mark.parametrize("method,name", [("mm", "block_mm_step"), ("gs", "gauss_seidel_step")])
    def test_a_step_without_a_positive_trace_stops_the_fit(self, method, name, monkeypatch):
        """A factor of negative trace has no unit-trace point: the fit stops at that map."""
        from structcov import FailedToConvergeError
        import structcov.kronecker as kron_mod

        step = getattr(kron_mod, name)
        calls = []

        def flipped(*args, **kwargs):
            calls.append(1)
            A, B = step(*args, **kwargs)
            return (A, -B) if len(calls) == 3 else (A, B)

        monkeypatch.setattr(kron_mod, name, flipped)
        X, _ = _kron_samples(3, 4, 10, seed=23)
        with pytest.raises(FailedToConvergeError, match="usable scale") as err:
            estimate_kronecker(X, 3, 4, MMSettings(tol=1e-14), method=method)
        assert err.value.diagnostics["iteration"] == 3 == len(calls)

    @pytest.mark.parametrize("method,seed,tol", [("mm", 20, 1e-6), ("gs", 21, 1e-8)])
    def test_a_fit_stops_on_the_change_of_the_whole_pair(self, method, seed, tol, monkeypatch):
        """The stop rule of every fit: the relative change of [vec A; vec B] over one map.

        On these draws the larger of the two factors' own relative changes
        is still above tol at the map that ends the fit.
        """
        from structcov.tyler import _rel_change
        import structcov.kronecker as kron_mod

        name = "block_mm_step" if method == "mm" else "gauss_seidel_step"
        step = getattr(kron_mod, name)
        maps = []  # each map's start, its normalized flat pair and both as pairs

        def recorded(it, *args, **kwargs):
            factors, reshaped = it.factors, it.reshaped
            out = step(it, *args, **kwargs)
            to, pair = reshaped.normalize(reshaped.flatten(out))
            maps.append((reshaped.flatten(factors), to, factors, pair))
            return out

        monkeypatch.setattr(kron_mod, name, recorded)
        X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, seed)
        res = estimate_kronecker(X, 3, 4, MMSettings(tol=tol), method=method)
        assert res.termination == "converged" and len(maps) == res.iterations
        changes = [_rel_change(to, start) for start, to, _factors, _pair in maps]
        assert changes[-1] <= tol < min(changes[:-1])
        _start, _to, factors, pair = maps[-1]
        assert max(_rel_change(new, old) for new, old in zip(pair, factors)) > tol
