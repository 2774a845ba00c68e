import numpy as np
import pytest

from structcov import (
    FailedToConvergeError,
    InvalidInputError,
    MMSettings,
    SampleSet,
    estimate_spiked,
    fixed_point_residual,
    mm_drive,
    pd_geometric_mean,
    sample_elliptical,
    tyler_cost,
    tyler_unconstrained,
    weighted_scatter,
)
from structcov.simulate import ar_cov, nmse
from structcov.tyler import _Whitening
from support import rand_pd, tyler_cost_naive, weighted_scatter_naive, nonincreasing


def _samples(rng, n, k, complex_=False):
    X = rng.standard_normal((n, k))
    if complex_:
        X = X + 1j * rng.standard_normal((n, k))
    return SampleSet.from_array(X)


class TestSampleSet:
    def test_zero_sample_rejected(self):
        X = np.ones((4, 3))
        X[2] = 0.0
        with pytest.raises(InvalidInputError):
            SampleSet.from_array(X)

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            SampleSet.from_array(np.ones(5))

    def test_oversampling_check(self):
        X = SampleSet.from_array(np.random.default_rng(0).standard_normal((3, 3)))
        with pytest.raises(InvalidInputError):
            X.require_oversampled()

    def test_nonfinite_rejected(self):
        X = np.ones((4, 2))
        X[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            SampleSet.from_array(X)


class TestMMSettings:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            MMSettings(tol=0.0)
        with pytest.raises(InvalidInputError):
            MMSettings(max_iter=0)


class TestTylerCost:
    def test_identity_single_basis_vector(self):
        X = SampleSet.from_array(np.array([[1.0, 0.0]]))
        assert tyler_cost(np.eye(2), X) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        X = _samples(rng, 12, 4)
        R = rand_pd(4, rng)
        base = tyler_cost(R, X)
        assert abs(tyler_cost(7.3 * R, X) - base) <= 1e-9
        for c in (1e-3, 1.0, 1e3):
            assert abs(tyler_cost(c * R, X) - base) <= 1e-9

    def test_per_sample_scale_invariance_of_differences(self):
        # scaling x_i by c_i shifts the cost by the data constant
        # (2K/N) sum log c_i, so what is invariant is every cost difference
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 3))
        R1 = rand_pd(3, rng)
        R2 = rand_pd(3, rng)
        scales = rng.uniform(0.1, 10.0, size=10)
        plain = SampleSet.from_array(X)
        scaled = SampleSet.from_array(X * scales[:, None])
        diff_plain = tyler_cost(R1, plain) - tyler_cost(R2, plain)
        diff_scaled = tyler_cost(R1, scaled) - tyler_cost(R2, scaled)
        assert abs(diff_plain - diff_scaled) <= 1e-9

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_eigenvalue_logdet_oracle(self, complex_):
        rng = np.random.default_rng(3)
        X = _samples(rng, 5, 3, complex_)
        R = rand_pd(3, rng, complex_)
        assert tyler_cost(R, X) == pytest.approx(
            tyler_cost_naive(R, X.data), abs=1e-10
        )

    def test_not_pd_rejected(self):
        X = SampleSet.from_array(np.ones((3, 2)))
        with pytest.raises(InvalidInputError):
            tyler_cost(np.array([[1.0, 2.0], [2.0, 1.0]]), X)


# its lower triangle is the identity's, and a Cholesky factor reads only that
# triangle: only a Hermitian check at the entry point rejects it
_NOT_HERMITIAN = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize(
    "entry",
    [
        tyler_cost,
        weighted_scatter,
        fixed_point_residual,
        lambda R, X: tyler_unconstrained(X, init=R),
        lambda R, X: estimate_spiked(X, 1, init=R),
    ],
    ids=["tyler_cost", "weighted_scatter", "fixed_point_residual", "tyler_init", "spiked_init"],
)
def test_non_hermitian_scatter_rejected(entry):
    X = sample_elliptical(ar_cov(3, 0.5), 30, seed=1)
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        entry(_NOT_HERMITIAN, X)


class TestWeightedScatter:
    def test_single_basis_vector(self):
        X = SampleSet.from_array(np.array([[1.0, 0.0]]))
        M = weighted_scatter(np.eye(2), X)
        assert np.allclose(M, [[2.0, 0.0], [0.0, 0.0]])

    def test_standard_basis_gives_identity(self):
        k = 4
        X = SampleSet.from_array(np.eye(k))
        assert np.allclose(weighted_scatter(np.eye(k), X), np.eye(k))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_naive_loop(self, complex_):
        rng = np.random.default_rng(4)
        X = _samples(rng, 15, 4, complex_)
        R = rand_pd(4, rng, complex_)
        M = weighted_scatter(R, X)
        assert np.allclose(M, weighted_scatter_naive(R, X.data), atol=1e-12)

    def test_per_sample_scale_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((9, 3))
        R = rand_pd(3, rng)
        scales = rng.uniform(0.1, 10.0, size=9)
        a = weighted_scatter(R, SampleSet.from_array(X))
        b = weighted_scatter(R, SampleSet.from_array(X * scales[:, None]))
        assert np.linalg.norm(a - b) <= 1e-9


class TestTylerUnconstrained:
    def test_standard_basis_fixed_point(self):
        k = 4
        with pytest.raises(InvalidInputError):
            tyler_unconstrained(SampleSet.from_array(np.eye(k)))  # N = K is not enough
        # duplicate each basis vector to satisfy N > K; I/K stays the fixed point
        X = SampleSet.from_array(np.vstack([np.eye(k), np.eye(k)]))
        res = tyler_unconstrained(X)
        assert np.allclose(res.scatter, np.eye(k) / k, atol=1e-12)
        assert res.termination == "converged"

    def test_scaled_basis_gives_identity(self):
        k = 3
        rows = [100.0 * np.eye(k)[i % k] for i in range(2 * k)]
        X = SampleSet.from_array(np.array(rows))
        res = tyler_unconstrained(X)
        assert np.allclose(res.scatter, np.eye(k) / k, atol=1e-9)
        assert res.termination == "converged"

    def test_heavy_tailed_recovery(self):
        R0 = np.diag([3.0, 2.0, 1.0]) / 6.0
        X = sample_elliptical(R0, 50, seed=11)
        res = tyler_unconstrained(X)
        assert nmse([res.scatter], R0) <= 0.1
        assert fixed_point_residual(res.scatter, X) <= 1e-6

    def test_init_invariance(self):
        rng = np.random.default_rng(6)
        X = sample_elliptical(ar_cov(4, 0.5), 60, seed=12)
        results = []
        for _ in range(5):
            init = rand_pd(4, rng)
            results.append(tyler_unconstrained(X, init=init).scatter)
        for R in results[1:]:
            assert np.linalg.norm(R - results[0]) <= 1e-6

    def test_descent_and_trace(self):
        X = sample_elliptical(ar_cov(5, 0.6), 80, seed=13)
        res = tyler_unconstrained(X)
        assert nonincreasing(res.objective_trace)
        assert abs(np.trace(res.scatter) - 1.0) <= 1e-12

    def test_degenerate_samples_fail(self):
        # all samples confined to a 2-dim subspace of R^3
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((50, 2))
        X = SampleSet.from_array(Z @ np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(FailedToConvergeError):
            tyler_unconstrained(X)

    def test_max_iter_termination_not_an_error(self):
        X = sample_elliptical(ar_cov(4, 0.5), 50, seed=14)
        res = tyler_unconstrained(X, MMSettings(tol=1e-16, max_iter=3))
        assert res.termination == "max_iter"
        assert res.iterations == 3


class TestMMDrive:
    def test_identity_callback_terminates_immediately(self):
        X = sample_elliptical(ar_cov(3, 0.4), 30, seed=15)
        res = mm_drive(
            inner=lambda params, it: params,
            space=_Whitening(X),
            init_params=np.eye(3) / 3,
        )
        assert res.iterations == 1
        assert res.termination == "converged"
        assert np.allclose(res.objective_trace, res.objective_trace[0])

    def test_weighted_scatter_callback_reproduces_tyler(self):
        X = sample_elliptical(ar_cov(4, 0.6), 70, seed=16)
        settings = MMSettings()
        direct = tyler_unconstrained(X, settings)
        via_driver = mm_drive(
            inner=lambda params, it: it.M,
            space=_Whitening(X),
            init_params=np.eye(4) / 4,
            settings=settings,
        )
        assert np.array_equal(direct.objective_trace, via_driver.objective_trace)
        assert np.array_equal(direct.scatter, via_driver.scatter)
        assert fixed_point_residual(via_driver.scatter, X) <= 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_geometric_mean_callback_descends(self, seed):
        # the geometric mean of R_t and M_t minimizes the linearized
        # surrogate over all PD matrices, so it is a valid MM step
        X = sample_elliptical(ar_cov(4, 0.5), 40, seed=100 + seed)
        res = mm_drive(
            inner=lambda params, it: pd_geometric_mean(it.R, it.M),
            space=_Whitening(X),
            init_params=np.eye(4) / 4,
            settings=MMSettings(max_iter=200),
        )
        assert nonincreasing(res.objective_trace)

    def test_callback_failure_carries_iteration(self):
        X = sample_elliptical(ar_cov(3, 0.4), 30, seed=17)

        def bad(params, it):
            raise InvalidInputError("nope")

        with pytest.raises(InvalidInputError) as err:
            mm_drive(inner=bad, space=_Whitening(X), init_params=np.eye(3) / 3)
        assert err.value.mm_iteration == 1

    def test_bad_init_rejected(self):
        X = sample_elliptical(ar_cov(3, 0.4), 30, seed=18)
        with pytest.raises(InvalidInputError):
            mm_drive(
                inner=lambda p, it: it.M,
                space=_Whitening(X),
                init_params=np.array([[1.0, 2.0, 0], [2.0, 1.0, 0], [0, 0, 1.0]]),
            )

    @pytest.mark.parametrize("k_init", [2, 4])
    def test_init_of_wrong_dimension_rejected(self, k_init):
        X = sample_elliptical(ar_cov(3, 0.4), 30, seed=18)
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            mm_drive(
                inner=lambda p, it: it.M, space=_Whitening(X), init_params=np.eye(k_init) / k_init
            )

    @pytest.mark.parametrize("complex_", [False, True])
    def test_iterate_matches_naive_cost_and_scatter(self, complex_):
        rng = np.random.default_rng(19)
        X = _samples(rng, 40, 5, complex_)
        seen = []

        def record(params, it):
            seen.append(it)
            return it.M

        res = mm_drive(inner=record, space=_Whitening(X), init_params=np.eye(5) / 5)
        assert len(seen) == res.iterations
        for t, it in enumerate(seen):
            M = weighted_scatter_naive(it.R, X.data)
            assert np.linalg.norm(it.M - M) <= 1e-13 * np.linalg.norm(M)
            assert abs(res.objective_trace[t] - tyler_cost_naive(it.R, X.data)) <= 1e-12

    def test_cost_of_an_iterate_reuses_its_factor(self):
        from structcov.tyler import Iterate

        rng = np.random.default_rng(23)
        X = _samples(rng, 20, 3, complex_=True)
        R = rand_pd(3, rng, complex_=True)
        it = Iterate.at(R, X)
        assert tyler_cost(it, X) == tyler_cost(R, X)
        other = SampleSet.from_array(X.data.copy())
        with pytest.raises(InvalidInputError, match="different sample set"):
            tyler_cost(it, other)

    def test_iterate_solves_complex_operands_of_a_real_factor(self):
        from structcov.tyler import Iterate

        rng = np.random.default_rng(20)
        X = _samples(rng, 20, 3)
        it = Iterate.at(rand_pd(3, rng), X)
        B = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.allclose(it.chol @ it.solve(B), B, atol=1e-13)
        assert np.allclose(it.inverse() @ it.R, np.eye(3), atol=1e-12)


def _count_factorizations(monkeypatch):
    """Count every dense Cholesky factorization, wherever structcov bound the name."""
    import sys

    import scipy.linalg

    calls = []
    targets = [(np.linalg, "cholesky"), (scipy.linalg, "cholesky"), (scipy.linalg, "cho_factor")]
    for owner, attr in targets:
        original = getattr(owner, attr)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        holders = [owner] + [m for n, m in list(sys.modules.items()) if n.startswith("structcov")]
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize(
    "estimator", ["tyler", "rankone", "toeplitz", "kronecker-mm", "kronecker-gs"]
)
def test_one_factorization_per_iterate(estimator, record_trace, monkeypatch):
    from structcov import (
        RankOneDictionary,
        doa_cov,
        estimate_kronecker,
        estimate_rank_one,
        estimate_toeplitz,
        ula_dictionary,
    )

    settings = MMSettings(max_iter=200, record_trace=record_trace)
    if estimator == "rankone":
        X = sample_elliptical(doa_cov(6, [-20.0, 30.0], [1.0, 1.0], 0.1), 30, seed=21)
        dictionary = RankOneDictionary.augment(ula_dictionary(6, 10.0))
        fit = lambda: estimate_rank_one(dictionary, X, settings)  # noqa: E731
    elif estimator.startswith("kronecker"):
        X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, seed=24)
        method = estimator.split("-")[1]
        fit = lambda: estimate_kronecker(X, 3, 4, settings, method=method)  # noqa: E731
    else:
        X = sample_elliptical(ar_cov(6, 0.6), 40, seed=22)
        fit = {
            "tyler": lambda: tyler_unconstrained(X, settings),
            "toeplitz": lambda: estimate_toeplitz(X, settings),
        }[estimator]
    calls = _count_factorizations(monkeypatch)
    trials = []
    if estimator.startswith("kronecker"):
        import structcov.kronecker as kron_mod

        normalize = kron_mod._FactorSpace.normalize

        def counted(params):
            if isinstance(params, tuple):
                trials.append(1)
            return normalize(params)

        monkeypatch.setattr(kron_mod._FactorSpace, "normalize", staticmethod(counted))
    res = fit()
    assert res.details.get("epsilon", 0.0) == 0.0
    if estimator.startswith("kronecker"):
        # the pair (A, B) is checked PD, one Cholesky factor each, when the
        # initial factors are built and normalized, once by every step and
        # once for every extrapolated trial (a tuple of blocks); mm_drive's
        # iterates reuse these checks. No trial on this draw fails its PD
        # check, which would stop at A's factor: mm takes
        # 68 = 2 * (24 + 2 + 8 trials) factors, gs 28 = 2 * (11 + 2 + 1).
        assert res.iterations > 2 and trials
        assert res.details["squarem_rejected"] == 0
        assert len(calls) == 2 * (res.iterations + 2 + len(trials))
        return
    # a rank-one trial is clipped, never refused before its factor, so each
    # rejected trial was factored once
    rejected = res.details["squarem_rejected"] if estimator == "rankone" else 0
    assert len(calls) == res.iterations + 1 + rejected
