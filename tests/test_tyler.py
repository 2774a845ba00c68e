import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from support import count_calls, nonincreasing, rand_pd, tyler_cost_naive, weighted_scatter_naive


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

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_a_map_without_a_positive_trace_stops_the_fit(self, at):
        """A scatter of negative trace has no unit-trace point: the fit stops at that map."""
        X = sample_elliptical(ar_cov(3, 0.4), 30, seed=17)
        maps = []

        def flipped(params, it):
            maps.append(1)
            return -it.M if len(maps) == at else it.M

        with pytest.raises(FailedToConvergeError, match="usable scale") as err:
            mm_drive(inner=flipped, space=_Whitening(X), init_params=np.eye(3) / 3,
                     settings=MMSettings(tol=1e-14))
        assert err.value.diagnostics["iteration"] == at == len(maps)

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
        # real samples meet a complex scatter as complex samples: the
        # iterate belongs to them, and still not to a copy of them
        Y = _samples(rng, 20, 3, complex_=False)
        it = Iterate.at(R, Y)
        assert tyler_cost(it, Y) == tyler_cost(R, Y)
        with pytest.raises(InvalidInputError, match="different sample set"):
            tyler_cost(it, SampleSet.from_array(Y.data.copy()))


def _mixed_field_calls():
    """name -> call(samples) of each public entry a complex operand can meet real samples at."""
    from structcov import (
        RankOneDictionary,
        estimate_linear,
        estimate_rank_one,
        hermitian_basis,
        ula_dictionary,
    )

    R = rand_pd(4, np.random.default_rng(24), complex_=True)
    dictionary = RankOneDictionary.augment(ula_dictionary(4, 10.0))
    return {
        "linear": lambda X: estimate_linear(hermitian_basis(4), X),
        "rankone": lambda X: estimate_rank_one(dictionary, X),
        "tyler": lambda X: tyler_unconstrained(X, init=R),
        "spiked": lambda X: estimate_spiked(X, 1, init=R),
        "cost": lambda X: tyler_cost(R, X),
        "scatter": lambda X: weighted_scatter(R, X),
    }


MIXED_FIELD_CALLS = _mixed_field_calls()


@pytest.mark.parametrize("name", list(MIXED_FIELD_CALLS))
def test_real_samples_meet_a_complex_operand_as_complex_samples(name):
    # the field is fixed once, at the boundary: real samples become complex
    call = MIXED_FIELD_CALLS[name]
    X = sample_elliptical(ar_cov(4, 0.6), 30, seed=25)
    got, want = call(X), call(X.to_complex())
    if isinstance(want, float):
        assert got == want
        return
    if isinstance(want, np.ndarray):
        got, want = [got], [want]
    else:
        assert (got.iterations, got.termination) == (want.iterations, want.termination)
        got = [got.scatter, got.params, got.objective_trace]
        want = [want.scatter, want.params, want.objective_trace]
    for a, b in zip(got, want):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))
    assert np.iscomplexobj(got[0])


@pytest.mark.parametrize("fields", ["real", "complex", "mixed"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       log_c=st.floats(min_value=-3.0, max_value=3.0))
def test_scale_of_the_scatter(fields, seed, log_c):
    # the cost is scale invariant in R and the weighted scatter scales with
    # it; "mixed" is a complex R on real samples
    rng = np.random.default_rng(seed)
    X = _samples(rng, 20, 4, complex_=fields == "complex")
    R = rand_pd(4, rng, complex_=fields != "real")
    c = 10.0 ** log_c
    cost = tyler_cost(R, X)
    assert abs(tyler_cost(c * R, X) - cost) <= 1e-9 * (1.0 + abs(cost))
    M = weighted_scatter(R, X)
    assert np.linalg.norm(weighted_scatter(c * R, X) - c * M) <= 1e-12 * c * np.linalg.norm(M)


def _count_factorizations(monkeypatch):
    """Count every dense Cholesky factorization, wherever structcov bound the name."""
    import scipy.linalg
    import scipy.linalg.lapack

    targets = [(np.linalg, "cholesky"), (scipy.linalg, "cholesky"), (scipy.linalg, "cho_factor"),
               (scipy.linalg.lapack, "dpotrf"), (scipy.linalg.lapack, "zpotrf")]
    return count_calls(monkeypatch, targets)


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
    if estimator == "toeplitz":
        import structcov.linear

        fit()  # builds the structure of the powers, once per (K, L, field)
    calls = _count_factorizations(monkeypatch)
    if estimator == "toeplitz":
        # each map's surrogate pieces, its line-search trials and the factors
        # the step takes, in call order
        steps = count_calls(monkeypatch, [(structcov.linear, "_surrogate_pieces"),
                                          (structcov.linear, "_surrogate_value")])
        chol = structcov.linear.chol_pd
        monkeypatch.setattr(structcov.linear, "chol_pd",
                            lambda M, *args: steps.append("chol_pd") or chol(M, *args))
    if estimator == "rankone":
        import structcov.rankone

        # each map's surrogate pieces at its iterate, then per interior-point
        # step the factor of its Newton matrix, the factor of each trial
        # and the pieces at the trial taken, in call order
        steps = count_calls(monkeypatch, [(structcov.rankone, "_surrogate_pieces")])
        chol = structcov.rankone.chol_pd
        monkeypatch.setattr(structcov.rankone, "chol_pd",
                            lambda M, *args: steps.append("chol_pd") or chol(M, *args))
    if estimator.startswith("kronecker"):
        import scipy.linalg

        import structcov.kronecker as kron_mod
        import structcov.linalg

        # the dense inverses, solves, log-determinants and eigendecompositions
        work = count_calls(monkeypatch, [
            *((np.linalg, name) for name in ("inv", "solve", "slogdet", "eigh")),
            *((scipy.linalg, name) for name in ("inv", "solve", "eigh"))])
        space = kron_mod.ReshapedSamples
        normalize, normalized = space.normalize, []
        monkeypatch.setattr(space, "normalize",
                            lambda self, params: normalized.append(1) or normalize(self, params))
        # Hermitian checks and the iterates the space builds, in call order
        order = count_calls(monkeypatch, [(structcov.linalg, "check_hermitian"),
                                          (space, "__call__")])
    res = fit()
    assert res.details.get("epsilon", 0.0) == 0.0
    if estimator.startswith("kronecker"):
        # the space normalizes the start, every map's pair and every trial
        trials = len(normalized) - res.iterations - 1
        assert res.iterations > 2 and trials > 0
        assert res.details["squarem_rejected"] == 0
        built = order.count("__call__")
        # one Cholesky factor per factor of every iterate the space builds,
        # and one each when the initial pair is built. No iterate on this
        # draw fails its PD check, which would stop at A's factor.
        assert len(calls) == 2 * (built + 1)
        # the space builds the start, every trial and every map's pair but
        # the x2 each taken trial replaces, 1 + trials + (iterations - trials):
        # mm takes 50 = 2 * (23 + 2) factors, gs 26 = 2 * (11 + 2) (28 when
        # each step built a checked pair)
        assert built == 1 + res.iterations
        # the initial pair's Hermitian checks are the only ones: nothing
        # checks a factor Hermitian once the space builds the start
        assert order.count("check_hermitian") == 2
        assert "check_hermitian" not in order[order.index("__call__"):]
        # a map whitens by the new A, its one unfactored matrix, and the
        # iterate's factors serve everything else: a block-MM map makes one
        # inverse and one eigendecomposition per geometric mean; a
        # Gauss-Seidel map inverts each factor along its inner loop
        assert work.count("slogdet") == work.count("solve") == 0
        if method == "mm":
            assert (work.count("inv"), work.count("eigh")) == (res.iterations, 2 * res.iterations)
        else:
            assert work.count("eigh") == 0 and work.count("inv") > res.iterations
        return
    if estimator == "rankone":
        # a step factors its Newton matrix right after the pieces of its
        # iterate or of the last step's trial, then each trial until one has
        # a factor, and takes the pieces there. Every map here steps and ends
        # below the surrogate at its iterate: 18 maps take 88 steps, whose 88
        # Newton matrices and 88 trials are factored beside the 19 iterates
        # and the 2 SQUAREM trials rejected on their cost after their factor
        # (a rank-one trial is clipped, never refused before its factor),
        # 197 in all
        newton = trials = 0
        for before, name in zip(["_surrogate_pieces", *steps], steps):
            if name == "chol_pd":
                newton += before == "_surrogate_pieces"
                trials += before == "chol_pd"
        taken = steps.count("_surrogate_pieces") - res.iterations
        assert taken == res.details["inner_steps"] and res.details["newton_fallbacks"] == 0
        assert (res.iterations, taken, newton, trials) == (18, 88, 88, 88)
        rejected = res.details["squarem_rejected"]
        assert rejected == 2
        assert len(calls) == res.iterations + 1 + rejected + newton + trials == 197
        return
    rejected = 0
    if estimator == "toeplitz":
        # the fit factors its samples' Gram matrix once, to decide the barrier;
        # a map that steps factors g's Hessian, f's when g's has none, and
        # each line-search trial. Every map here steps: 15 maps, 15 steps (the
        # first on f's Hessian) and 15 trials factor 1 + 15 + 1 + 15 = 32
        # beside the 16 iterates and the 2 SQUAREM trials rejected on their
        # cost after their factor, 50 in all
        maps, trials = steps.count("_surrogate_pieces"), steps.count("_surrogate_value")
        hessians = []
        for i, name in enumerate(steps):
            if name == "_surrogate_pieces":
                factored = 0
                while i + 1 + factored < len(steps) and steps[i + 1 + factored] == "chol_pd":
                    factored += 1
                hessians.append(factored)
        stepped, convex = sum(h > 0 for h in hessians), hessians.count(2)
        assert maps == res.iterations and res.details["newton_fallbacks"] == 0
        assert (res.iterations, stepped, convex, trials) == (15, 15, 1, 15)
        rejected = res.details["squarem_rejected"]
        assert rejected == 2
        assert len(calls) == res.iterations + 1 + rejected + 1 + stepped + convex + trials == 50
        return
    assert len(calls) == res.iterations + 1 + rejected
