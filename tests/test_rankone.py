import numpy as np
import pytest

import structcov.rankone
import structcov.toeplitz
from structcov import (
    FailedToConvergeError,
    InvalidInputError,
    MMSettings,
    RankOneDictionary,
    SampleSet,
    angles_recovered,
    diagonal_basis,
    doa_cov,
    estimate_banded_toeplitz,
    estimate_linear,
    estimate_rank_one,
    estimate_toeplitz,
    music_spectrum,
    sample_elliptical,
    ula_dictionary,
)
from structcov.linear import PowerBound, Powers
from structcov.rankone import (
    _clip_to_floor,
    _refuse_below_floor,
    _weights,
    check_powers,
    power_update,
    surrogate_params,
)
from structcov.simulate import ar_cov
from structcov.toeplitz import build_embedding
from structcov.tyler import Iterate
from support import (linear_surrogate_naive, nonincreasing, rank_one_gradient,
                     weighted_scatter_naive)


def _random_dictionary(rng, k=4, l=9, complex_=True):
    A = rng.standard_normal((k, l))
    if complex_:
        A = A + 1j * rng.standard_normal((k, l))
    return RankOneDictionary(atoms=A)


class TestDictionary:
    def test_square_unaugmented_rejected(self):
        with pytest.raises(InvalidInputError):
            RankOneDictionary(atoms=np.eye(4))

    def test_zero_atom_rejected(self):
        A = np.random.default_rng(0).standard_normal((3, 5))
        A[:, 2] = 0.0
        with pytest.raises(InvalidInputError):
            RankOneDictionary(atoms=A)

    def test_dependent_columns_caught(self):
        # two copies of the same atom in a tiny dictionary
        A = np.random.default_rng(1).standard_normal((3, 4))
        A[:, 3] = A[:, 0]
        with pytest.raises(InvalidInputError):
            RankOneDictionary(atoms=A)

    def test_augmented_from_empty(self):
        d = RankOneDictionary.augment(np.empty((4, 0)))
        assert d.k == 4 and d.l == 4
        assert np.allclose(d.atoms, np.eye(4))

    def test_augmented_shape(self):
        rng = np.random.default_rng(2)
        d = RankOneDictionary.augment(rng.standard_normal((3, 7)))
        assert d.l == 10 and d.augmented


class TestSurrogateParams:
    def test_identity_case(self):
        d = RankOneDictionary.augment(np.empty((3, 0)))
        X = SampleSet.from_array(np.vstack([np.eye(3), np.eye(3)]))
        R_t, M_t, w, d_t = surrogate_params(d, np.ones(3), X)
        assert np.allclose(R_t, np.eye(3))
        assert np.allclose(M_t, np.eye(3))
        assert np.allclose(w, np.ones(3))
        assert np.allclose(d_t, np.ones(3))

    def test_power_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        d = _random_dictionary(rng)
        X = SampleSet.from_array(
            rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        )
        p = rng.uniform(0.5, 2.0, size=d.l)
        c = 3.7
        _, _, w1, d1 = surrogate_params(d, p, X)
        _, _, w2, d2 = surrogate_params(d, c * p, X)
        assert np.allclose(w2, w1 / c, rtol=1e-10)
        assert np.allclose(d2, c * d1, rtol=1e-10)

    def test_matches_naive_formulas(self):
        rng = np.random.default_rng(4)
        d = _random_dictionary(rng, k=4, l=9)
        X = SampleSet.from_array(
            rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        )
        p = rng.uniform(0.5, 2.0, size=9)
        R_t, M_t, w, d_t = surrogate_params(d, p, X)

        A = d.atoms
        R_naive = (A * p) @ A.conj().T
        assert np.allclose(R_t, R_naive, atol=1e-12)
        M_naive = weighted_scatter_naive(R_naive, X.data)
        assert np.allclose(M_t, M_naive, atol=1e-12)
        Ri = np.linalg.inv(R_naive)
        w_naive = np.real(np.diag(A.conj().T @ Ri @ A))
        P = np.diag(p)
        d_naive = np.real(np.diag(P @ A.conj().T @ Ri @ M_naive @ Ri @ A @ P))
        assert np.allclose(w, w_naive, atol=1e-12)
        assert np.allclose(d_t, d_naive, atol=1e-12)

    def test_singular_iterate_is_numerical_failure(self):
        from structcov import NumericalFailureError

        rng = np.random.default_rng(12)
        d = _random_dictionary(rng, k=4, l=9)
        X = SampleSet.from_array(
            rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        )
        p = np.zeros(9)
        p[:2] = 1.0  # rank-2 scatter in dimension 4
        with pytest.raises(NumericalFailureError):
            surrogate_params(d, p, X)

    def test_surrogate_tangency_is_2k(self):
        rng = np.random.default_rng(5)
        d = _random_dictionary(rng, k=5, l=11)
        X = SampleSet.from_array(
            rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
        )
        p = rng.uniform(0.5, 2.0, size=11)
        _, _, w, d_t = surrogate_params(d, p, X)
        tangency = float(w @ p + np.sum(d_t / p))
        assert abs(tangency - 2 * 5) <= 1e-9


class TestWeights:
    @pytest.mark.parametrize("epsilon", [0.0, 1e-6])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_match_dense_formulas(self, complex_, epsilon):
        rng = np.random.default_rng(14)
        d = _random_dictionary(rng, k=5, l=11, complex_=complex_)
        X = SampleSet.from_array(
            rng.standard_normal((30, 5)) + (1j * rng.standard_normal((30, 5)) if complex_ else 0)
        )
        p = rng.uniform(0.5, 2.0, size=11)
        p[[2, 7]] = 0.0  # powers at zero keep only the ridge
        p_eff = p + epsilon
        R = d.assemble(p, epsilon)
        w, d_t = _weights(d.atoms, p_eff, Iterate.at(R, X))

        A = d.atoms
        Ri = np.linalg.inv(R)
        M = weighted_scatter_naive(R, X.data)
        w_dense = np.real(np.diag(A.conj().T @ Ri @ A))
        P = np.diag(p_eff)
        d_dense = np.real(np.diag(P @ A.conj().T @ Ri @ M @ Ri @ A @ P))
        np.testing.assert_allclose(w, w_dense, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d_t, d_dense, rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("case", ["complex", "real", "split"])
    def test_one_gemm_matches_the_explicit_weights(self, case):
        # w = diag(A^H R^-1 A) and d = p^2 diag(A^H R^-1 M R^-1 A) at K=15
        rng = np.random.default_rng(15)
        if case == "split":  # complex half dictionary on real samples, weighed in real pairs
            A = build_embedding(15).half_matrix
            X = sample_elliptical(ar_cov(15, 0.8), 40, seed=4)
        else:
            A = _random_dictionary(rng, k=15, l=40, complex_=case == "complex").atoms
            truth = doa_cov(15, [-20.0, 30.0], [1.0, 1.0], 0.1)
            X = sample_elliptical(truth if case == "complex" else truth.real, 40, seed=4)
        p = rng.uniform(0.5, 2.0, size=A.shape[1])
        R = (A * p) @ A.conj().T
        R = 0.5 * (R + R.conj().T)
        if case == "split":
            R = R.real
        w, d_t = _weights(A, p, Iterate.at(R, X))

        Ri = np.linalg.inv(R)
        M = weighted_scatter_naive(R, X.data)
        w_dense = np.real(np.diag(A.conj().T @ Ri @ A))
        d_dense = p ** 2 * np.real(np.diag(A.conj().T @ Ri @ M @ Ri @ A))
        np.testing.assert_allclose(w, w_dense, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d_t, d_dense, rtol=1e-12, atol=0.0)


class TestPowerUpdate:
    def test_scalar_case(self):
        assert power_update([1.0], [4.0])[0] == pytest.approx(2.0)

    def test_zero_d_gives_zero_power(self):
        p = power_update([2.0, 1.0], [0.0, 9.0])
        assert p[0] == 0.0 and p[1] == pytest.approx(3.0)

    def test_beats_random_search(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0.5, 3.0, size=6)
        d = rng.uniform(0.1, 2.0, size=6)
        p_star = power_update(w, d)
        best = w @ p_star + np.sum(d / p_star)
        # one million random positive candidates
        cand = rng.uniform(0.01, 10.0, size=(1_000_000, 6))
        values = cand @ w + (d / cand).sum(axis=1)
        assert best <= values.min() + 1e-9

    def test_invalid_inputs(self):
        for p in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(InvalidInputError):
                check_powers(np.array(p), 2)


class TestEstimateRankOne:
    def test_empty_dictionary_matches_linear_diagonal(self):
        truth = np.diag([4.0, 2.0, 1.0, 0.5])
        X = sample_elliptical(truth / np.trace(truth), 80, seed=30)
        d = RankOneDictionary.augment(np.empty((4, 0)))
        res_rank = estimate_rank_one(d, X)
        res_lin = estimate_linear(diagonal_basis(4), X)
        assert np.linalg.norm(res_rank.scatter - res_lin.scatter) <= 1e-6

    def test_epsilon_barely_changes_result(self, monkeypatch):
        # the ridge of a restarted fit moves the estimate little
        rng = np.random.default_rng(7)
        atoms = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        d = RankOneDictionary(atoms=atoms)
        R0 = ar_cov(4, 0.5).astype(complex)
        X = sample_elliptical(R0, 40, seed=31)
        res0 = estimate_rank_one(d, X)
        _force_failures(monkeypatch, structcov.rankone, "_capped_solve")({3})
        res1 = estimate_rank_one(d, X)
        assert (res0.details["epsilon"], res1.details["epsilon"]) == (0.0, 1e-10)
        assert np.linalg.norm(res0.scatter - res1.scatter) <= 1e-5

    def test_descent_nonnegativity_trace(self):
        rng = np.random.default_rng(8)
        atoms = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        d = RankOneDictionary(atoms=atoms)
        X = sample_elliptical(ar_cov(4, 0.6).astype(complex), 50, seed=32)
        res = estimate_rank_one(d, X)
        assert nonincreasing(res.objective_trace)
        assert np.all(res.params >= 0.0)
        assert abs(np.trace(res.scatter).real - 1.0) <= 1e-12

    def test_init_invariance(self):
        rng = np.random.default_rng(9)
        atoms = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        d = RankOneDictionary(atoms=atoms)
        X = sample_elliptical(ar_cov(4, 0.5).astype(complex), 60, seed=33)
        settings = MMSettings(tol=1e-10, max_iter=4000)
        scatters = [
            estimate_rank_one(d, X, settings, init_powers=rng.uniform(0.2, 5.0, size=9)).scatter
            for _ in range(5)
        ]
        for R in scatters[1:]:
            assert np.linalg.norm(R - scatters[0]) <= 1e-5

    def test_field_mismatch(self):
        rng = np.random.default_rng(10)
        d = RankOneDictionary(atoms=rng.standard_normal((3, 7)))
        Xc = SampleSet.from_array(
            rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        )
        with pytest.raises(InvalidInputError):
            estimate_rank_one(d, Xc)
        # a dictionary of another K, and starting powers of the wrong length
        with pytest.raises(InvalidInputError, match="dictionary dimension 3"):
            estimate_rank_one(d, SampleSet.from_array(rng.standard_normal((12, 4))))
        with pytest.raises(InvalidInputError):
            estimate_rank_one(d, SampleSet.from_array(Xc.data.real), init_powers=np.ones(8))

    def test_zero_starting_power_rejected(self):
        # the step keeps a zero power at zero: from zeros on the 19 steering
        # atoms the fit would "converge" at cost 4.65, against -5.09 from ones
        d = RankOneDictionary.augment(ula_dictionary(6, 10.0))
        X = sample_elliptical(doa_cov(6, [-20.0, 30.0], [1.0, 1.0], 0.1), 30, seed=1)
        init = np.ones(d.l)
        init[:19] = 0.0
        with pytest.raises(InvalidInputError, match="strictly positive"):
            estimate_rank_one(d, X, init_powers=init)
        assert estimate_rank_one(d, X).objective_trace[-1] < -5.0

    def test_real_data_promoted_for_complex_dictionary(self):
        rng = np.random.default_rng(11)
        atoms = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        d = RankOneDictionary(atoms=atoms)
        X = SampleSet.from_array(rng.standard_normal((20, 3)))
        res = estimate_rank_one(d, X)
        assert np.iscomplexobj(res.scatter)

    def test_doa_scenario_single_instance(self):
        angles = [-10.0, 10.0, 15.0, 35.0, 40.0]
        R0 = doa_cov(15, angles, [1.0] * 5, 0.1)
        X = sample_elliptical(R0, 20, seed=34)
        d = RankOneDictionary.augment(ula_dictionary(15, 5.0))
        res = estimate_rank_one(d, X, MMSettings(tol=1e-6, max_iter=500))
        music = music_spectrum(res.scatter, 5)
        assert angles_recovered(music, angles, 0.25)


class TestCappedSolve:
    """One rank-one map: the capped interior-point solve of the paper's surrogate f."""

    @staticmethod
    def _map(field, floor, seed, at_floor=None):
        # a random iterate of K=6 DOA samples on the augmented complex
        # dictionary, with some powers close to the floor
        rng = np.random.default_rng(seed)
        truth = doa_cov(6, [-20.0, 30.0], [1.0, 1.0], 0.1)
        X = sample_elliptical(truth if field == "complex" else truth.real, 30, seed=40 + seed)
        powers = Powers(DICTIONARY_6.atoms, X.is_complex)
        q = floor + rng.uniform(0.0, 2.0, DICTIONARY_6.l) ** 4
        if at_floor is not None:
            q[at_floor] = floor
        it = Iterate.at(powers.assemble(q), X)
        bound = PowerBound(floor=floor, separable=power_update, powers=powers)
        p = structcov.rankone._capped_solve(bound, q, it)
        return powers, q, p, it, X, bound.tally

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("floor", [0.0, 1e-10])
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_each_map_lowers_the_surrogate_above_the_floor(self, field, floor, seed):
        family, q, p, it, X, tally = self._map(field, floor, seed)
        assert p.shape == q.shape and np.all(p >= floor)
        R_t = family.assemble(q)
        M = weighted_scatter_naive(R_t, X.data)
        assert np.iscomplexobj(M) == (field == "complex")
        f_t = linear_surrogate_naive(family, q, R_t, M)
        assert linear_surrogate_naive(family, p, R_t, M) <= f_t + 1e-12 * abs(f_t)
        # the decrease is the solve's own: no map here takes the separable point
        assert tally["inner_steps"] > 0 and tally["newton_fallbacks"] == 0

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_a_map_that_does_not_lower_the_surrogate_takes_the_separable_point(
            self, field, monkeypatch):
        real_pieces = structcov.rankone._surrogate_pieces
        calls = []

        def pieces(*args, **kwargs):
            # every trial's value reads far above the start's: no step lowers f
            value, w, u, hessian = real_pieces(*args, **kwargs)
            calls.append(1)
            return (value if len(calls) == 1 else value + 1e6), w, u, hessian

        monkeypatch.setattr(structcov.rankone, "_surrogate_pieces", pieces)
        family, q, p, it, X, tally = self._map(field, 1e-10, 0)
        assert tally == {"inner_steps": len(calls) - 1, "newton_fallbacks": 1}
        assert np.array_equal(p, np.maximum(power_update(*_weights(DICTIONARY_6.atoms, q, it)),
                                            1e-10))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_powers_at_the_floor_take_interior_point_steps(self, field, seed):
        # a restart's normalized iterate may put powers at their floor; the
        # solve starts just inside it and still ends at or below f(q)
        family, q, p, it, X, tally = self._map(field, 1e-10, seed, at_floor=[3, 7, 20])
        assert np.all(q[[3, 7, 20]] == 1e-10) and np.all(p >= 1e-10)
        assert tally["inner_steps"] > 0 and tally["newton_fallbacks"] == 0
        R_t = family.assemble(q)
        M = weighted_scatter_naive(R_t, X.data)
        f_t = linear_surrogate_naive(family, q, R_t, M)
        assert linear_surrogate_naive(family, p, R_t, M) <= f_t + 1e-12 * abs(f_t)


@pytest.mark.parametrize("k, n", [(15, 16), (3, 4)])
def test_fits_near_n_equal_k_converge(k, n):
    # two sources on an augmented 5-degree grid, N just above K
    dictionary = RankOneDictionary.augment(ula_dictionary(k, 5.0))
    truth = doa_cov(k, [-20.0, 30.0], [1.0, 1.0], 0.1)
    for draw in range(3):
        X = sample_elliptical(truth, n, np.random.SeedSequence([k, n, draw]), tau_dof=1.0)
        res = estimate_rank_one(dictionary, X)
        assert res.termination == "converged"
        assert nonincreasing(res.objective_trace)
        assert res.details["inner_steps"] > 0


@pytest.mark.parametrize("seed", range(10))
def test_a_dead_coordinate_restarts_with_the_ridge(seed):
    # a coordinate that is zero in every sample drives its identity atom's
    # power toward zero, where the solve's barrier s/y overflows: the map
    # must stop its solve, and the collapsing fit restart with the ridge
    dictionary = RankOneDictionary.augment(ula_dictionary(6, 10.0))
    X = sample_elliptical(ar_cov(6, 0.7), 30, seed).data.copy()
    X[:, seed % 6] = 0.0
    res = estimate_rank_one(dictionary, SampleSet.from_array(X))
    assert res.termination == "converged" and res.details["epsilon"] == 1e-10
    assert np.all(np.isfinite(res.scatter)) and np.isclose(np.trace(res.scatter).real, 1.0)
    assert res.params[dictionary.l - 6 + seed % 6] == 0.0


class TestFloorVetting:
    """The SQUAREM vetting of extrapolated powers: rank-one fits clip, circulant fits refuse."""

    @staticmethod
    def _trial(seed):
        rng = np.random.default_rng(seed)
        x2 = rng.uniform(0.0, 2.0, 40)
        x2[:4] = 0.0  # powers that collapsed to zero
        return rng.uniform(-1.0, 2.0, 40), x2

    @pytest.mark.parametrize("seed", range(5))
    def test_clip_raises_each_power_to_the_floor(self, seed):
        trial, x2 = self._trial(seed)
        clipped = _clip_to_floor(trial, x2)
        floor = 0.1 * x2
        assert clipped is not None
        assert np.all(clipped >= floor)
        above = trial >= floor
        assert np.array_equal(clipped[above], trial[above])
        assert np.array_equal(clipped[~above], floor[~above])

    @pytest.mark.parametrize("seed", range(5))
    def test_refusal_takes_or_refuses_the_whole_trial(self, seed):
        trial, x2 = self._trial(seed)
        assert _refuse_below_floor(trial, x2) is None
        inside = np.maximum(trial, 0.1 * x2)
        assert _refuse_below_floor(inside, x2) is inside

    def test_rank_one_fits_clip_and_circulant_fits_refuse(self, monkeypatch):
        seen = []

        def spy(module, name):
            vet = getattr(module, name)
            monkeypatch.setattr(module, name, lambda t, x2: seen.append(name) or vet(t, x2))

        spy(structcov.rankone, "_clip_to_floor")
        spy(structcov.toeplitz, "_refuse_below_floor")
        X = sample_elliptical(ar_cov(6, 0.5), 40, seed=35)
        estimate_toeplitz(X)
        estimate_banded_toeplitz(X, 2)
        assert set(seen) == {"_refuse_below_floor"}
        seen.clear()
        _fit_rank_one(X)
        assert set(seen) == {"_clip_to_floor"}


# K=6 DOA draws fitted to tol 1e-11. Over seeds 0-7 the largest measured
# max_j p_j |gamma_j| was 1.6e-9 and max_j -gamma_j 6.6e-6; at the default
# tol 1e-8 the latter reaches 3.6e-3
KKT_COMPLEMENTARITY = 1e-8
KKT_DUAL_FEASIBILITY = 5e-5


@pytest.mark.parametrize("seed", range(8))
def test_rank_one_estimate_meets_kkt(seed):
    dictionary = RankOneDictionary.augment(ula_dictionary(6, 10.0))
    X = sample_elliptical(doa_cov(6, [-20.0, 30.0], [1.0, 1.0], 0.1), 30, seed)
    res = estimate_rank_one(dictionary, X, MMSettings(tol=1e-11, max_iter=20000))
    assert res.termination == "converged"
    gamma = rank_one_gradient(dictionary.atoms, res, X)
    assert np.max(res.params * np.abs(gamma)) <= KKT_COMPLEMENTARITY
    assert np.max(-gamma) <= KKT_DUAL_FEASIBILITY


DICTIONARY_6 = RankOneDictionary.augment(ula_dictionary(6, 10.0))


def _fit_rank_one(X, **kwargs):
    return estimate_rank_one(DICTIONARY_6, X, MMSettings(max_iter=60), **kwargs)


# estimator, the module attribute holding the inner solve it calls, and
# assemble(params, epsilon) of its structure
RESTART_CASES = {
    "rankone": (_fit_rank_one, structcov.rankone, "power_update", DICTIONARY_6.assemble),
    "toeplitz": (
        estimate_toeplitz, structcov.toeplitz, "power_update", build_embedding(6).assemble
    ),
    "banded": (
        lambda X, **kwargs: estimate_banded_toeplitz(X, 2, **kwargs),
        structcov.toeplitz,
        "banded_inner_update",
        build_embedding(6).assemble,
    ),
}


def _force_failures(monkeypatch, module, attr):
    """Wrap ``module.attr`` for the test; the returned arm(calls) makes those calls raise.

    Calls are counted from the last arm(), across a fit and its restart.
    """
    solve = getattr(module, attr)
    calls, fail_at = [], set()

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) in fail_at:
            raise FailedToConvergeError("forced")
        return solve(*args, **kwargs)

    def arm(fail):
        calls.clear()
        fail_at.clear()
        fail_at.update(fail)

    monkeypatch.setattr(module, attr, flaky)
    return arm


# the step whose powers a fit takes on every map, where RESTART_CASES names
# another: a Toeplitz map forms the separable point, but takes the bounded
# Newton step unless its line search fails; a rank-one map forms that
# point only when its interior-point solve does not lower the surrogate
TAKEN_EVERY_MAP = {"toeplitz": (structcov.toeplitz, "inner_update"),
                   "rankone": (structcov.rankone, "_capped_solve")}


@pytest.mark.parametrize("name", list(RESTART_CASES))
def test_collapsed_powers_restart_with_the_ridge(name, monkeypatch):
    """An inner step whose powers are all zero fails the run, which restarts with the ridge."""
    fit, module, attr, _assemble = RESTART_CASES[name]
    module, attr = TAKEN_EVERY_MAP.get(name, (module, attr))
    X = sample_elliptical(ar_cov(6, 0.5), 40, seed=31)
    arm = _force_failures(monkeypatch, module, attr)
    arm({3})
    raised = fit(X)
    solve, calls = getattr(module, attr), []

    def collapsing(*args, **kwargs):
        calls.append(1)
        powers = solve(*args, **kwargs)
        return np.zeros_like(powers) if len(calls) == 3 else powers

    arm(set())
    monkeypatch.setattr(module, attr, collapsing)
    res = fit(X)
    assert res.details["epsilon"] == 1e-10
    assert res.iterations == raised.iterations
    assert np.array_equal(res.scatter, raised.scatter)


@pytest.mark.parametrize("name", list(RESTART_CASES))
def test_epsilon_ridge_restart(name, monkeypatch):
    fit, module, attr, assemble = RESTART_CASES[name]
    module, attr = TAKEN_EVERY_MAP.get(name, (module, attr))
    arm = _force_failures(monkeypatch, module, attr)
    X = sample_elliptical(ar_cov(6, 0.5), 40, seed=31)

    def run(fail):
        arm(fail)
        return fit(X)

    # an inner step of the first run fails and the fit restarts with the ridge
    res = run({3})
    assert res.details["epsilon"] == 1e-10
    assert abs(np.trace(res.scatter).real - 1.0) <= 1e-12
    assert nonincreasing(res.objective_trace)
    # the reported powers and ridge reassemble the scatter
    assert np.all(res.params >= 0.0)
    R = assemble(res.params, res.details["epsilon"])
    assert np.linalg.norm(R / np.trace(R).real - res.scatter) <= 1e-12 * np.linalg.norm(res.scatter)
    # the restart starts afresh: where the first run failed does not matter
    later = run({5})
    assert res.iterations == later.iterations
    assert np.array_equal(res.scatter, later.scatter)
    assert np.array_equal(res.objective_trace, later.objective_trace)

    # no ridge without a failure, and only one restart
    assert run(set()).details["epsilon"] == 0.0
    with pytest.raises(FailedToConvergeError):
        run({3, 5})
