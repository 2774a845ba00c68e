"""The extrapolated MM driver: invariances, descent and where extrapolation runs.

``mm_drive`` runs safeguarded SQUAREM cycles by default. The properties
below are those of the estimators themselves (the paper's scale and
permutation invariances, unit trace, monotone descent of the cost), so
they must survive the extrapolation; hypothesis draws the data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import structcov.kronecker
import structcov.rankone
import structcov.spiked
import structcov.toeplitz
import structcov.tyler
from structcov import (
    InvalidInputError,
    MMSettings,
    RankOneDictionary,
    SampleSet,
    doa_cov,
    estimate_banded_toeplitz,
    estimate_kronecker,
    estimate_linear,
    estimate_rank_one,
    estimate_spiked,
    estimate_toeplitz,
    mm_drive,
    sample_elliptical,
    toeplitz_basis,
    tyler_unconstrained,
    ula_dictionary,
)
from structcov.simulate import ar_cov
from structcov.toeplitz import CirculantEmbedding
from structcov.tyler import _Whitening
from support import nonincreasing, rand_pd

K = 5
N = 30
DOA_K = 6
DICTIONARY = RankOneDictionary.augment(ula_dictionary(DOA_K, 10.0))
TOEPLITZ = toeplitz_basis(K)
RANK_ONE_SETTINGS = MMSettings(max_iter=300)
# Extrapolation makes the path of a fit depend on roundoff (a trial that
# passes its checks by 1e-15 may fail them on permuted samples), so the
# invariances are checked at the estimate, not at a truncated path: on these
# rank-one inputs (40 seeds), fits converged to tol 1e-8 end up to 1.5e-8
# apart (2.8e-5 when each map was the separable step); at this tol, up to 2.2e-9.
CONVERGED = MMSettings(tol=1e-11, max_iter=20000)


def _ar_samples(seed):
    return sample_elliptical(ar_cov(K, 0.7), N, seed)


def _doa_samples(seed):
    return sample_elliptical(doa_cov(DOA_K, [-20.0, 30.0], [1.0, 1.0], 0.1), N, seed)


# name -> (draw samples from a seed, fit(samples, settings))
FITS = {
    "tyler": (_ar_samples, tyler_unconstrained),
    "toeplitz": (_ar_samples, estimate_toeplitz),
    "rankone": (_doa_samples, lambda X, s=RANK_ONE_SETTINGS: estimate_rank_one(DICTIONARY, X, s)),
    "linear": (_ar_samples, lambda X, s=None: estimate_linear(TOEPLITZ, X, s)),
}

seeds = st.integers(min_value=0, max_value=2**32 - 1)
property_settings = settings(max_examples=8, deadline=None, derandomize=True)


def _rel(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.mark.parametrize("name", list(FITS))
@property_settings
@given(seed=seeds, spread=st.floats(min_value=0.0, max_value=3.0))
def test_per_sample_scaling_leaves_the_scatter(name, seed, spread):
    draw, fit = FITS[name]
    X = draw(seed)
    scales = 10.0 ** np.random.default_rng(seed).uniform(-spread, spread, X.n)
    scaled = SampleSet.from_array(X.data * scales[:, None])
    assert _rel(fit(scaled, CONVERGED).scatter, fit(X, CONVERGED).scatter) <= 1e-6


@pytest.mark.parametrize("name", list(FITS))
@property_settings
@given(seed=seeds)
def test_sample_order_leaves_the_scatter(name, seed):
    draw, fit = FITS[name]
    X = draw(seed)
    order = np.random.default_rng(seed).permutation(X.n)
    permuted = SampleSet.from_array(X.data[order])
    assert _rel(fit(permuted, CONVERGED).scatter, fit(X, CONVERGED).scatter) <= 1e-6


@pytest.mark.parametrize("name", list(FITS))
@property_settings
@given(seed=seeds)
def test_trace_one_and_descent(name, seed):
    draw, fit = FITS[name]
    res = fit(draw(seed))
    assert abs(np.trace(res.scatter).real - 1.0) <= 1e-12
    assert len(res.objective_trace) == res.iterations + 1
    assert nonincreasing(res.objective_trace)


def _random_start(name, seed):
    """A fit of ``name`` from a random feasible start."""
    rng = np.random.default_rng(seed)
    if name == "tyler":
        X = _ar_samples(seed)
        return tyler_unconstrained(X, init=rand_pd(K, rng))
    if name == "rankone":
        init = rng.uniform(0.01, 2.0, DICTIONARY.l)
        return estimate_rank_one(DICTIONARY, _doa_samples(seed), RANK_ONE_SETTINGS,
                                 init_powers=init)
    if name == "linear":
        # a diagonally dominant Toeplitz matrix is positive definite
        coeffs = np.concatenate([[K], rng.uniform(-1.0, 1.0, K - 1)])
        return estimate_linear(TOEPLITZ, _ar_samples(seed), init_coeffs=coeffs)
    # Toeplitz: the runner of estimate_toeplitz, its bounded Newton step on
    # the half-dictionary powers, from a positive half spectrum
    emb = CirculantEmbedding.build(K)
    init = rng.uniform(0.01, 2.0, emb.n_folded)
    powers = structcov.toeplitz._power_structure(K, emb.l, False)
    return structcov.rankone._restarting(
        structcov.toeplitz._newton(powers, _ar_samples(seed), None), init, emb.identity_spectrum,
    )


@pytest.mark.parametrize("name", list(FITS))
@property_settings
@given(seed=seeds)
def test_descent_from_random_feasible_starts(name, seed):
    res = _random_start(name, seed)
    assert abs(np.trace(res.scatter).real - 1.0) <= 1e-12
    assert nonincreasing(res.objective_trace)


@pytest.mark.parametrize("name", [*FITS, "banded"])
def test_the_cost_trace_does_not_change_the_fit(name, monkeypatch):
    """Without a trace fewer costs are evaluated, and the fit is bit for bit the same."""
    draw, fit = FITS.get(name, (_ar_samples, lambda X, s: estimate_banded_toeplitz(X, 2, s)))
    X = draw(2)
    calls = []
    cost = structcov.tyler.tyler_cost
    monkeypatch.setattr(structcov.tyler, "tyler_cost", lambda *a: calls.append(1) or cost(*a))
    traced = fit(X, MMSettings(tol=1e-7, max_iter=300))
    traced_calls = len(calls)
    untraced = fit(X, MMSettings(tol=1e-7, max_iter=300, record_trace=False))
    assert len(calls) - traced_calls < traced_calls
    assert len(untraced.objective_trace) == 0
    assert traced.details["squarem_cycles"] > 0
    assert untraced.iterations == traced.iterations
    assert np.array_equal(untraced.scatter, traced.scatter)
    if traced.params is None:
        assert untraced.params is None
    else:
        assert np.array_equal(untraced.params, traced.params)


# a real fit lies in the complex model, so a fit of the same samples as
# complex numbers reaches the same estimate; the paths may differ by roundoff
EMBEDDED = {
    "tyler": tyler_unconstrained,
    "toeplitz": estimate_toeplitz,
    "banded": lambda X, s: estimate_banded_toeplitz(X, 2, s),
}


@pytest.mark.parametrize("name", list(EMBEDDED))
@property_settings
@given(seed=seeds)
def test_real_fit_agrees_with_the_complex_fit_of_the_same_samples(name, seed):
    fit = EMBEDDED[name]
    X = _ar_samples(seed)
    settings_ = MMSettings(tol=1e-10, max_iter=20000)
    real = fit(X, settings_)
    cplx = fit(X.to_complex(), settings_)
    assert real.scatter.dtype == np.float64 and cplx.scatter.dtype == np.complex128
    assert abs(real.objective_trace[-1] - cplx.objective_trace[-1]) <= 1e-9
    assert _rel(cplx.scatter, real.scatter) <= 1e-6


def test_spiked_fits_extrapolate_by_projection(monkeypatch):
    # each trial is projected back onto the spiked set before its checks
    X = sample_elliptical(ar_cov(8, 0.7), 40, 9)
    tight = MMSettings(tol=1e-10, max_iter=20000)
    fast = estimate_spiked(X, 2, tight)
    # the same fit as plain MM
    monkeypatch.setattr(
        structcov.spiked, "mm_drive",
        lambda *args, **kwargs: mm_drive(*args, **{**kwargs, "extrapolate": None}),
    )
    plain = estimate_spiked(X, 2, tight)
    assert plain.details["squarem_cycles"] == 0 and fast.details["squarem_cycles"] > 0
    assert fast.termination == plain.termination == "converged"
    assert fast.iterations < plain.iterations
    assert abs(fast.objective_trace[-1] - plain.objective_trace[-1]) <= 1e-9
    assert nonincreasing(fast.objective_trace)


ONE_DIMENSIONAL = {
    "tyler": tyler_unconstrained,
    "toeplitz": estimate_toeplitz,
    "banded": lambda X: estimate_banded_toeplitz(X, 0),
    "linear": lambda X: estimate_linear(toeplitz_basis(1), X),
    "rankone": lambda X: estimate_rank_one(
        RankOneDictionary.augment(ula_dictionary(1, 30.0)), X
    ),
    "kron_mm": lambda X: estimate_kronecker(X, 1, 1, method="mm"),
    "kron_gs": lambda X: estimate_kronecker(X, 1, 1, method="gs"),
}


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("name", list(ONE_DIMENSIONAL))
def test_one_dimensional_fits_run_the_driver(name, complex_):
    """At K=1 every fit is the scalar 1, reached and reported by mm_drive."""
    X = sample_elliptical(np.ones((1, 1), dtype=complex if complex_ else float), 8, 5)
    res = ONE_DIMENSIONAL[name](X)
    assert res.scatter.shape == (1, 1)
    assert abs(res.scatter[0, 0] - 1.0) <= 1e-15
    assert res.termination == "converged"
    assert len(res.objective_trace) == res.iterations + 1
    assert res.iterations >= 1


@pytest.mark.parametrize("bandwidth", [-1, 1])
def test_one_dimensional_banded_fits_take_bandwidth_zero_only(bandwidth):
    X = sample_elliptical(np.ones((1, 1)), 8, 5)
    with pytest.raises(InvalidInputError):
        estimate_banded_toeplitz(X, bandwidth)


def test_squarem_cycles_count_the_cycles_that_form_a_trial(monkeypatch):
    """A cycle whose first alpha is already past -1.2 tries no trial and is not counted."""
    X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, seed=24)
    space = structcov.kronecker.ReshapedSamples
    normalize = space.normalize
    calls = []
    monkeypatch.setattr(
        space, "normalize", lambda self, params: calls.append(1) or normalize(self, params)
    )
    res = estimate_kronecker(X, 3, 4, MMSettings(max_iter=200), method="gs")
    # the space normalizes the start, every map's pair and every trial
    trials = len(calls) - res.iterations - 1
    # no trial is rejected, so each cycle that forms a trial forms exactly one
    assert res.details["squarem_rejected"] == 0
    assert trials and res.details["squarem_cycles"] == trials


@pytest.mark.parametrize("max_iter", range(1, 8))
@pytest.mark.parametrize("fit", [tyler_unconstrained, estimate_toeplitz])
def test_max_iter_caps_the_maps_within_a_cycle(fit, max_iter):
    X = _ar_samples(3)
    res = fit(X, MMSettings(tol=1e-16, max_iter=max_iter))
    assert res.termination == "max_iter"
    assert res.iterations == max_iter
    assert len(res.objective_trace) == max_iter + 1
    assert nonincreasing(res.objective_trace)


def test_extrapolation_reaches_the_plain_fixed_point_in_fewer_maps():
    X = sample_elliptical(ar_cov(10, 0.8), 60, 4)
    plain = mm_drive(inner=lambda p, it: it.M, space=_Whitening(X), init_params=np.eye(10) / 10,
                     extrapolate=None)
    fast = tyler_unconstrained(X)
    assert plain.details["squarem_cycles"] == 0 and fast.details["squarem_cycles"] > 0
    assert fast.iterations < plain.iterations
    assert _rel(fast.scatter, plain.scatter) <= 1e-6
    assert fast.objective_trace[-1] <= plain.objective_trace[-1] + 1e-9


# Kronecker fits extrapolate the factor pair (A, B) block by block:
# name -> (p, q, N, method, structured B, complex samples, seed)
KRONECKER = {
    "mm": (3, 4, 10, "mm", False, False, 31),
    "mm-complex": (3, 4, 10, "mm", False, True, 32),
    "gs": (3, 4, 10, "gs", False, False, 33),
    "gs-complex": (3, 4, 10, "gs", False, True, 34),
    "toeplitz-b": (3, 4, 10, "mm", True, False, 35),
    "toeplitz-b-complex": (3, 4, 10, "mm", True, True, 36),
    "gs-toeplitz-b": (3, 4, 10, "gs", True, False, 37),
    "10x8-n4": (10, 8, 4, "mm", True, False, 38),
}


def _kronecker_fit(name, settings_=None):
    """The fit of case ``name``, its samples and its dimensions."""
    p, q, n, method, structured, complex_, seed = KRONECKER[name]
    R0 = np.kron(ar_cov(p, 0.5), ar_cov(q, 0.8))
    X = sample_elliptical(R0.astype(complex) if complex_ else R0, n, seed)
    b_structure = toeplitz_basis(q) if structured else None
    return estimate_kronecker(X, p, q, settings_, method=method, b_structure=b_structure)


@pytest.mark.parametrize("name", list(KRONECKER))
def test_kronecker_extrapolation_takes_fewer_maps(name, monkeypatch):
    tight = MMSettings(tol=1e-11, max_iter=20000)
    fast = _kronecker_fit(name, tight)
    # the same fit on the same space, as plain MM
    monkeypatch.setattr(
        structcov.kronecker, "mm_drive",
        lambda *args, **kwargs: mm_drive(*args, **kwargs, extrapolate=None),
    )
    plain = _kronecker_fit(name, tight)
    assert plain.details["squarem_cycles"] == 0 and fast.details["squarem_cycles"] > 0
    assert fast.termination == plain.termination == "converged"
    assert fast.iterations < plain.iterations
    assert fast.objective_trace[-1] <= plain.objective_trace[-1] + 1e-9
    assert nonincreasing(fast.objective_trace)
    assert len(fast.objective_trace) == fast.iterations + 1


def test_a_trial_that_is_not_pd_is_rejected(monkeypatch):
    kron = structcov.kronecker
    X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, 31)
    space = kron.ReshapedSamples.from_samples(X, 3, 4)
    A, B = np.eye(3) / 3, np.eye(4) / 4
    assert space.normalize(space.flatten((A, -B))) is None  # negative trace
    assert space.normalize(space.flatten((A, B - np.diag([1.0, 0, 0, 0])))) is None  # zero trace
    # unit trace, not PD: normalize only scales, and the space's call refuses it
    indefinite = np.diag([2.0, -1.0 / 3, -1.0 / 3, -1.0 / 3])
    flat, pair = space.normalize(space.flatten((A, indefinite)))
    assert np.linalg.eigvalsh(pair[1])[0] < 0 and space(pair) is None
    assert np.array_equal(space.split(flat)[1], pair[1])
    assert space.normalize(space.flatten((A, B)))[1][1][0, 0] == 0.25

    spoiled = []

    def spoil(trial, x2):
        # the first three trials get an indefinite B of unit trace
        if len(spoiled) < 3:
            spoiled.append(1)
            A, B = space.split(trial)
            q = B.shape[0]
            trial = space.flatten((A, np.diag([2.0] + [-1.0 / (q - 1)] * (q - 1))))
        return trial

    tight = MMSettings(tol=1e-11)
    clean = _kronecker_fit("mm", tight)
    monkeypatch.setattr(kron, "mm_drive", lambda *args, **kwargs: mm_drive(
        *args, **kwargs, extrapolate=spoil))
    res = _kronecker_fit("mm", tight)
    assert len(spoiled) == 3
    assert res.details["squarem_rejected"] >= 3
    assert res.termination == "converged"
    assert nonincreasing(res.objective_trace)
    assert abs(res.objective_trace[-1] - clean.objective_trace[-1]) <= 1e-9


@pytest.mark.parametrize("method", ["mm", "gs"])
def test_b_coeffs_reassemble_the_reported_b(method, monkeypatch):
    """Every step starts from coefficients of its own B, a taken trial's included."""
    kron = structcov.kronecker
    struct = toeplitz_basis(4)
    X = sample_elliptical(np.kron(ar_cov(3, 0.5), ar_cov(4, 0.8)), 10, 41)
    name = "block_mm_step" if method == "mm" else "gauss_seidel_step"
    step = getattr(kron, name)
    inner_update = kron.inner_update
    made = []  # the pairs the space took from the steps
    starts = []  # the B of each step, in order
    warm = []  # one entry per structured solve whose start was checked
    from_trials = 0

    def checked(it, b_structure):
        nonlocal from_trials
        factors, reshaped = it.factors, it.reshaped
        from_trials += not any(
            all(np.array_equal(F, G) for F, G in zip(factors, pair)) for pair in made
        )
        starts.append(factors[1])
        out = step(it, b_structure)
        made.append(reshaped.normalize(reshaped.flatten(out))[1])
        return out

    def warm_started(structure, coeffs, *args):
        assert np.linalg.norm(struct.assemble(coeffs) - starts[-1]) <= 1e-12
        warm.append(1)
        return inner_update(structure, coeffs, *args)

    monkeypatch.setattr(kron, name, checked)
    monkeypatch.setattr(kron, "inner_update", warm_started)
    for max_iter in [*range(1, 12), 1000]:
        made.clear()
        res = estimate_kronecker(X, 3, 4, MMSettings(tol=1e-12, max_iter=max_iter),
                                 method=method, b_structure=struct)
        B = res.details["factor_b"]
        assert np.linalg.norm(struct.assemble(res.details["b_coeffs"]) - B) <= 1e-12
        # the first step starts from the initial pair, which no step made
        from_trials -= 1
    assert from_trials > 0
    assert len(warm) == len(starts)
