import warnings

import numpy as np
import pytest

from structcov import (
    DegenerateSpectrumWarning,
    InvalidInputError,
    MMSettings,
    estimate_spiked,
    project_spiked,
    sample_elliptical,
    spiked_cov,
    weighted_scatter,
)
from structcov.spiked import _project_trial, spiked_inner_update
from support import count_calls, nonincreasing, rand_pd, spiked_objective


class TestInnerUpdate:
    def test_diagonal_case(self):
        model = spiked_inner_update(np.diag([4.0, 1.0, 1.0]), 1)
        assert model.noise_var == pytest.approx(1.0)
        assert model.powers[0] == pytest.approx(3.0)
        assert np.allclose(np.abs(model.directions[:, 0]), [1.0, 0.0, 0.0])
        assert not model.degenerate

    def test_isotropic_is_degenerate_but_exact(self):
        with pytest.warns(DegenerateSpectrumWarning):
            model = spiked_inner_update(np.eye(4), 1)
        assert model.degenerate
        assert model.noise_var == pytest.approx(1.0)
        assert model.powers[0] == pytest.approx(0.0)
        assert np.allclose(model.assemble(), np.eye(4), atol=1e-12)

    def test_beats_random_search(self):
        # global-minimizer check against 1e5 random feasible models
        rng = np.random.default_rng(0)
        M = rand_pd(6, rng, ridge=0.5)
        model = spiked_inner_update(M, 2)
        best = spiked_objective(model.assemble(), M)

        n_draws = 100_000
        k, l = 6, 2
        g1 = rng.standard_normal((n_draws, k))
        g2 = rng.standard_normal((n_draws, k))
        v1 = g1 / np.linalg.norm(g1, axis=1, keepdims=True)
        g2 = g2 - np.einsum("nk,nk->n", v1, g2)[:, None] * v1
        v2 = g2 / np.linalg.norm(g2, axis=1, keepdims=True)
        powers = rng.uniform(0.0, 2.0 * np.trace(M) / k, size=(n_draws, l))
        sigmas = rng.uniform(1e-3, 2.0 * np.trace(M) / k, size=n_draws)

        # objective via the spiked eigenstructure: eigenvalues are
        # powers + sigma^2 on the spikes and sigma^2 elsewhere
        q1 = np.einsum("nk,kj,nj->n", v1, M, v1)
        q2 = np.einsum("nk,kj,nj->n", v2, M, v2)
        lam1 = powers[:, 0] + sigmas
        lam2 = powers[:, 1] + sigmas
        logdet = np.log(lam1) + np.log(lam2) + (k - l) * np.log(sigmas)
        trace_term = (
            np.trace(M) / sigmas
            + (1.0 / lam1 - 1.0 / sigmas) * q1
            + (1.0 / lam2 - 1.0 / sigmas) * q2
        )
        values = logdet + trace_term
        assert best <= values.min() + 1e-9

    def test_bad_spike_count(self):
        with pytest.raises(InvalidInputError):
            spiked_inner_update(np.eye(3), 3)
        with pytest.raises(InvalidInputError):
            spiked_inner_update(np.eye(3), 0)


class TestEstimateSpiked:
    def test_isotropic_null_has_no_dominant_spike(self):
        # null check: on isotropic data the fitted spike is pure sampling
        # noise. The top-eigenvalue edge sits ~2*sqrt(K/N) = 0.28 above the
        # bulk at K=10, N=500, so the ratio concentrates near 0.3 (measured
        # null over seeds: 0.24-0.39); a genuine spike would give >= 1.
        X = sample_elliptical(np.eye(10) / 10, 500, seed=1)
        res = estimate_spiked(X, 1)
        model = res.details["model"]
        assert model.powers[0] / model.noise_var <= 0.5

    def test_trailing_eigenvalues_identical(self):
        R0 = spiked_cov(8, 2, 0.05, rng=2)
        X = sample_elliptical(R0, 120, seed=3)
        res = estimate_spiked(X, 2)
        ev = np.linalg.eigvalsh(res.scatter)
        trailing = ev[: 8 - 2]
        assert np.max(trailing) - np.min(trailing) <= 1e-9

    def test_fixed_point_of_inner_update(self):
        R0 = spiked_cov(7, 2, 0.1, rng=4)
        X = sample_elliptical(R0, 100, seed=5)
        res = estimate_spiked(X, 2, MMSettings(tol=1e-10, max_iter=4000))
        M = weighted_scatter(res.scatter, X)
        refit = spiked_inner_update(M, 2).assemble()
        refit = refit / np.trace(refit)
        assert np.linalg.norm(refit - res.scatter) <= 1e-6

    def test_descent_and_trace(self):
        R0 = spiked_cov(8, 3, 0.2, rng=6)
        X = sample_elliptical(R0, 90, seed=7)
        res = estimate_spiked(X, 3)
        assert nonincreasing(res.objective_trace)
        assert abs(np.trace(res.scatter) - 1.0) <= 1e-12
        assert res.params.shape == (4,)  # three powers plus the noise variance

    @pytest.mark.parametrize("complex_", [False, True])
    def test_model_reassembles_the_scatter(self, complex_):
        R0 = spiked_cov(8, 3, 0.2, rng=10)
        X = sample_elliptical(R0.astype(complex) if complex_ else R0, 90, seed=11)
        res = estimate_spiked(X, 3)
        model = res.details["model"]
        assert np.linalg.norm(model.assemble() - res.scatter) <= 1e-12
        assert np.array_equal(res.params, [*model.powers, model.noise_var])
        assert res.details["degenerate_spectrum"] == model.degenerate

    def test_projection_helper(self):
        rng = np.random.default_rng(8)
        R = rand_pd(6, rng)
        P = project_spiked(R, 2)
        ev = np.linalg.eigvalsh(P)
        assert np.max(ev[:4]) - np.min(ev[:4]) <= 1e-10

    def test_projection_rejects_non_finite(self):
        M = np.eye(3)
        M[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            project_spiked(M, 1)

    def test_projection_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            project_spiked(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    def test_fit_checks_its_start_only(self, monkeypatch):
        # the start is checked at the boundary; every map trusts the M_t
        # that mm_drive built, so no later call checks it again
        import structcov.linalg
        import structcov.spiked

        X = sample_elliptical(spiked_cov(8, 2, 0.05, rng=12), 60, seed=13)
        events = count_calls(
            monkeypatch,
            [(structcov.linalg, "check_hermitian"), (structcov.spiked, "spiked_inner_update")],
        )
        res = estimate_spiked(X, 2)
        assert res.iterations > 2
        assert events[0] == "check_hermitian"
        assert events.count("check_hermitian") == 1
        assert events.count("spiked_inner_update") == res.iterations

    def test_spike_count_validation(self):
        X = sample_elliptical(np.eye(4) / 4, 30, seed=9)
        with pytest.raises(InvalidInputError):
            estimate_spiked(X, 4)


class TestProjectTrial:
    """The SQUAREM vet of a spiked fit: a trial's closed-form fit, or None."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_an_indefinite_trial_is_refused_silently(self, complex_):
        trial = np.diag([1.0, 0.5, 0.2, -0.1]).astype(complex if complex_ else float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _project_trial(trial, 1) is None

    @pytest.mark.parametrize("complex_", [False, True])
    def test_a_pd_trial_gets_its_closed_form_fit(self, complex_):
        rng = np.random.default_rng(14)
        trial = rand_pd(6, rng, complex_=complex_)
        projected = _project_trial(trial, 2)
        assert np.array_equal(projected, spiked_inner_update(trial, 2).assemble())
        ev = np.linalg.eigvalsh(projected)
        assert np.max(ev[:4]) - np.min(ev[:4]) <= 1e-12

    def test_a_trial_at_a_tie_does_not_warn(self):
        trial = np.diag([3.0, 1.0, 1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected = _project_trial(trial, 2)
        assert np.allclose(np.sort(np.diag(projected)), [0.75, 0.75, 1.0, 3.0])
        with pytest.warns(DegenerateSpectrumWarning):
            spiked_inner_update(trial, 2)

    def test_details_describe_the_last_map(self, monkeypatch):
        import structcov.spiked

        maps, trials = [], []
        inner, project = structcov.spiked.spiked_inner_update, structcov.spiked._project_trial
        monkeypatch.setattr(structcov.spiked, "spiked_inner_update",
                            lambda *args: maps.append(inner(*args)) or maps[-1])
        monkeypatch.setattr(structcov.spiked, "_project_trial",
                            lambda *args: trials.append(1) or project(*args))
        X = sample_elliptical(spiked_cov(8, 2, 0.05, rng=12), 60, seed=13)
        res = estimate_spiked(X, 2)
        assert res.details["squarem_cycles"] > 0 and trials
        assert len(maps) == res.iterations
        # the last map's model, scaled to unit trace
        model, last = res.details["model"], maps[-1]
        unit = last.scaled(1.0 / np.trace(last.assemble()).real)
        assert np.array_equal(model.directions, unit.directions)
        assert np.array_equal(model.powers, unit.powers) and model.noise_var == unit.noise_var
        assert res.details["degenerate_spectrum"] == last.degenerate
