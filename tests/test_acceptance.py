"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria complete. Tolerances are fixed here, not calibrated at
runtime.
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from structcov import (
    ExperimentConfig,
    MMSettings,
    RankOneDictionary,
    angles_recovered,
    ar_cov,
    banded_inner_update,
    diagonal_basis,
    doa_cov,
    estimate_banded_toeplitz,
    estimate_kronecker,
    estimate_linear,
    estimate_rank_one,
    estimate_spiked,
    estimate_toeplitz,
    fixed_point_residual,
    full_symmetric_basis,
    music_spectrum,
    nmse,
    pd_geometric_mean,
    run_experiment,
    sample_cov,
    sample_elliptical,
    spiked_cov,
    subspace_error,
    toeplitz_basis,
    tyler_unconstrained,
    ula_dictionary,
)
from structcov.linear import surrogate_gradient
from structcov.rankone import _weights, surrogate_params
from structcov.spiked import project_spiked
from structcov.toeplitz import BandedSpec, build_embedding
from structcov.tyler import Iterate, SampleSet
from support import (
    barrier_equality_solve,
    linear_surrogate_naive,
    rand_pd,
)

SLACK = 1e-10


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def _descent_ok(trace):
    return bool(np.all(np.diff(np.asarray(trace)) <= SLACK))


def test_criterion_1_descent_suite():
    with criterion(1, "descent on every estimator"):
        start = time.perf_counter()
        settings = MMSettings(tol=1e-7, max_iter=200)
        rng = np.random.default_rng(1000)
        for seed in range(20):
            # convex linear structure
            X = sample_elliptical(ar_cov(5, 0.6), 40, seed=np.random.SeedSequence([1, seed]))
            res = estimate_linear(toeplitz_basis(5), X, settings)
            assert _descent_ok(res.objective_trace)

            # sum of rank-one atoms (complex dictionary)
            atoms = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
            d = RankOneDictionary(atoms=atoms)
            Xc = sample_elliptical(
                ar_cov(4, 0.5).astype(complex), 32, seed=np.random.SeedSequence([2, seed])
            )
            res = estimate_rank_one(d, Xc, settings)
            assert _descent_ok(res.objective_trace)

            # Toeplitz via circulant embedding
            X = sample_elliptical(ar_cov(6, 0.7), 40, seed=np.random.SeedSequence([3, seed]))
            res = estimate_toeplitz(X, settings)
            assert _descent_ok(res.objective_trace)

            # banded Toeplitz
            res = estimate_banded_toeplitz(X, 2, settings)
            assert _descent_ok(res.objective_trace)

            # spiked
            R0 = spiked_cov(8, 2, 0.1, rng=rng)
            Xs = sample_elliptical(R0, 48, seed=np.random.SeedSequence([4, seed]))
            res = estimate_spiked(Xs, 2, settings)
            assert _descent_ok(res.objective_trace)

            # Kronecker, both schemes
            Xk = sample_elliptical(
                np.kron(np.eye(3), ar_cov(4, 0.6)), 10, seed=np.random.SeedSequence([5, seed])
            )
            res = estimate_kronecker(Xk, 3, 4, settings, method="gs")
            assert _descent_ok(res.objective_trace)
            res = estimate_kronecker(Xk, 3, 4, settings, method="mm")
            assert _descent_ok(res.objective_trace)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"descent suite took {elapsed:.1f}s"


def test_criterion_2_fixed_point_residual():
    with criterion(2, "unconstrained fixed-point residual"):
        X = sample_elliptical(ar_cov(15, 0.8), 100, seed=2024)
        res = tyler_unconstrained(X, MMSettings(tol=1e-8, max_iter=1000))
        assert res.iterations <= 1000
        assert fixed_point_residual(res.scatter, X) <= 1e-6


def test_criterion_3_oracle_equivalences():
    with criterion(3, "oracle equivalences"):
        # (a) vacuous structure matches the unconstrained estimator
        X = sample_elliptical(ar_cov(5, 0.5), 60, seed=31)
        res_full = estimate_linear(full_symmetric_basis(5), X)
        res_tyler = tyler_unconstrained(X)
        assert np.linalg.norm(res_full.scatter - res_tyler.scatter) <= 1e-6

        # (b) diagonal-augmented empty dictionary matches the diagonal structure
        truth = np.diag([4.0, 2.0, 1.0, 0.5])
        Xd = sample_elliptical(truth / np.trace(truth), 80, seed=32)
        res_rank = estimate_rank_one(RankOneDictionary.augment(np.empty((4, 0))), Xd)
        res_diag = estimate_linear(diagonal_basis(4), Xd)
        assert np.linalg.norm(res_rank.scatter - res_diag.scatter) <= 1e-6

        # (c) banded inner solver vs the independent barrier oracle
        for seed in range(20):
            rng = np.random.default_rng(330 + seed)
            dim, rows = 9, 2
            x0 = rng.uniform(0.5, 2.0, size=dim)
            G = rng.standard_normal((rows, dim))
            A = G - np.outer(G @ x0, x0) / (x0 @ x0)
            w = rng.uniform(0.5, 3.0, size=dim)
            dvec = rng.uniform(0.1, 2.0, size=dim)
            spec = BandedSpec(bandwidth=0, constraint_matrix=A)
            p_dual = banded_inner_update(spec, w, dvec)
            p_oracle = barrier_equality_solve(A, w, dvec, x0)
            f_dual = w @ p_dual + np.sum(dvec / p_dual)
            f_oracle = w @ p_oracle + np.sum(dvec / p_oracle)
            assert abs(f_dual - f_oracle) <= 1e-6

        # (d) geometric-mean identity of the block update
        for seed in range(10):
            rng = np.random.default_rng(340 + seed)
            A_t = rand_pd(4, rng)
            M = rand_pd(4, rng)
            Xg = pd_geometric_mean(A_t, M)
            resid = np.linalg.norm(Xg @ np.linalg.solve(A_t, Xg) - M) / np.linalg.norm(M)
            assert resid <= 1e-8


def test_criterion_4_toeplitz_orderings():
    with criterion(4, "Toeplitz error orderings"):
        start = time.perf_counter()
        base = dict(
            k=15,
            truth={"kind": "ar", "beta": 0.8},
            baselines=["SCM", "TylerUnconstrained"],
            trials=100,
            seed=41,
            tol=1e-6,
            max_iter=400,
            workers=2,
        )
        rows_ce = run_experiment(
            ExperimentConfig(n_list=[20, 40, 60, 100], structure={"kind": "toeplitz"}, **base)
        )
        rows_lin = run_experiment(
            ExperimentConfig(
                n_list=[20, 40, 60, 100],
                structure={"kind": "linear", "basis": "toeplitz"},
                **{**base, "baselines": []},
            )
        )
        ce = {r["N"]: r["nmse_mean"] for r in rows_ce if r["estimator"] == "toeplitz"}
        tyler = {r["N"]: r["nmse_mean"] for r in rows_ce if r["estimator"] == "TylerUnconstrained"}
        scm = {r["N"]: r["nmse_mean"] for r in rows_ce if r["estimator"] == "SCM"}
        lin = {r["N"]: r["nmse_mean"] for r in rows_lin if r["estimator"] == "linear"}
        for n in (20, 40, 60, 100):
            assert ce[n] < tyler[n] < scm[n], (n, ce[n], tyler[n], scm[n])
            assert lin[n] < tyler[n], (n, lin[n], tyler[n])
            assert abs(ce[n] - lin[n]) <= 0.10 * lin[n], (n, ce[n], lin[n])
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_banding_regularizes():
    with criterion(5, "banding as regularization"):
        R0 = ar_cov(15, 0.4)
        settings = MMSettings(tol=1e-6, max_iter=400, record_trace=False)
        banded, plain = [], []
        for trial in range(100):
            X = sample_elliptical(R0, 20, np.random.SeedSequence([51, 20, trial, 1]))
            banded.append(nmse([estimate_banded_toeplitz(X, 3, settings).scatter], R0))
            plain.append(nmse([estimate_toeplitz(X, settings).scatter], R0))
        assert np.mean(banded) < np.mean(plain), (np.mean(banded), np.mean(plain))


def test_criterion_6_doa_recovery():
    with criterion(6, "MUSIC angle recovery"):
        angles = [-10.0, 10.0, 15.0, 35.0, 40.0]
        R0 = doa_cov(15, angles, [1.0] * 5, 0.1)
        dictionary = RankOneDictionary.augment(ula_dictionary(15, 5.0))
        settings = MMSettings(tol=1e-6, max_iter=500, record_trace=False)
        tol_deg = 0.25  # nearest grid point on the 0.5 degree evaluation grid
        constrained_ok = 0
        scm_fail = 0
        for trial in range(20):
            X = sample_elliptical(R0, 20, np.random.SeedSequence([61, 20, trial, 1]))
            res = estimate_rank_one(dictionary, X, settings)
            if angles_recovered(music_spectrum(res.scatter, 5), angles, tol_deg):
                constrained_ok += 1
            if not angles_recovered(music_spectrum(sample_cov(X), 5), angles, tol_deg):
                scm_fail += 1
        assert constrained_ok >= 18, constrained_ok  # >= 90% of 20 trials
        assert scm_fail >= 10, scm_fail              # >= 50% of 20 trials


def test_criterion_7_spiked_beats_projection():
    with criterion(7, "spiked structure vs projected estimator"):
        k, spikes, n = 40, 5, 45
        settings = MMSettings(tol=1e-7, max_iter=1000, record_trace=False)
        nmse_spiked, nmse_proj, sub_spiked, sub_proj = [], [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for trial in range(100):
                rng = np.random.default_rng(np.random.SeedSequence([71, n, trial, 0]))
                R0 = spiked_cov(k, spikes, 0.01, (0.01, 1.0), rng=rng)
                X = sample_elliptical(R0, n, np.random.SeedSequence([71, n, trial, 1]))
                R_spiked = estimate_spiked(X, spikes, settings).scatter
                R_proj = project_spiked(tyler_unconstrained(X, settings).scatter, spikes)
                nmse_spiked.append(nmse([R_spiked], R0))
                nmse_proj.append(nmse([R_proj], R0))
                sub_spiked.append(subspace_error(R_spiked, R0, spikes))
                sub_proj.append(subspace_error(R_proj, R0, spikes))
        assert np.mean(nmse_spiked) < np.mean(nmse_proj)
        assert np.mean(sub_spiked) < np.mean(sub_proj)


def test_criterion_8_kronecker():
    with criterion(8, "Kronecker schemes agree; Toeplitz factor helps"):
        p, q, n = 10, 8, 4
        R0 = np.kron(np.eye(p), ar_cov(q, 0.8))

        # the two schemes reach the same objective value
        X = sample_elliptical(R0, n, np.random.SeedSequence([81, n, 0, 1]))
        settings = MMSettings(tol=1e-9, max_iter=3000)
        res_gs = estimate_kronecker(X, p, q, settings, method="gs")
        res_mm = estimate_kronecker(X, p, q, settings, method="mm")
        assert abs(res_gs.objective_trace[-1] - res_mm.objective_trace[-1]) <= 1e-6

        # a Toeplitz structure on the second factor reduces the error
        settings = MMSettings(tol=1e-7, max_iter=800, record_trace=False)
        struct = toeplitz_basis(q)
        plain, structured = [], []
        for trial in range(100):
            X = sample_elliptical(R0, n, np.random.SeedSequence([82, n, trial, 1]))
            plain.append(
                nmse([estimate_kronecker(X, p, q, settings, method="mm").scatter], R0)
            )
            structured.append(
                nmse(
                    [
                        estimate_kronecker(
                            X, p, q, settings, method="mm", b_structure=struct
                        ).scatter
                    ],
                    R0,
                )
            )
        assert np.mean(structured) < np.mean(plain), (np.mean(structured), np.mean(plain))


def test_criterion_9_numerical_analysis():
    with criterion(9, "gradients, symmetry, tangency"):
        # analytic gradient of the structured surrogate vs central differences
        rng = np.random.default_rng(91)
        struct = toeplitz_basis(5)
        checked = 0
        while checked < 50:
            a = struct.init_coeffs * (1.0 + 0.3 * rng.standard_normal(struct.size))
            R = struct.assemble(a)
            if np.linalg.eigvalsh(R)[0] <= 1e-6:
                continue
            R_t = rand_pd(5, rng)
            M_t = rand_pd(5, rng, ridge=1.0)
            g = surrogate_gradient(struct, a, R_t, M_t)
            h = 1e-6
            for j in range(struct.size):
                e = np.zeros(struct.size)
                e[j] = h
                fd = (
                    linear_surrogate_naive(struct, a + e, R_t, M_t)
                    - linear_surrogate_naive(struct, a - e, R_t, M_t)
                ) / (2 * h)
                assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))
            checked += 1

        # conjugate-pair symmetry of the circulant surrogate weights
        emb = build_embedding(6)
        d_obj = emb.a_matrix
        X = sample_elliptical(ar_cov(6, 0.6), 60, seed=92)
        pvec = np.ones(emb.l)
        for _ in range(8):
            R = emb.assemble(pvec)
            tr = np.trace(R).real
            R, pvec = R / tr, pvec / tr
            it = Iterate.at(R, X)
            w, dv = _weights(d_obj, pvec, it)
            for j in range(1, emb.l):
                assert abs(w[j] - w[emb.l - j]) <= 1e-10 * max(1.0, abs(w[j]))
                assert abs(dv[j] - dv[emb.l - j]) <= 1e-10 * max(1.0, abs(dv[j]))
            pvec = np.sqrt(dv / w)

        # surrogate tangency: w^T p + d^T p^{-1} = 2K at the expansion point
        rng = np.random.default_rng(93)
        for k, l in ((4, 9), (5, 11), (6, 13)):
            atoms = rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
            d = RankOneDictionary(atoms=atoms)
            Xc = SampleSet.from_array(
                rng.standard_normal((4 * k, k)) + 1j * rng.standard_normal((4 * k, k))
            )
            p = rng.uniform(0.5, 2.0, size=l)
            _, _, w, dvec = surrogate_params(d, p, Xc)
            assert abs(float(w @ p + np.sum(dvec / p)) - 2 * k) <= 1e-9


def test_criterion_10_deterministic_bench(tmp_path):
    with criterion(10, "byte-identical bench artifacts"):
        cfg = dict(
            k=6,
            n_list=[15, 25],
            truth={"kind": "ar", "beta": 0.6},
            structure={"kind": "toeplitz"},
            baselines=["SCM", "TylerUnconstrained"],
            trials=6,
            seed=101,
            tol=1e-6,
            max_iter=200,
        )
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        run_experiment(ExperimentConfig(workers=1, **cfg), output=str(paths[0]))
        run_experiment(ExperimentConfig(workers=1, **cfg), output=str(paths[1]))
        run_experiment(ExperimentConfig(workers=2, **cfg), output=str(paths[2]))
        blob = paths[0].read_bytes()
        assert blob == paths[1].read_bytes()
        assert blob == paths[2].read_bytes()
