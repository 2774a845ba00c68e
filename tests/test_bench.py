import time

import numpy as np
import pytest

from structcov import ExperimentConfig, InvalidInputError, run_experiment
from structcov.bench import RESULT_COLUMNS, build_truth, run_trial


def _base_config(**overrides):
    raw = dict(
        k=5,
        n_list=[12],
        truth={"kind": "ar", "beta": 0.6},
        structure={"kind": "toeplitz"},
        baselines=["SCM", "TylerUnconstrained"],
        trials=3,
        seed=11,
        tol=1e-6,
        max_iter=200,
    )
    raw.update(overrides)
    return ExperimentConfig(**raw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            _base_config(trials=0)
        with pytest.raises(InvalidInputError):
            _base_config(n_list=[20, 10])
        with pytest.raises(InvalidInputError):
            _base_config(n_list=[])
        with pytest.raises(InvalidInputError):
            _base_config(baselines=["MadeUp"])
        with pytest.raises(InvalidInputError):
            _base_config(truth={"kind": "nope"})
        with pytest.raises(InvalidInputError):
            _base_config(structure={"kind": "nope"})
        with pytest.raises(InvalidInputError):
            # the projection baseline needs a signal dimension
            _base_config(baselines=["ProjectedTyler"])

    def test_from_json_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"k": 4, "n_list": [10], "truth": {"kind": "ar", "beta": 0.5}, "frobs": 1}')
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_json(path)

    def test_truth_builders(self):
        rng = np.random.default_rng(0)
        cfg = _base_config(truth={"kind": "banded-ar", "beta": 0.4, "bandwidth": 2})
        R = build_truth(cfg, rng)
        assert R.shape == (5, 5)
        cfg = _base_config(
            k=6,
            truth={"kind": "kronecker", "p": 2, "q": 3, "b_beta": 0.5},
            structure={"kind": "kronecker-mm", "p": 2, "q": 3},
        )
        R = build_truth(cfg, rng)
        assert R.shape == (6, 6)


class TestRunExperiment:
    def test_single_trial_scm_only(self, tmp_path):
        cfg = _base_config(structure=None, baselines=["SCM"], trials=1,
                           output=str(tmp_path / "out.csv"))
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0]["estimator"] == "SCM"
        assert rows[0]["failures"] == 0
        text = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert text[0] == ",".join(RESULT_COLUMNS)
        assert len(text) == 2

    def test_rows_and_ordering(self, tmp_path):
        cfg = _base_config(n_list=[12, 16], output=str(tmp_path / "out.csv"))
        rows = run_experiment(cfg)
        # one row per (N, estimator), sorted by N then name
        keys = [(r["N"], r["estimator"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 3

    def test_deterministic_rerun(self, tmp_path):
        cfg = _base_config(output=None)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg, output=str(p1))
        run_experiment(cfg, output=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = _base_config(workers=1)
        parallel = _base_config(workers=2)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        run_experiment(serial, output=str(p1))
        run_experiment(parallel, output=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("structure", [
        {"kind": "toeplitz", "embedding_size": 8},
        {"kind": "banded-toeplitz", "bandwidth": 5},
        {"kind": "banded-toeplitz", "bandwidth": -1},
        {"kind": "banded-toeplitz", "bandwidth": 2, "embedding_size": 8},
    ], ids=["short-embedding", "wide-band", "negative-band", "banded-short-embedding"])
    def test_a_circulant_spec_that_does_not_fit_k_runs_no_trial(self, structure, workers,
                                                                monkeypatch):
        # K=5 needs an embedding of at least 9 and a bandwidth in [0, 4]
        import structcov.bench as bench

        trials = []
        monkeypatch.setattr(bench, "run_trial", lambda *args: trials.append(args))
        cfg = _base_config(structure=structure, workers=workers)
        with pytest.raises(InvalidInputError):
            run_experiment(cfg)
        assert trials == []

    def test_failures_counted(self, tmp_path):
        # N <= K: the Tyler baseline refuses every trial, SCM still works
        cfg = ExperimentConfig(
            k=8,
            n_list=[5],
            truth={"kind": "ar", "beta": 0.5},
            structure=None,
            baselines=["SCM", "TylerUnconstrained"],
            trials=2,
            seed=3,
        )
        rows = run_experiment(cfg, output=str(tmp_path / "f.csv"))
        by_name = {r["estimator"]: r for r in rows}
        assert by_name["TylerUnconstrained"]["failures"] == 2
        assert by_name["TylerUnconstrained"]["nmse_mean"] is None
        assert by_name["SCM"]["failures"] == 0
        text = (tmp_path / "f.csv").read_text()
        assert ",,,," in text  # empty metric fields for the failed estimator

    def test_subspace_column_for_doa(self):
        cfg = ExperimentConfig(
            k=6,
            n_list=[20],
            truth={"kind": "doa", "angles_deg": [0.0, 30.0], "powers": [1.0, 1.0],
                   "noise_var": 0.1},
            structure={"kind": "rank-one", "grid_step_deg": 10.0},
            baselines=["SCM", "ProjectedTyler"],
            trials=2,
            seed=4,
            tol=1e-5,
            max_iter=200,
        )
        rows = run_experiment(cfg)
        assert all(r["subspace_error_mean"] is not None for r in rows)

    def test_iteration_columns(self, tmp_path):
        out = tmp_path / "it.csv"
        capped = run_experiment(_base_config(max_iter=3), output=str(out))
        for row in capped:
            if row["estimator"] == "SCM":  # no MM iterations to report
                assert row["iterations_mean"] is None and row["nonconverged"] is None
            else:
                assert row["iterations_mean"] == 3.0 and row["nonconverged"] == 3
        lines = out.read_text().strip().splitlines()
        scm = next(line for line in lines if line.startswith("SCM,"))
        assert scm.endswith(",,")
        for row in run_experiment(_base_config(max_iter=500)):
            if row["estimator"] != "SCM":
                assert 3.0 < row["iterations_mean"] < 500.0 and row["nonconverged"] == 0

    def test_timing_opt_in(self, tmp_path):
        cfg = _base_config(record_timing=True, structure=None, baselines=["SCM"])
        rows = run_experiment(cfg, output=str(tmp_path / "t.csv"))
        assert rows[0]["wall_time_mean_seconds"] is not None
        cfg = _base_config(record_timing=False, structure=None, baselines=["SCM"])
        rows = run_experiment(cfg)
        assert rows[0]["wall_time_mean_seconds"] is None

    def test_spiked_truth_randomizes_per_trial(self):
        cfg = ExperimentConfig(
            k=6,
            n_list=[40],
            truth={"kind": "spiked", "n_spikes": 2, "noise_var": 0.05},
            structure={"kind": "spiked", "n_spikes": 2},
            baselines=[],
            trials=2,
            seed=5,
            tol=1e-6,
            max_iter=300,
        )
        recs1 = run_trial(cfg, 40, 0)
        recs2 = run_trial(cfg, 40, 1)
        assert recs1[0]["nmse"] != recs2[0]["nmse"]

    def test_timing_stays_sublinear_in_n(self):
        # per-iteration cost has only a small N-linear term; a 5x larger N
        # must cost far less than 5x the time (generous 4x bound)
        base = dict(
            k=8,
            truth={"kind": "ar", "beta": 0.6},
            structure={"kind": "toeplitz"},
            baselines=[],
            trials=3,
            seed=6,
            tol=1e-6,
            max_iter=300,
            record_timing=True,
        )
        rows_small = run_experiment(ExperimentConfig(n_list=[20], **base))
        rows_large = run_experiment(ExperimentConfig(n_list=[100], **base))
        t_small = rows_small[0]["wall_time_mean_seconds"]
        t_large = rows_large[0]["wall_time_mean_seconds"]
        assert t_large <= 4.0 * t_small
