import json

import numpy as np
import pytest

from structcov import ar_cov, doa_cov, sample_elliptical
from structcov.cli import main
from structcov.fileio import read_array, write_array


@pytest.fixture
def sample_file(tmp_path):
    X = sample_elliptical(ar_cov(4, 0.5), 40, seed=1)
    path = tmp_path / "samples.csv"
    write_array(path, X.data)
    return path


@pytest.fixture
def complex_sample_file(tmp_path):
    R0 = doa_cov(8, [-10.0, 25.0], [1.0, 1.0], 0.1)
    X = sample_elliptical(R0, 30, seed=2)
    path = tmp_path / "csamples.csv"
    write_array(path, X.data)
    return path


class TestFileRoundtrip:
    def test_real_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "a.csv"
        write_array(path, arr)
        assert np.array_equal(read_array(path), arr)

    def test_complex_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        path = tmp_path / "c.csv"
        write_array(path, arr)
        out = read_array(path)
        assert np.iscomplexobj(out)
        assert np.array_equal(out, arr)
        assert (tmp_path / "c.csv").read_text().startswith("# field=complex")


class TestEstimateCommand:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--structure", "unconstrained"],
            ["--structure", "toeplitz"],
            ["--structure", "toeplitz", "--embedding-size", "9"],
            ["--structure", "banded-toeplitz", "--bandwidth", "1"],
            ["--structure", "linear", "--basis", "diagonal"],
            ["--structure", "spiked", "--spikes", "1"],
            ["--structure", "kronecker-gs", "--dims", "2,2"],
            ["--structure", "kronecker-mm", "--dims", "2,2", "--b-structure", "toeplitz"],
        ],
    )
    def test_structures_produce_scatter(self, sample_file, tmp_path, extra):
        out = tmp_path / "scatter.csv"
        code = main(
            ["estimate", "--input", str(sample_file), "--out", str(out),
             "--tol", "1e-6", "--max-iter", "300"] + extra
        )
        assert code == 0
        R = read_array(out)
        assert R.shape == (4, 4)
        assert abs(np.trace(R) - 1.0) <= 1e-10

    def test_rankone_with_ula_dictionary(self, complex_sample_file, tmp_path):
        out = tmp_path / "scatter.csv"
        code = main(
            ["estimate", "--input", str(complex_sample_file), "--out", str(out),
             "--structure", "rank-one", "--dictionary", "ula:8:10",
             "--tol", "1e-6", "--max-iter", "300"]
        )
        assert code == 0
        R = read_array(out)
        assert np.iscomplexobj(R) and R.shape == (8, 8)

    def test_rankone_with_dictionary_file(self, complex_sample_file, tmp_path):
        from structcov import ula_dictionary

        atoms = ula_dictionary(8, 15.0)
        dict_path = tmp_path / "atoms.csv"
        write_array(dict_path, atoms.T)  # one atom per row
        out = tmp_path / "scatter.csv"
        code = main(
            ["estimate", "--input", str(complex_sample_file), "--out", str(out),
             "--structure", "rank-one", "--dictionary", str(dict_path),
             "--tol", "1e-6", "--max-iter", "300"]
        )
        assert code == 0
        assert read_array(out).shape == (8, 8)

    def test_missing_file_is_invalid_input(self, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_undersampled_is_invalid_input(self, tmp_path):
        X = sample_elliptical(ar_cov(6, 0.5), 4, seed=3)
        path = tmp_path / "tiny.csv"
        write_array(path, X.data)
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_non_positive_kronecker_dims_are_invalid_input(self, sample_file, tmp_path):
        # -2 * -2 matches K=4, but a factor size must be at least 1
        code = main(
            ["estimate", "--input", str(sample_file), "--out", str(tmp_path / "o.csv"),
             "--structure", "kronecker-mm", "--dims=-2,-2"]
        )
        assert code == 2

    def test_degenerate_samples_are_numerical_failure(self, tmp_path):
        # samples confined to a plane: the fixed point iteration collapses
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((30, 2))
        X = Z @ np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        path = tmp_path / "degenerate.csv"
        write_array(path, X)
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 3


    @pytest.mark.parametrize("p,q", [(3, 4), (4, 2)])
    def test_degenerate_kronecker_fit_is_numerical_failure(self, tmp_path, p, q):
        # one sample cannot make both factors PD; these Gauss-Seidel fits once
        # ended in a LinAlgError traceback (3x4) and in exit code 2 (4x2)
        X = np.random.default_rng(0).standard_normal((1, p * q))
        path = tmp_path / "one.csv"
        write_array(path, X)
        code = main(
            ["estimate", "--input", str(path), "--out", str(tmp_path / "o.csv"),
             "--structure", "kronecker-gs", "--dims", f"{p},{q}"]
        )
        assert code == 3


class TestBenchCommand:
    def test_bench_runs_config(self, tmp_path):
        cfg = {
            "k": 4,
            "n_list": [10],
            "truth": {"kind": "ar", "beta": 0.5},
            "structure": {"kind": "toeplitz"},
            "baselines": ["SCM"],
            "trials": 2,
            "seed": 1,
            "tol": 1e-5,
            "max_iter": 150,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results.csv"
        code = main(["bench", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,N,")
        assert len(lines) == 3

    def test_bad_config_is_invalid_input(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"k": 4}')
        code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
        assert code == 2


    @pytest.mark.parametrize(
        "spec",
        [
            {"structure": {"kind": "banded-toeplitz", "bandwidth": "x"}},
            {"structure": {"kind": "rank-one", "dictionary": 5}},
            {"truth": {"kind": "spiked", "n_spikes": 1, "noise_var": 0.1, "power_range": None},
             "structure": None},
            # values of the right type that do not fit k = 4
            {"structure": {"kind": "kronecker-mm", "p": 3, "q": 2}},
            {"structure": {"kind": "banded-toeplitz", "bandwidth": 7}},
            {"structure": {"kind": "spiked", "n_spikes": 4}},
            {"structure": {"kind": "toeplitz", "embedding_size": 3}},
            {"structure": {"kind": "banded-toeplitz", "bandwidth": 1, "embedding_size": 2}},
            {"structure": {"kind": "toeplitz", "epsilon": -1.0}},
            {"structure": {"kind": "banded-toeplitz", "bandwidth": 1, "epsilon": "nan"}},
            {"structure": {"kind": "rank-one", "epsilon": -1.0}},
            {"structure": {"kind": "rank-one", "epsilon": "inf"}},
        ],
    )
    def test_bad_spec_value_is_invalid_input(self, tmp_path, spec):
        cfg = {"k": 4, "n_list": [10], "truth": {"kind": "ar", "beta": 0.5},
               "baselines": ["SCM"], "trials": 1, **spec}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert not (tmp_path / "r.csv").exists()


class TestDoaCommand:
    def test_synthetic_scenario(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["doa", "--out", str(out), "--sources", "5", "--seed", "7",
             "--tol", "1e-6", "--max-iter", "300"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,pseudospectrum,is_peak"
        peaks = [l for l in lines[1:] if l.endswith(",1")]
        assert len(peaks) == 5

    def test_input_file_scm(self, complex_sample_file, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["doa", "--input", str(complex_sample_file), "--out", str(out),
             "--sources", "2", "--estimator", "scm"]
        )
        assert code == 0

    def test_non_positive_eval_step_is_invalid_input(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["doa", "--out", str(out), "--sources", "2", "--estimator", "scm",
                     "--eval-step", "0"])
        assert code == 2
        assert not out.exists()

    def test_real_input_rejected(self, sample_file, tmp_path):
        code = main(
            ["doa", "--input", str(sample_file), "--out", str(tmp_path / "s.csv"),
             "--sources", "1"]
        )
        assert code == 2


class TestMaxIterReport:
    """A fit that stops at --max-iter reports it and warns, and still exits 0."""

    @pytest.mark.parametrize("estimator", ["constrained", "tyler"])
    def test_doa_reports_a_stopped_fit(self, complex_sample_file, tmp_path, capsys, estimator):
        code = main(["doa", "--input", str(complex_sample_file), "--out", str(tmp_path / "s.csv"),
                     "--sources", "2", "--estimator", estimator, "--max-iter", "2"])
        assert code == 0
        out, err = capsys.readouterr()
        assert f"{estimator} fit: termination=max_iter iterations=2" in out
        assert "warning: the fit stopped after 2 iterations" in err

    def test_doa_converged_fit_does_not_warn(self, complex_sample_file, tmp_path, capsys):
        code = main(["doa", "--input", str(complex_sample_file), "--out", str(tmp_path / "s.csv"),
                     "--sources", "2", "--estimator", "tyler"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "tyler fit: termination=converged" in out
        assert "warning" not in err

    def test_doa_scm_prints_no_fit(self, complex_sample_file, tmp_path, capsys):
        main(["doa", "--input", str(complex_sample_file), "--out", str(tmp_path / "s.csv"),
              "--sources", "2", "--estimator", "scm", "--max-iter", "1"])
        out, err = capsys.readouterr()
        assert "termination" not in out and "warning" not in err

    def test_estimate_warns_on_a_stopped_fit(self, sample_file, tmp_path, capsys):
        code = main(["estimate", "--input", str(sample_file), "--out", str(tmp_path / "s.csv"),
                     "--structure", "toeplitz", "--max-iter", "1"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "termination=max_iter iterations=1" in out
        assert "warning: the fit stopped after 1 iterations" in err
