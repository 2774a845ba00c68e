"""Boundary checks of the readers, the simulators, the bench, the CLI and the library.

Each test gives one input that a public entry point refuses, with
``InvalidInputError`` or, from the CLI, exit code 2, or one boundary
value that it accepts.
"""

import json
import struct

import numpy as np
import pytest

from structcov import (
    CirculantEmbedding,
    ExperimentConfig,
    InvalidInputError,
    LinearStructure,
    RankOneDictionary,
    SampleSet,
    ar_cov,
    banded_ar_cov,
    diagonal_basis,
    doa_cov,
    nmse,
    run_experiment,
    sample_elliptical,
    spiked_cov,
    subspace_error,
    tyler_cost,
)
from structcov.bench import build_truth
from structcov.cli import main
from structcov.fileio import read_array, write_array
from structcov.linalg import check_hermitian
from structcov.linear import surrogate_gradient
from structcov.spiked import spiked_inner_update
from structcov.toeplitz import BandedSpec, banded_inner_update

AR = {"kind": "ar", "beta": 0.5}


def _write(tmp_path, text):
    path = tmp_path / "a.csv"
    path.write_text(text)
    return path


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


class TestReadArray:
    @pytest.mark.parametrize(
        "text",
        [
            "1.0,2.0\n1.0,x\n",  # a non-numeric row
            "1.0,2.0\n1.0,2.0,3.0\n",  # ragged rows
            "1.0,,2.0\n",  # an empty field
            "",
            "\n\n  \n",
            "# field=complex\n",  # a header and no rows
            "# a comment\n\n# another\n",
            "# field=complex\n1.0,2.0,3.0\n",  # an odd complex column count
        ],
    )
    def test_malformed_files_are_refused(self, tmp_path, text):
        with pytest.raises(InvalidInputError):
            read_array(_write(tmp_path, text))

    def test_a_missing_file_is_refused(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_array(tmp_path / "absent.csv")

    def test_only_the_first_nonblank_line_can_mark_complex(self, tmp_path):
        out = read_array(_write(tmp_path, "1.0,2.0\n# field=complex\n3.0,4.0\n"))
        assert not np.iscomplexobj(out)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
        out = read_array(_write(tmp_path, "\n  # field=complex\n1.0,2.0\n# note\n\n3.0,4.0\n"))
        assert np.array_equal(out, [[1.0 + 2.0j], [3.0 + 4.0j]])

    def test_blank_lines_comments_and_spaces_are_skipped(self, tmp_path):
        out = read_array(_write(tmp_path, "# samples\n\n 1.5 , -2e3\n\n3,4\n"))
        assert np.array_equal(out, [[1.5, -2000.0], [3.0, 4.0]])

    def test_one_column_and_one_row_stay_two_dimensional(self, tmp_path):
        assert read_array(_write(tmp_path, "1.0\n2.0\n")).shape == (2, 1)
        assert read_array(_write(tmp_path, "1.0,2.0,3.0\n")).shape == (1, 3)

    def test_repr_written_floats_read_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(4000) * 10.0 ** rng.uniform(-300, 300, 4000)
        edges = [5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max, -0.0, 0.0]
        values = np.concatenate([values, edges, [0.0] * 2]).reshape(-1, 4)
        path = tmp_path / "r.csv"
        write_array(path, values)
        out = read_array(path)
        assert np.array_equal(_bits(out), _bits(values))
        assert struct.pack("<d", out.ravel()[-4]) == struct.pack("<d", -0.0)


class TestSimulateBoundaries:
    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5])
    def test_ar_cov_needs_beta_inside_the_unit_interval(self, beta):
        with pytest.raises(InvalidInputError):
            ar_cov(4, beta)

    def test_a_banding_that_is_not_positive_definite_is_refused(self):
        with pytest.raises(InvalidInputError):
            banded_ar_cov(10, 0.99, 1)

    @pytest.mark.parametrize(
        "powers, noise_var", [([1.0], 0.1), ([1.0, 1.0], 0.0), ([1.0, 1.0], -0.1)]
    )
    def test_doa_cov_needs_a_power_per_angle_and_positive_noise(self, powers, noise_var):
        with pytest.raises(InvalidInputError):
            doa_cov(4, [-10.0, 10.0], powers, noise_var)

    @pytest.mark.parametrize("n_spikes", [0, 5])
    def test_spiked_cov_needs_a_spike_count_in_range(self, n_spikes):
        with pytest.raises(InvalidInputError):
            spiked_cov(5, n_spikes, 0.1)

    def test_nmse_refuses_a_matrix_with_negative_trace(self):
        with pytest.raises(InvalidInputError):
            nmse([-np.eye(3)], np.eye(3))

    @pytest.mark.parametrize("signal_dim", [0, 3])
    def test_subspace_error_needs_a_signal_dimension_in_range(self, signal_dim):
        with pytest.raises(InvalidInputError):
            subspace_error(np.eye(3), np.diag([3.0, 2.0, 1.0]), signal_dim)


def _config(**overrides):
    raw = dict(k=4, n_list=[10], truth=AR, structure={"kind": "toeplitz"}, trials=2, seed=3,
               tol=1e-5, max_iter=150)
    raw.update(overrides)
    return raw


class TestBenchBoundaries:
    def test_a_pool_needs_a_worker(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(**_config(workers=0))

    def test_a_study_needs_a_structure_or_a_baseline(self):
        with pytest.raises(InvalidInputError):
            run_experiment(ExperimentConfig(**_config(structure=None)))

    def test_a_power_range_pair_sets_the_spike_powers(self):
        cfg = ExperimentConfig(**_config(
            k=6, truth={"kind": "spiked", "n_spikes": 2, "noise_var": 0.1,
                        "power_range": [0.5, 0.75]},
        ))
        values = np.linalg.eigvalsh(build_truth(cfg, np.random.default_rng(1)))
        assert np.allclose(values[:4], 0.1)
        assert np.all((values[4:] >= 0.6 - 1e-12) & (values[4:] <= 0.85 + 1e-12))

    def test_a_config_that_is_not_json_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{k: 4")
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "r.csv").exists()

    def test_bench_needs_an_output_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config()))
        assert main(["bench", "--config", str(path)]) == 2

    def test_flags_override_the_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config(baselines=["SCM"], output=str(tmp_path / "unused.csv"))))
        out = tmp_path / "r.csv"
        code = main(["bench", "--config", str(path), "--out", str(out), "--trials", "1",
                     "--seed", "5", "--workers", "2", "--timing"])
        assert code == 0
        assert not (tmp_path / "unused.csv").exists()
        expected = run_experiment(ExperimentConfig(**_config(baselines=["SCM"], trials=1, seed=5)))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(expected)
        for line, row in zip(lines[1:], expected):
            fields = line.split(",")
            assert fields[:2] == [row["estimator"], str(row["N"])]
            assert float(fields[2]) == row["nmse_mean"]
            assert float(fields[5]) > 0.0  # --timing fills the wall-time column

    def test_a_config_output_path_is_used_without_out(self, tmp_path):
        path = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        path.write_text(json.dumps(_config(baselines=["SCM"], trials=1, output=str(out))))
        assert main(["bench", "--config", str(path)]) == 0
        assert out.exists()


class TestCliBoundaries:
    @pytest.mark.parametrize("dims", ["2", "2,2,1", "a,b", "2;2"])
    def test_dims_must_be_a_pair_of_integers(self, tmp_path, dims):
        samples = tmp_path / "x.csv"
        write_array(samples, sample_elliptical(ar_cov(4, 0.5), 20, seed=1).data)
        out = tmp_path / "r.csv"
        code = main(["estimate", "--input", str(samples), "--out", str(out),
                     "--structure", "kronecker-gs", "--dims", dims])
        assert code == 2
        assert not out.exists()

    def test_doa_warns_when_fewer_peaks_than_sources(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["doa", "--out", str(out), "--sources", "3", "--estimator", "scm",
                     "--scenario-k", "4", "--scenario-n", "50", "--scenario-angles=-10,10",
                     "--seed", "1"])
        assert code == 0
        assert "warning: fewer peaks than requested sources" in capsys.readouterr().out
        assert sum(line.endswith(",1") for line in out.read_text().splitlines()) < 3


class TestLibraryBoundaries:
    def test_check_hermitian_needs_a_square_matrix(self):
        with pytest.raises(InvalidInputError):
            check_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("basis", [np.ones((3, 3)), np.ones((2, 3, 4))])
    def test_a_linear_basis_must_be_l_by_k_by_k(self, basis):
        with pytest.raises(InvalidInputError):
            LinearStructure(basis)

    def test_surrogate_gradient_refuses_infeasible_coefficients(self):
        R_t = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            surrogate_gradient(diagonal_basis(3), [1.0, -1.0, 1.0], R_t, np.eye(3))

    def test_a_dictionary_must_be_two_dimensional(self):
        with pytest.raises(InvalidInputError):
            RankOneDictionary(np.ones(3))
        with pytest.raises(InvalidInputError):
            RankOneDictionary.augment(np.ones(3))

    def test_spiked_inner_update_refuses_an_indefinite_matrix(self):
        with pytest.raises(InvalidInputError):
            spiked_inner_update(np.diag([2.0, 1.0, -1.0]), 1)

    def test_an_embedding_needs_a_dimension(self):
        with pytest.raises(InvalidInputError):
            CirculantEmbedding.build(0)

    def test_banded_inner_update_checks_its_weights(self):
        spec = BandedSpec.from_embedding(CirculantEmbedding.build(4), 1)
        n = CirculantEmbedding.build(4).n_folded
        w, d = np.ones(n), np.ones(n)
        for bad_w in (np.zeros(n), -w):
            with pytest.raises(InvalidInputError):
                banded_inner_update(spec, bad_w, d)
        with pytest.raises(InvalidInputError):
            banded_inner_update(spec, w, -d)
        assert np.array_equal(banded_inner_update(spec, w, np.zeros(n)), np.zeros(n))
        p, dual = banded_inner_update(spec, w, np.zeros(n), return_dual=True)
        assert np.array_equal(p, np.zeros(n)) and dual.shape == (spec.constraint_matrix.shape[0],)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_a_sample_set_must_not_be_empty(self, shape):
        with pytest.raises(InvalidInputError):
            SampleSet.from_array(np.zeros(shape))

    def test_tyler_cost_needs_a_scatter_of_the_samples_dimension(self):
        X = sample_elliptical(np.eye(3), 10, seed=0)
        with pytest.raises(InvalidInputError):
            tyler_cost(np.eye(4), X)
