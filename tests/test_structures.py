"""The structure table that the bench, `structcov estimate` and `structcov doa` share."""

import argparse
import inspect
import json

import numpy as np
import pytest

import structcov.bench as bench
from structcov import (
    ExperimentConfig,
    InvalidInputError,
    MMSettings,
    RankOneDictionary,
    diagonal_basis,
    estimate_banded_toeplitz,
    estimate_kronecker,
    estimate_linear,
    estimate_rank_one,
    estimate_spiked,
    estimate_toeplitz,
    sample_elliptical,
    toeplitz_basis,
    ula_dictionary,
)
from structcov.bench import STRUCTURE_KINDS, TRUTH_KINDS, build_truth, run_trial, structure_fit
from structcov.cli import build_parser, main
from structcov.fileio import read_array, write_array

K, N, SEED, TOL, MAX_ITER = 4, 20, 7, 1e-6, 200
SETTINGS = MMSettings(tol=TOL, max_iter=MAX_ITER, record_trace=False)
AR = {"kind": "ar", "beta": 0.5}
DOA = {"kind": "doa", "angles_deg": [-20.0, 30.0], "powers": [1.0, 1.0], "noise_var": 0.1}

# kind -> (truth, bench spec, `structcov estimate` flags, direct library call)
CASES = {
    "toeplitz": (
        AR, {"kind": "toeplitz", "embedding_size": 9}, ["--embedding-size", "9"],
        lambda X: estimate_toeplitz(X, SETTINGS, embedding_size=9),
    ),
    "banded-toeplitz": (
        AR, {"kind": "banded-toeplitz", "bandwidth": 1}, ["--bandwidth", "1"],
        lambda X: estimate_banded_toeplitz(X, 1, SETTINGS),
    ),
    "linear": (
        AR, {"kind": "linear", "basis": "diagonal"}, ["--basis", "diagonal"],
        lambda X: estimate_linear(diagonal_basis(K), X, SETTINGS),
    ),
    # the bench's grid step and the CLI's ULA dictionary name the same atoms
    "rank-one": (
        DOA, {"kind": "rank-one", "grid_step_deg": 10.0}, ["--dictionary", f"ula:{K}:10"],
        lambda X: estimate_rank_one(
            RankOneDictionary.augment(ula_dictionary(K, 10.0)), X, SETTINGS
        ),
    ),
    "spiked": (
        AR, {"kind": "spiked", "n_spikes": 1}, ["--spikes", "1"],
        lambda X: estimate_spiked(X, 1, SETTINGS),
    ),
    "kronecker-gs": (
        AR, {"kind": "kronecker-gs", "p": 2, "q": 2}, ["--dims", "2,2"],
        lambda X: estimate_kronecker(X, 2, 2, SETTINGS, method="gs"),
    ),
    "kronecker-mm": (
        AR, {"kind": "kronecker-mm", "p": 2, "q": 2, "b_structure": "toeplitz"},
        ["--dims", "2,2", "--b-structure", "toeplitz"],
        lambda X: estimate_kronecker(
            X, 2, 2, SETTINGS, method="mm", b_structure=toeplitz_basis(2)
        ),
    ),
}


def _config(**overrides):
    raw = dict(k=K, n_list=[N], truth=AR, structure={"kind": "toeplitz"}, trials=1,
               seed=SEED, tol=TOL, max_iter=MAX_ITER)
    raw.update(overrides)
    return ExperimentConfig(**raw)


def test_cases_cover_the_table():
    assert sorted(CASES) == sorted(STRUCTURE_KINDS)


@pytest.mark.parametrize("kind", list(CASES))
def test_bench_and_cli_match_the_library(kind, tmp_path, monkeypatch):
    truth, spec, flags, direct = CASES[kind]
    cfg = _config(truth=truth, structure=spec)
    # the samples of trial 0, drawn as run_trial draws them
    R0 = build_truth(cfg, np.random.default_rng(np.random.SeedSequence([SEED, N, 0, 0])))
    X = sample_elliptical(R0, N, np.random.SeedSequence([SEED, N, 0, 1]), tau_dof=cfg.tau_dof)
    expected = direct(X).scatter

    seen = []
    real_nmse = bench.nmse
    monkeypatch.setattr(bench, "nmse", lambda mats, R: seen.append(mats[0]) or real_nmse(mats, R))
    (rec,) = run_trial(cfg, N, 0)
    assert rec["estimator"] == kind and not rec["failed"]
    assert np.array_equal(seen[0], expected)

    samples, out = tmp_path / "x.csv", tmp_path / "r.csv"
    write_array(samples, X.data)
    code = main(["estimate", "--input", str(samples), "--out", str(out), "--structure", kind,
                 "--tol", str(TOL), "--max-iter", str(MAX_ITER)] + flags)
    assert code == 0
    assert np.array_equal(read_array(out), expected)


def test_structure_choices_are_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (structure,) = [a for a in sub.choices["estimate"]._actions if a.dest == "structure"]
    assert structure.choices == ["unconstrained", *STRUCTURE_KINDS]


def test_fits_look_up_the_estimator_when_they_run(monkeypatch):
    fit = structure_fit({"kind": "toeplitz"}, K, SETTINGS)
    monkeypatch.setattr(bench, "estimate_toeplitz", lambda X, *a, **kw: ("replaced", X))
    assert fit("samples") == ("replaced", "samples")


@pytest.mark.parametrize(
    "overrides",
    [
        {"structure": {"kind": "banded-toeplitz"}},  # missing bandwidth
        {"structure": {"kind": "banded-toeplitz", "bandwith": 2}},  # misspelt key
        {"structure": {"kind": "toeplitz", "bandwith": 2}},
        {"structure": {"kind": "kronecker-mm", "p": 2, "q": 2, "b_structure": "banded"}},
        {"structure": {"kind": "rank-one", "grid_step_deg": 5.0, "dictionary": "ula:4:5"}},
        {"structure": "toeplitz"},
        {"structure": {"bandwidth": 2}},
        {"truth": {"kind": "ar"}},  # missing beta
        {"truth": {"kind": "ar", "beta": 0.5, "bandwidth": 2}},
        {"truth": {"kind": "kronecker", "p": 2, "q": 2, "a_spec": "ar"}},  # no a_beta
        {"truth": ["ar", 0.5]},
        {"structure": {"kind": "banded-toeplitz", "bandwidth": "x"}},  # bad values
        {"structure": {"kind": "rank-one", "dictionary": 5}},
        {"structure": {"kind": "kronecker-mm", "p": [2], "q": 2}},
        {"truth": {"kind": "spiked", "n_spikes": 2, "noise_var": 0.1, "power_range": None}},
        {"truth": {"kind": "spiked", "n_spikes": 2, "noise_var": 0.1, "power_range": [1.0]}},
        {"truth": {"kind": "doa", "angles_deg": [0.0], "powers": "1", "noise_var": None}},
    ],
)
def test_malformed_specs_rejected_with_the_config(overrides, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run_trial", None)  # no trial may start
    with pytest.raises(InvalidInputError):
        _config(**overrides)
    raw = dict(k=K, n_list=[N], truth=AR, structure={"kind": "toeplitz"}, trials=1)
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--structure", "toeplitz", "--bandwidth", "2", "--spikes", "3"],
        ["--structure", "banded-toeplitz"],
        ["--structure", "kronecker-mm", "--dims", "2,2", "--b-structure", "banded"],
        ["--structure", "rank-one", "--dictionary", "ula:5:10"],  # K is 4
        ["--structure", "rank-one", "--dictionary", "ula:4"],
        ["--structure", "unconstrained", "--bandwidth", "1"],
        ["--structure", "linear", "--embedding-size", "9"],
    ],
)
def test_estimate_rejects_flags_its_structure_does_not_read(flags, tmp_path):
    samples = tmp_path / "x.csv"
    write_array(samples, sample_elliptical(bench.ar_cov(K, 0.5), N, seed=1).data)
    out = tmp_path / "r.csv"
    assert main(["estimate", "--input", str(samples), "--out", str(out)] + flags) == 2
    assert not out.exists()


def test_estimate_takes_no_ridge(tmp_path):
    # only the restart of a rank-one, Toeplitz or banded fit sets a ridge
    samples = tmp_path / "x.csv"
    write_array(samples, sample_elliptical(bench.ar_cov(K, 0.5), N, seed=1).data)
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", str(samples), "--out", str(out),
              "--structure", "toeplitz", "--epsilon", "0.1"])
    assert exc.value.code == 2
    assert not out.exists()


def test_every_spec_key_has_a_reader():
    for table in (STRUCTURE_KINDS, TRUTH_KINDS):
        for builder in table.values():
            keys = list(inspect.signature(builder).parameters)[2:]
            assert set(keys) <= set(bench._SPEC_VALUES), keys
