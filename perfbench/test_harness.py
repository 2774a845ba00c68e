"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from stats import TooFewSamples, percentile, quartile_spread  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 0.9)


def test_p50_of_few_samples_and_unsorted_input():
    assert percentile([5, 1, 4, 2, 3] * 4, 0.5) == 3
    with pytest.raises(TooFewSamples):
        percentile([1, 2, 3], 0.5)


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10.0)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_covered_child_time():
    #   0 root   [0, 10]
    #   1 child  [1, 3]
    #   2 child  [4, 8]
    #   3 grandchild of 2  [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    parents = [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_tracer_nests_spans_and_restores_hooks():
    import structcov.linear
    import structcov.tyler

    original = structcov.tyler.mm_drive
    tracer = tracing.Tracer().install()
    try:
        assert structcov.linear.mm_drive is structcov.tyler.mm_drive is not original
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
    finally:
        tracer.uninstall()
    assert structcov.tyler.mm_drive is original and structcov.linear.mm_drive is original
    assert tracer.parents == [-1, 0]
    selfs = tracer.self_times()
    outer_ms = tracer.ends[0] - tracer.starts[0]
    inner_ms = tracer.ends[1] - tracer.starts[1]
    assert selfs[0] == pytest.approx(outer_ms - inner_ms)


def test_count_metrics_attribute_work_to_fits():
    import numpy as np
    import structcov as sc

    X = sc.sample_elliptical(sc.ar_cov(4, 0.5), 30, 3)
    tracer = tracing.Tracer().install()
    try:
        for _ in range(2):
            idx = tracer.begin_fit("tyler")
            result = sc.tyler_unconstrained(X)
            tracer.end_fit(idx, result)
    finally:
        tracer.uninstall()
    counts = tracing.count_metrics(tracer, ["tyler"], set())
    assert counts["tyler.mm_drive.iters_per_fit.tyler"] == result.iterations
    # one initial cost evaluation per fit plus one per iteration
    per_iter = counts["tyler.tyler_cost.calls_per_iter"]
    assert per_iter == pytest.approx(1.0 + 1.0 / result.iterations)
    assert counts["linear.inner_update.calls_per_fit"] == 0.0
    assert np.isfinite(counts["linalg.factorizations_per_iter"])


def test_restart_counts_the_failed_run(monkeypatch):
    import structcov as sc
    import structcov.toeplitz

    X = sc.sample_elliptical(sc.ar_cov(6, 0.5), 40, 5)
    power_update = structcov.toeplitz.power_update
    calls = []

    def fails_once(w, d):  # the third inner step of the first run raises
        calls.append(1)
        if len(calls) == 3:
            raise sc.FailedToConvergeError("forced")
        return power_update(w, d)

    monkeypatch.setattr(structcov.toeplitz, "power_update", fails_once)
    tracer = tracing.Tracer().install()
    try:
        idx = tracer.begin_fit("toeplitz")
        result = sc.estimate_toeplitz(X)
        tracer.end_fit(idx, result)
    finally:
        tracer.uninstall()
    assert result.details["epsilon"] > 0.0
    counts = tracing.count_metrics(tracer, ["toeplitz"], {"toeplitz"})
    assert counts["toeplitz.restarts"] == 1.0
    # iterations 1 and 2 finished and the third raised, then the restart ran
    assert counts["tyler.mm_drive.iters_per_fit.toeplitz"] == 3 + result.iterations
    assert tracing.time_metrics(tracer, ["toeplitz"])["tyler.mm_drive.self_ms"] > 0.0


# -- output checks of the bench layer -------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_study_fits_fail_their_output_check(workers, tmp_path, monkeypatch):
    import mcstudy
    import structcov as sc
    import structcov.bench as bench

    for name in mcstudy.FIT_ENTRIES:  # undone after the test
        monkeypatch.setattr(bench, name, getattr(bench, name))
    monkeypatch.setattr(mcstudy, "_ORIGINALS", {})
    # Hermitian, positive definite and of trace one, but not Toeplitz
    monkeypatch.setattr(bench, "estimate_toeplitz", lambda X, *a, **k: sc.tyler_unconstrained(X))
    study = mcstudy.McStudy(3, str(tmp_path), trials=1)
    _, records, _, _ = study.study(workers)
    failed = {rec["estimator"] for rec in records if rec["failed"]}
    assert failed == {"toeplitz"}
    assert all("diagonal spread" in rec["error"] for rec in records if rec["failed"])


# -- smoke runs of every workload ---------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(last["metrics"])
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
