"""One fresh benchmark process: set up a workload, then measure, trace or count.

Started by ``run.py`` with the BLAS thread variables already set, so they
hold before numpy loads. Prints ``READY`` when set-up ends (the parent
timestamps it) and one JSON line with its results as the last line.

Modes:
  setup    set up, time the speed probe and exit; the parent times several
           of these for setup_s
  measure  untraced closed loop for --seconds; the end-to-end metrics
  trace    half the time untraced, half traced; per-layer times and overhead
  count    a fixed traced pass over every input; exact work counts

Every timed phase interleaves the speed probe of ``probe.py`` with the
fits and reports raw times together with times scaled by the phase's
slowdown factor (see ``probe.py`` for why).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

from probe import REFERENCE_MS, probe_ms

MIN_FITS = 100           # p90 needs ten fits beyond it
HARD_STOP_SECONDS = 120  # stop extending a run here, whatever the counts
PROBES_PER_STUDY = 50    # probe runs on each core before and again after every study
SETUP_PROBES = 200       # probe runs right after set-up, to scale setup_s


def _fail(msg: str) -> None:
    print(f"worker: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "structcov")):
        _fail(f"no structcov sources under {src}")
    sys.path.insert(0, src)
    import structcov

    if not os.path.abspath(structcov.__file__).startswith(os.path.abspath(src)):
        _fail(f"structcov imported from {structcov.__file__}, not from {src}")


def run_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS, plus ``workers`` times the largest child's (children run together)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


class FitLoop:
    """Closed loop over the cases of an in-process workload, one dataset per round."""

    workers = 1

    def __init__(self, workload: str, seed: int, smoke: bool):
        import cases

        self.cases_mod = cases
        self.datasets = 1 if smoke else cases.DATASETS[workload]
        self.cases = cases.CASE_BUILDERS[workload](seed, self.datasets)
        self.labels = [c.label for c in self.cases]
        self.restart_labels = {"toeplitz", "banded"}
        self.inputs = len(self.cases) * self.datasets
        # warm-up: first-call costs stay out of the timed loop
        for case in cases.CASE_BUILDERS[workload](cases.WARMUP_SEED, 1):
            case.fit(case.inputs[0][0])

    def round(self, r: int, tracer=None) -> list[dict]:
        """Fit every case on dataset ``r mod datasets``; one record per fit."""
        from structcov import EstimationError, nmse

        d = r % self.datasets
        out = []
        for case in self.cases:
            samples, truth = case.inputs[d]
            probe = probe_ms()
            idx = tracer.begin_fit(case.label) if tracer else None
            result = None
            start = time.perf_counter()
            try:
                result = case.fit(samples)
            except EstimationError as exc:
                error = f"{case.label}: {type(exc).__name__}: {exc}"
            else:
                error = None
            finally:
                ms = (time.perf_counter() - start) * 1e3
                if tracer:
                    tracer.end_fit(idx, result)
            if error is None:
                problem = self.cases_mod.check_output(result, case.check_structure)
                error = f"{case.label}: {problem}" if problem else None
            out.append(
                {
                    "key": f"{case.label}/{d}",
                    "ms": ms,
                    "probe_ms": probe,
                    "error": error,
                    "max_iter": result is not None and result.termination == "max_iter",
                    "nmse": nmse([result.scatter], truth) if error is None else None,
                }
            )
        return out

    def raw_throughput(self, records) -> float:
        """Fits per second of fit time."""
        ms = [rec["ms"] for rec in records if rec.get("key")]
        return len(ms) / (sum(ms) / 1e3)

    def count_pass(self, tracer) -> list[dict]:
        records = []
        for d in range(self.datasets):
            records += self.round(d, tracer)
        return records


class StudyLoop:
    """Closed loop of identical Monte Carlo studies (one study seed per run).

    The studies keep both cores busy, so the speed probe runs on both too:
    ``WORKERS`` probe processes, idle while a study runs, started after
    set-up so that their start-up stays out of setup_s.
    """

    def __init__(self, seed: int, out_dir: str, smoke: bool):
        import mcstudy

        self.mc = mcstudy.McStudy(seed, out_dir, 1 if smoke else mcstudy.TRIALS)
        self.labels = self.mc.labels
        self.restart_labels = self.mc.restart_labels
        self.workers = mcstudy.WORKERS
        self.inputs = self.mc.fits_per_study
        self.rows = {}  # workers -> rows of the last study
        self.probes = None

    def close(self) -> None:
        if self.probes is not None:
            self.probes.close()

    def round(self, r: int, tracer=None, workers=None) -> list[dict]:
        from probe import ProbePool

        if self.probes is None:
            self.probes = ProbePool(self.workers)
        workers = workers or self.workers
        bursts = self.probes.burst(PROBES_PER_STUDY)
        seconds, recs, rows, problems = self.mc.study(workers, tracer)
        bursts = [a + b for a, b in zip(bursts, self.probes.burst(PROBES_PER_STUDY))]
        self.rows[workers] = rows
        out = [
            {
                "key": f"{rec['estimator']}/{rec['N']}/{rec['trial']}",
                "ms": rec["wall_time"] * 1e3,
                "error": rec.get("error") if rec["failed"] else None,
                "max_iter": False,  # not observable from the rows
                "nmse": rec.get("nmse"),
            }
            for rec in recs
        ]
        # one record for the study itself; its problems count as failed fits
        out.append({"key": None, "study_s": seconds, "error": None})
        out += [
            {"key": None, "probe_ms": t, "core": core, "error": None}
            for core, burst in enumerate(bursts)
            for t in burst
        ]
        out += [{"key": None, "error": problem} for problem in problems]
        return out

    def raw_throughput(self, records) -> float:
        """Fits per second of study wall time."""
        studies = [rec["study_s"] for rec in records if "study_s" in rec]
        return self.inputs * len(studies) / sum(studies)

    def count_pass(self, tracer) -> list[dict]:
        return self.round(0, tracer, workers=1)


def timed(loop, seconds: float, min_fits: int, tracer=None, **kw) -> list[dict]:
    """Rounds until ``seconds`` passed, every input ran and ``min_fits`` fits are done."""
    records = []
    seen = set()
    fits = 0
    start = time.perf_counter()
    r = 0
    while True:
        out = loop.round(r, tracer, **kw)
        records += out
        keys = [rec["key"] for rec in out if rec.get("key")]
        seen.update(keys)
        fits += len(keys)
        r += 1
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(seen) == loop.inputs and fits >= min_fits
        if done or elapsed >= HARD_STOP_SECONDS:
            return records


def slowdown(records) -> float:
    """Mean probe time over REFERENCE_MS; with probes on several cores, the
    cores' slowdowns combine harmonically, as a pool shares work between them."""
    by_core = defaultdict(list)
    for rec in records:
        if "probe_ms" in rec:
            by_core[rec.get("core", 0)].append(rec["probe_ms"])
    inverse = [REFERENCE_MS / statistics.fmean(times) for times in by_core.values()]
    return len(inverse) / sum(inverse)


def summarize(loop, records) -> dict:
    """End-to-end figures of one timed phase, raw and scaled by its slowdown."""
    from stats import TooFewSamples, percentile

    fits = [rec for rec in records if rec.get("key")]
    failed = [rec for rec in records if rec["error"]]
    lat = [rec["ms"] for rec in fits]
    slow = slowdown(records)
    raw_fps = loop.raw_throughput(records)
    nmse_by_key = {rec["key"]: rec["nmse"] for rec in fits if rec["nmse"] is not None}
    out = {
        "fits": len(fits),
        "inputs": len(nmse_by_key),
        "attempted": len(fits),
        "failed": len(failed),
        "errors": sorted({rec["error"] for rec in failed})[:20],
        "slowdown": slow,
        "raw_fits_per_s": raw_fps,
        "fits_per_s": raw_fps * slow,
        "nonconverged": sum(1 for rec in fits if rec["max_iter"]),
        "nmse_mean": statistics.fmean(nmse_by_key.values()) if nmse_by_key else None,
        "refused": [],
    }
    for q in (0.5, 0.9):
        name = f"fit_ms_p{round(q * 100)}"
        try:
            out[f"raw_{name}"] = percentile(lat, q)
            out[name] = out[f"raw_{name}"] / slow
        except TooFewSamples as exc:
            out[f"raw_{name}"] = out[name] = None
            out["refused"].append(f"{name}: {exc}")
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace", "count"], required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    _import_library(args.root)
    import tracing

    tracer = tracing.Tracer().install() if args.mode in ("trace", "count") else None
    if args.workload == "mc-study":
        loop = StudyLoop(args.seed, args.out, args.smoke)
    else:
        loop = FitLoop(args.workload, args.seed, args.smoke)
    try:
        run_mode(loop, tracer, args)
    finally:
        if hasattr(loop, "close"):
            loop.close()


def run_mode(loop, tracer, args) -> None:
    import tracing

    setup_spans = tracing.durations_ms(tracer, "simulate.sample_elliptical") if tracer else []
    print("READY", flush=True)
    if args.mode in ("setup", "measure"):
        # this process's speed just after set-up, which set-up time is scaled by
        setup_slowdown = statistics.fmean(probe_ms() for _ in range(SETUP_PROBES)) / REFERENCE_MS
    if args.mode == "setup":
        print(json.dumps({"setup_slowdown": setup_slowdown}))
        return

    result = {"run_record": run_record(), "workers": loop.workers}
    if args.mode == "measure":
        result["setup_slowdown"] = setup_slowdown
        records = timed(loop, args.seconds, 1 if args.smoke else MIN_FITS)
        result.update(summarize(loop, records))
        result["peak_rss_mb"] = peak_rss_mb(loop.workers)
    elif args.mode == "count":
        tracer.clear()
        records = loop.count_pass(tracer)
        failed = [rec for rec in records if rec["error"]]
        result.update(
            {
                "counts": tracing.count_metrics(tracer, loop.labels, loop.restart_labels),
                "failed": len(failed),
                "errors": sorted({rec["error"] for rec in failed})[:20],
                "attempted": sum(1 for rec in records if rec["key"] is not None),
                "missing_hooks": tracer.missing,
            }
        )
    else:
        result.update(trace_run(loop, tracer, args, setup_spans))
    print(json.dumps(result))


def trace_run(loop, tracer, args, setup_spans) -> dict:
    """Untraced then traced half-runs (serial studies for mc-study), plus the pool check."""
    import tracing

    half = args.seconds / 2
    serial = {"workers": 1} if isinstance(loop, StudyLoop) else {}
    tracer.uninstall()
    tracer.clear()
    plain = timed(loop, half, 1, **serial)
    extra = parallel_check(loop, plain) if isinstance(loop, StudyLoop) else {}
    tracer.install()
    traced = timed(loop, half, 1, tracer=tracer, **serial)
    tracer.uninstall()
    untraced_fps = loop.raw_throughput(plain) * slowdown(plain)
    slow = slowdown(traced)
    traced_fps = loop.raw_throughput(traced) * slow
    # span times in ref units, like the end-to-end times
    per_layer = {k: ms / slow for k, ms in tracing.time_metrics(tracer, loop.labels).items()}
    run_trial_ms = tracing.durations_ms(tracer, "bench.run_trial")
    sample_ms = setup_spans + tracing.durations_ms(tracer, "simulate.sample_elliptical")
    per_layer.update(
        {
            "bench.run_trial.ms_p50": statistics.median(run_trial_ms) / slow
            if run_trial_ms
            else 0.0,
            "simulate.sample_elliptical.ms": statistics.median(sample_ms) / slow
            if sample_ms
            else 0.0,
            "trace.overhead_frac": 1.0 - traced_fps / untraced_fps,
            "bench.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
            "bench.serial_study_s": extra.get("serial_study_s", 0.0),
            "bench.parallel_study_s": extra.get("parallel_study_s", 0.0),
        }
    )
    write_spans(tracer, args)
    everything = plain + traced + extra.get("records", [])
    failed = [r for r in everything if r["error"]]
    return {
        "per_layer": per_layer,
        "untraced_fits_per_s": untraced_fps,
        "traced_fits_per_s": traced_fps,
        "attempted": sum(1 for r in everything if r["key"]),
        "failed": len(failed),
        "errors": sorted({r["error"] for r in failed})[:20],
        "spans": len(tracer.names),
        "missing_hooks": tracer.missing,
    }


def parallel_check(loop, serial_records) -> dict:
    """Rerun the study with the pool: rows must equal the serial rows exactly."""
    serial_s = statistics.median(
        rec["study_s"] for rec in serial_records if "study_s" in rec
    ) / slowdown(serial_records)
    records = loop.round(0)
    if loop.rows[loop.workers] != loop.rows[1]:
        records.append({"key": None, "error": "workers=2 rows differ from the serial rows"})
    parallel_s = next(rec["study_s"] for rec in records if "study_s" in rec) / slowdown(records)
    return {
        "serial_study_s": serial_s,
        "parallel_study_s": parallel_s,
        "parallel_efficiency": serial_s / (loop.workers * parallel_s),
        "records": records,
    }


def write_spans(tracer, args) -> None:
    path = os.path.join(args.out, f"spans-{args.workload}.csv")
    with open(path, "w") as fh:
        fh.write("name,start_s,end_s,parent\n")
        for name, start, end, parent in tracer.to_rows():
            fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


if __name__ == "__main__":
    main()
