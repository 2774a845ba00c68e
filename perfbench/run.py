"""structcov benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload fit-closedform --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. Every measurement happens in a fresh ``worker.py`` process whose
BLAS thread variables are set to 1 before numpy loads. ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run. A human-readable report comes first; the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Full reports, spans and
CSVs go to ``perfbench/out/``.

Exit status is 0 only when every fit passed its output checks (and, with
``--trace 1``, the exact-repeat guard on the work counts held).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("fit-closedform", "fit-newton", "mc-study")
SETUP_REPEATS = 5          # setup_s is the median of this many fresh processes
RUN_DEADLINE_S = 170       # every process of one invocation ends before this
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# count metrics the exact-repeat guard compares between two traced processes
GUARDED_PREFIXES = (
    "tyler.mm_drive.iters_per_fit.",
    "linalg.factorizations_per_iter",
    "linear.inner_update.calls_per_fit",
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Worker:
    """One worker process; ``ready_s`` is the time from start to its READY line."""

    def __init__(self, args, mode: str, deadline: float):
        cmd = [
            sys.executable, WORKER,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--mode", mode,
            "--seconds", str(args.seconds),
            "--root", ROOT,
            "--out", OUT,
        ]
        if args.smoke:
            cmd.append("--smoke")
        self.mode = mode
        self.start = time.perf_counter()
        # own process group, so that stopping it also stops the study's pool workers
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), start_new_session=True
        )
        self.killer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.kill)
        self.killer.start()
        self.ready_s = None

    def result(self) -> dict:
        lines = []
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - self.start
                elif line.strip():
                    lines.append(line)
            code = self.proc.wait()
        finally:
            self.killer.cancel()
            self.proc.stdout.close()
        if code != 0 or not lines:
            raise WorkerError(f"{self.mode} worker exited with code {code}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        self.killer.cancel()
        self.kill()
        self.proc.wait()


def git_commit() -> str:
    """Commit of the checkout; 'unknown' when it is not a git work tree (or git is missing)."""
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_untraced(args, deadline, workers_started) -> tuple[dict, dict]:
    setups = []  # (seconds from process start to READY, slowdown just after)
    for _ in range(1 if args.smoke else SETUP_REPEATS - 1):
        w = Worker(args, "setup", deadline)
        workers_started.append(w)
        slowdown = w.result()["setup_slowdown"]
        setups.append((w.ready_s, slowdown))
    w = Worker(args, "measure", deadline)
    workers_started.append(w)
    res = w.result()
    setups.append((w.ready_s, res["setup_slowdown"]))
    res["setup_samples_s"] = [s for s, _ in setups]
    res["setup_slowdowns"] = [f for _, f in setups]
    res["raw_setup_s"] = statistics.median(s for s, _ in setups)
    res["setup_s"] = statistics.median(s / f for s, f in setups)
    fits = res["fits"]
    values = {
        "fits_per_s": res["fits_per_s"],
        "fit_ms_p50": res["fit_ms_p50"],
        "fit_ms_p90": res["fit_ms_p90"],
        "nonconverged_frac": None if args.workload == "mc-study" else res["nonconverged"] / fits,
        "fail_frac": res["failed"] / fits,
        "nmse_mean": res["nmse_mean"],
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, values


def run_traced(args, deadline, workers_started) -> tuple[dict, dict]:
    counters = [Worker(args, "count", deadline) for _ in range(2)]
    workers_started.extend(counters)
    first, second = (c.result() for c in counters)
    main = Worker(args, "trace", deadline)
    workers_started.append(main)
    res = main.result()
    guard = {
        name: (first["counts"][name], second["counts"][name])
        for name in first["counts"]
        if name.startswith(GUARDED_PREFIXES)
    }
    res["repeat_guard"] = {
        "passed": all(a == b for a, b in guard.values()),
        "compared": guard,
    }
    res["counts"] = first["counts"]
    for counted in (first, second):
        res["attempted"] += counted["attempted"]
        res["failed"] += counted["failed"]
        res["errors"] += counted["errors"]
    values = {**res["per_layer"], **res["counts"]}
    return res, values


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long check of the harness; not a measurement")
    args = p.parse_args(argv)

    spec = benchmark_spec()
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    workers_started: list[Worker] = []
    try:
        if args.trace:
            res, values = run_traced(args, deadline, workers_started)
        else:
            res, values = run_untraced(args, deadline, workers_started)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers_started:
            w.stop()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {
        **res.pop("run_record"),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "workers": res.get("workers", 1),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), ""),
    }
    correct = res["failed"] == 0 and res.get("repeat_guard", {}).get("passed", True)
    if not (args.trace or args.smoke) and res["refused"]:
        correct = False

    print(f"structcov benchmark: {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in record.items():
        print(f"  {key}: {value}")
    if args.trace:
        print(f"  spans: {res['spans']}  missing hooks: {res['missing_hooks'] or 'none'}")
        print(f"  exact-repeat guard: {'passed' if res['repeat_guard']['passed'] else 'FAILED'}")
    else:
        print(f"  fits: {res['fits']} on {res['inputs']} inputs; slowdown {res['slowdown']:.4f}")
        print("  setup samples: " + ", ".join(f"{s:.3f}" for s in res["setup_samples_s"])
              + " s; slowdowns " + ", ".join(f"{f:.3f}" for f in res["setup_slowdowns"])
              + f"; raw median {res['raw_setup_s']:.4f} s")
        print(f"  raw, as timed: {fmt(res['raw_fits_per_s'])} fits/s, "
              f"p50 {fmt(res['raw_fit_ms_p50'])} ms, p90 {fmt(res['raw_fit_ms_p90'])} ms")
        for name, unit in (("nonconverged_frac", "ratio"), ("fail_frac", "ratio")):
            print(f"  {name:<44} {fmt(values[name]):>12} {unit}")
        for note in res["refused"]:
            print(f"  refused: {note}")
    for m in wanted:
        print(f"  {m['name']:<44} {fmt(values.get(m['name'], 0.0)):>12} {m['unit']}")
    for err in res.get("errors", []):
        print(f"  error: {err}")

    report = {"record": record, "result": res, "values": values, "correct": correct}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    metrics = {
        m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
