"""Compare two source trees on the benchmark: fit parity, traced runs and alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE OUT.json

PARENT and CHANGE are two checkouts (for example from ``git archive``).
OUT.json records the machine and each tree's ``src/`` line count. The
script then runs, in order, and rewrites OUT.json after each phase:

1. ``tools/fit_parity.py`` (this tree's copy) on both checkouts, the
   comparison of the two hash files and the largest cost gap per group;
2. one traced run (``perfbench/run.py --trace 1``, seed 7) per workload
   and side, parent first;
3. PAIRS pairs of untraced runs per workload, alternating which side
   runs first; pair i of workload w uses seed ``SEED_BASE + 10 w + i``.

Each run is the unchanged ``perfbench/run.py`` of its own checkout, one
process tree at a time, for the ``run_seconds`` of ``BENCHMARK.json``. The
summary gives each end-to-end metric's quartiles per side (the harness's
``statistics.quantiles(values, n=4)``) and its quartile spread
(``perfbench/stats.quartile_spread``), the pairs the change won, the
relative change of the medians, whether it stays inside the bound of
``BENCHMARK.json`` and whether the metric improved: the change better in
at least 9 of 10 pairs and its median beyond the parent's by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from stats import quartile_spread  # noqa: E402

WORKLOADS = ("fit-closedform", "fit-newton", "mc-study")
TRACE_SEED = 7
PAIRS = 10  # an improvement needs 9 of 10 pairs won
# no earlier committed run used seeds from this base; see CHANGES.md
SEED_BASE = 5501


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "every BLAS thread variable set to 1 in each benchmark worker "
                        "(perfbench/run.py) and in the parity processes (tools/fit_parity.py)",
    }


def src_lines(root: str) -> int:
    """Lines of the library's source, as ``cat src/structcov/*.py | wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "structcov", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": proc.stderr[-2000:]}
    result["exit_code"] = proc.returncode
    return result


def parity(parent: str, change: str) -> dict:
    sys.path.insert(0, HERE)
    from fit_parity import compare, cost_gaps

    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: os.path.join(tmp, f"{side}.json") for side in ("parent", "change")}
        for side, root in (("parent", parent), ("change", change)):
            subprocess.run([sys.executable, os.path.join(HERE, "fit_parity.py"), root, paths[side]],
                           check=True)
        differ = compare(paths["parent"], paths["change"])
        gaps = cost_gaps(paths["parent"], paths["change"])
        hashes = {}
        for side, path in paths.items():
            with open(path) as fh:
                hashes[side] = json.load(fh)
    groups = {
        name: {"fits": stats["fits"], "errors": stats["errors"],
               "iterations": {"parent": stats["iterations"],
                              "change": hashes["change"]["groups"][name]["iterations"]}}
        for name, stats in hashes["parent"]["groups"].items()
    }
    for name, gap in gaps.items():
        groups[name]["cost_gap"] = gap
    return {"fits": len(hashes["parent"]["fits"]), "differ": differ, "groups": groups}


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values),
            "spread": quartile_spread(values)}


def summarize(pairs: list, spec: dict) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")}
        better = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        parent_median = statistics.median(sides["parent"])
        change_median = statistics.median(sides["change"])
        rel = (change_median - parent_median) / parent_median if parent_median else 0.0
        worse = -rel if higher else rel
        parent = _quartiles(sides["parent"])
        gain = change_median - parent_median if higher else parent_median - change_median
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": _quartiles(sides["change"]),
            "change_better_pairs": better, "pairs": len(pairs),
            "median_change_rel": rel, "within_bound": worse <= metric["bound"],
            "improved": better >= 0.9 * len(pairs) and gain > parent["q3"] - parent["q1"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    out = {
        "what": "fit parity (tools/fit_parity.py), traced per-layer runs (trace 1, seed "
                f"{TRACE_SEED}) and alternating pairs of the unchanged perfbench/run.py "
                f"(trace 0, {seconds:g}-s runs, {PAIRS} pairs from seed {SEED_BASE}) "
                "on the parent and on the change",
        "command": "python tools/bench_pairs.py PARENT CHANGE OUT.json",
        "machine": machine(),
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
    }

    def save():
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)

    out["parity"] = parity(roots["parent"], roots["change"])
    save()
    out["traced"] = {}
    for workload in WORKLOADS:
        out["traced"][f"{workload}@{TRACE_SEED}"] = {
            side: run_bench(root, workload, TRACE_SEED, seconds, 1) for side, root in roots.items()
        }
        save()
    out["workloads"] = {workload: {"pairs": []} for workload in WORKLOADS}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w, workload in enumerate(WORKLOADS):
            seed = SEED_BASE + 10 * w + i
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(roots[side], workload, seed, seconds, 0)
            record = out["workloads"][workload]
            record["pairs"].append(pair)
            record["all_runs_correct"] = all(
                p[s].get("correct") for p in record["pairs"] for s in ("parent", "change"))
            record["failed"] = {s: sum(p[s].get("failed", 0) for p in record["pairs"])
                                for s in ("parent", "change")}
            if record["all_runs_correct"] and len(record["pairs"]) > 1:
                record["summary"] = summarize(record["pairs"], spec)
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
