"""Run the benchmark on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads fit-closedform mc-study

It runs each workload once on each of the seeds 1 to 10. For every workload
and metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json. A spread under a third of the bound is steady enough.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            last = json.loads(lines[-1])
            runs.append(last["metrics"])
            took = time.perf_counter() - start
            print(f"{workload} seed {seed} ({took:.1f} s): "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {workload:<15} {m['name']:<14} median {statistics.median(values):<12.5g}"
                  f" spread {spread:.4f}  bound {m['bound']}  {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
