"""Bit-for-bit parity of fits between two source trees.

    python tools/fit_parity.py ROOT OUT.json
    python tools/fit_parity.py --compare A.json B.json

The first form imports the library from ``ROOT/src`` and the benchmark
cases from ``ROOT/perfbench/cases.py`` (read, never changed), fits
every case of the ``fit-closedform`` and ``fit-newton`` workloads for
seeds 3, 7 and 11, plus ``mc-study``-like K=15 AR(0.8) Toeplitz and
Tyler fits (real and complex, N in {20, 40, 60, 100}, 10 draws each,
tol 1e-6, max_iter 400, no cost trace), and writes one sha256 per fit
to OUT.json. The hash covers the scatter, params, objective trace,
iterations, termination, the SQUAREM counters and, for Kronecker fits,
factor_a, factor_b and b_coeffs; a fit that raises hashes its error.
Every BLAS runs on one thread.

The second form lists the fits whose hashes differ (or that only one
file has) and exits 1 when there is any.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

SEEDS = (3, 7, 11)
MC_N = (20, 40, 60, 100)
MC_DRAWS = 10
DETAIL_KEYS = ("squarem_cycles", "squarem_rejected", "factor_a", "factor_b", "b_coeffs")


def _digest(result) -> str:
    import numpy as np

    h = hashlib.sha256()
    fields = [result.scatter, result.params, result.objective_trace,
              result.iterations, result.termination]
    fields += [result.details.get(key) for key in DETAIL_KEYS]
    for value in fields:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


def _fit(fit, samples) -> tuple[str, int | None]:
    from structcov import EstimationError

    try:
        result = fit(samples)
    except EstimationError as exc:
        return "error:" + hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest(), None
    return _digest(result), result.iterations


def _mc_fits():
    """(group, key, fit, samples) of the mc-study-like fits."""
    import numpy as np

    import structcov as sc

    settings = sc.MMSettings(tol=1e-6, max_iter=400, record_trace=False)
    fits = {
        "mc_toeplitz": lambda X: sc.estimate_toeplitz(X, settings),
        "mc_tyler": lambda X: sc.tyler_unconstrained(X, settings),
    }
    truth = sc.ar_cov(15, 0.8)
    for field, R0 in (("real", truth), ("complex", truth.astype(complex))):
        for n in MC_N:
            for draw in range(MC_DRAWS):
                X = sc.sample_elliptical(R0, n, np.random.SeedSequence([15, n, draw]), tau_dof=1.0)
                for label, fit in fits.items():
                    yield f"{label}/{field}", f"{label}/{field}/N{n}/d{draw}", fit, X


def hash_fits(root: str) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import cases

    out = {"root": os.path.abspath(root), "fits": {}, "groups": {}}

    def record(group, key, fit, samples):
        digest, iterations = _fit(fit, samples)
        out["fits"][key] = digest
        stats = out["groups"].setdefault(group, {"fits": 0, "errors": 0, "iterations": 0})
        stats["fits"] += 1
        stats["errors"] += iterations is None
        stats["iterations"] += iterations or 0

    for workload, build in cases.CASE_BUILDERS.items():
        for seed in SEEDS:
            for case in build(seed, cases.DATASETS[workload]):
                for i, (samples, _) in enumerate(case.inputs):
                    record(case.label, f"{workload}/{case.label}/s{seed}/d{i}", case.fit, samples)
    for group, key, fit, samples in _mc_fits():
        record(group, key, fit, samples)
    return out


def compare(path_a: str, path_b: str) -> list[str]:
    """Keys whose hashes differ, or that only one of the two files has."""
    with open(path_a) as fh:
        a = json.load(fh)["fits"]
    with open(path_b) as fh:
        b = json.load(fh)["fits"]
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="ROOT OUT.json, or with --compare two hash files")
    parser.add_argument("--compare", action="store_true",
                        help="compare two hash files instead of fitting")
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.paths)
        for key in differ:
            print(key)
        print(f"{len(differ)} fits differ")
        return 1 if differ else 0
    root, out_path = args.paths
    out = hash_fits(root)
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"{len(out['fits'])} fits hashed to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
