"""Command-line interface.

Subcommands
-----------
estimate : one dataset -> one scatter matrix CSV
bench    : JSON experiment config -> aggregated results CSV
doa      : dataset or synthetic scenario -> pseudospectrum + peaks CSV

Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .bench import STRUCTURE_KINDS, ExperimentConfig, run_experiment, structure_fit
from .exceptions import EstimationError, InvalidInputError
from .fileio import read_samples, write_array, write_results_csv
from .simulate import default_music_grid, doa_cov, music_spectrum, sample_cov, sample_elliptical
from .tyler import TERMINATION_MAX_ITER, MMSettings, tyler_unconstrained

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# `estimate` flags whose dest is a structure spec key; --dims p,q sets p and q
_SPEC_FLAGS = ("basis", "bandwidth", "embedding_size", "dictionary", "n_spikes", "b_structure")


def _settings(args) -> MMSettings:
    return MMSettings(tol=args.tol, max_iter=args.max_iter, record_trace=False)


def _report(fit) -> str:
    """The fit's termination and iterations; warns on stderr when it stopped at max_iter."""
    if fit.termination == TERMINATION_MAX_ITER:
        print(f"warning: the fit stopped after {fit.iterations} iterations (--max-iter) "
              "without converging", file=sys.stderr)
    return f"termination={fit.termination} iterations={fit.iterations}"


def _cmd_estimate(args) -> int:
    samples = read_samples(args.input)
    settings = _settings(args)
    spec = {key: getattr(args, key) for key in _SPEC_FLAGS if getattr(args, key) is not None}
    if args.dims is not None:
        try:
            spec["p"], spec["q"] = (int(v) for v in args.dims.split(","))
        except ValueError:
            raise InvalidInputError("--dims must look like p,q") from None
    if args.structure == "unconstrained":
        if spec:
            raise InvalidInputError(f"structure 'unconstrained' does not take {sorted(spec)}")
        result = tyler_unconstrained(samples, settings)
    else:
        result = structure_fit({"kind": args.structure, **spec}, samples.k, settings)(samples)

    write_array(args.out, result.scatter)
    print(f"wrote {args.out}: K={samples.k} {_report(result)}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {}
    for name in ("trials", "seed", "workers"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.timing:
        overrides["record_timing"] = True
    cfg = dataclasses.replace(cfg, **overrides)
    output = args.out or cfg.output
    if output is None:
        raise InvalidInputError("no output path: pass --out or set 'output' in the config")
    rows = run_experiment(cfg, output=output)
    print(f"wrote {output}: {len(rows)} rows")
    return EXIT_OK


def _cmd_doa(args) -> int:
    settings = _settings(args)
    if args.input is not None:
        samples = read_samples(args.input)
    else:
        angles = [float(a) for a in args.scenario_angles.split(",")]
        R0 = doa_cov(args.scenario_k, angles, [args.scenario_power] * len(angles),
                     args.scenario_noise_var)
        samples = sample_elliptical(R0, args.scenario_n, args.seed)
        print(f"synthetic scenario: K={args.scenario_k} N={args.scenario_n} angles={angles}")
    if not samples.is_complex:
        raise InvalidInputError("DOA estimation needs complex samples")

    if args.estimator == "scm":
        scatter = sample_cov(samples)
    else:
        if args.estimator == "constrained":
            fit = structure_fit({"kind": "rank-one", "grid_step_deg": args.grid_step},
                                samples.k, settings)(samples)
        else:
            fit = tyler_unconstrained(samples, settings)
        print(f"{args.estimator} fit: {_report(fit)}")
        scatter = fit.scatter

    result = music_spectrum(scatter, args.sources, default_music_grid(args.eval_step))
    peaks = set(np.round(result.peak_angles_deg, 9))
    rows = [
        {
            "angle_deg": float(a),
            "pseudospectrum": float(v),
            "is_peak": int(round(float(a), 9) in peaks),
        }
        for a, v in zip(result.grid_deg, result.pseudospectrum)
    ]
    write_results_csv(args.out, rows, ["angle_deg", "pseudospectrum", "is_peak"])
    print(f"wrote {args.out}")
    print("peaks_deg:", ",".join(str(float(a)) for a in sorted(result.peak_angles_deg)))
    if result.short_peak_list:
        print("warning: fewer peaks than requested sources")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structcov",
        description="Robust structured scatter-matrix estimation for heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate one scatter matrix from a sample CSV")
    est.add_argument("--input", required=True, help="sample CSV, one sample per row")
    est.add_argument("--out", required=True, help="output scatter CSV")
    est.add_argument("--structure", default="unconstrained",
                     choices=["unconstrained", *STRUCTURE_KINDS])
    est.add_argument("--basis",
                     help="linear structure preset: toeplitz, banded:<k>, diagonal, full, circulant")
    est.add_argument("--bandwidth", type=int)
    est.add_argument("--embedding-size", type=int, dest="embedding_size")
    est.add_argument("--dictionary",
                     help="rank-one atoms: CSV with one atom per row, or 'ula:K:step_degrees'")
    est.add_argument("--spikes", type=int, dest="n_spikes")
    est.add_argument("--dims", help="Kronecker factor sizes p,q")
    est.add_argument("--b-structure", dest="b_structure", help="Kronecker B factor: toeplitz")
    est.add_argument("--tol", type=float, default=1e-8)
    est.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    est.set_defaults(func=_cmd_estimate)

    bench = sub.add_parser("bench", help="run a Monte Carlo experiment from a JSON config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default=None)
    bench.add_argument("--trials", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--timing", action="store_true",
                       help="record mean wall time per estimator (breaks byte-level determinism)")
    bench.set_defaults(func=_cmd_bench)

    doa = sub.add_parser("doa", help="MUSIC direction-of-arrival pipeline")
    doa.add_argument("--input", default=None, help="complex sample CSV; omit for synthetic data")
    doa.add_argument("--out", required=True)
    doa.add_argument("--sources", type=int, required=True)
    doa.add_argument("--estimator", default="constrained",
                     choices=["constrained", "tyler", "scm"])
    doa.add_argument("--grid-step", type=float, default=5.0, dest="grid_step",
                     help="dictionary grid step in degrees")
    doa.add_argument("--eval-step", type=float, default=0.5, dest="eval_step",
                     help="pseudospectrum grid step in degrees")
    doa.add_argument("--seed", type=int, default=0)
    doa.add_argument("--scenario-k", type=int, default=15, dest="scenario_k")
    doa.add_argument("--scenario-n", type=int, default=20, dest="scenario_n")
    doa.add_argument("--scenario-angles", default="-10,10,15,35,40", dest="scenario_angles")
    doa.add_argument("--scenario-power", type=float, default=1.0, dest="scenario_power")
    doa.add_argument("--scenario-noise-var", type=float, default=0.1, dest="scenario_noise_var")
    doa.add_argument("--tol", type=float, default=1e-8)
    doa.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    doa.set_defaults(func=_cmd_doa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EstimationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
