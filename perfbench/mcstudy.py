"""The ``mc-study`` workload: repeated Monte Carlo studies through ``structcov.bench``.

Each study is one ``run_experiment`` call shaped like the first study of
acceptance criterion 4 (K=15, AR(0.8) truth, N in 20..100, Toeplitz
structure with SCM and unconstrained-Tyler baselines, tol 1e-6, max_iter
400, no cost trace), with fewer trials so that a run holds many studies.
Every study of a run is the same study: the bench layer draws its samples
from the study seed, which is the benchmark seed.

Every fit's output is checked inside the fit call, in the parent and in
each pool worker (``install_checks``): a failed check raises an
``EstimationError``, so the bench layer records the fit as failed. The
check's time (tens of microseconds) is part of the fit times the bench
layer records.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import structcov as sc
import structcov.bench as bench
from structcov import EstimationError

from cases import WARMUP_SEED, check_output, check_scatter, no_structure, toeplitz_structure

WORKERS = 2
TRIALS = 20
STUDY = dict(
    k=15,
    n_list=(20, 40, 60, 100),
    truth={"kind": "ar", "beta": 0.8},
    structure={"kind": "toeplitz"},
    baselines=("SCM", "TylerUnconstrained"),
    tol=1e-6,
    max_iter=400,
)
# estimator entry points the bench layer calls, and the fit label of each
FIT_ENTRIES = {
    "estimate_toeplitz": "mc_toeplitz",
    "tyler_unconstrained": "mc_tyler",
    "sample_cov": "mc_scm",
}
LABELS = ["mc_toeplitz", "mc_tyler"]
STRUCTURE_CHECKS = {"mc_toeplitz": toeplitz_structure, "mc_tyler": no_structure}
_ORIGINALS: dict = {}  # bench's own estimator entry points, before any wrapping


class OutputCheckError(EstimationError):
    """A fit returned a scatter that fails the benchmark's output checks."""


def install_checks(wrap=None) -> None:
    """Make every estimator call of the bench layer check its output.

    ``wrap(func, label)``, when given, wraps the estimator itself, inside
    the check (the tracer's fit span, so that the check's own Cholesky
    factor is not counted as the fit's). Calling it again replaces the
    wrappers; the originals are kept.
    """
    for name, label in FIT_ENTRIES.items():
        original = _ORIGINALS.setdefault(name, getattr(bench, name))
        fit = wrap(original, label) if wrap else original
        setattr(bench, name, _checked(fit, label))


def _checked(fit, label):
    @functools.wraps(fit)
    def wrapper(*args, **kwargs):
        out = fit(*args, **kwargs)
        if label == "mc_scm":  # SCM returns a bare, unnormalized matrix
            problem = check_scatter(out)
        else:
            problem = check_output(out, STRUCTURE_CHECKS[label])
        if problem:
            raise OutputCheckError(f"{label}: {problem}")
        return out

    return wrapper


class RecordingPool(ProcessPoolExecutor):
    """Checking process pool that hands every per-trial record list to ``sink``."""

    def __init__(self, *args, sink, **kwargs):
        super().__init__(*args, initializer=install_checks, **kwargs)
        self._sink = sink

    def map(self, fn, *iterables, **kwargs):
        for records in super().map(fn, *iterables, **kwargs):
            self._sink.extend(records)
            yield records


def study_config(seed: int, workers: int, trials: int, output: str | None):
    return sc.ExperimentConfig(**STUDY, trials=trials, seed=seed, workers=workers, output=output)


def check_rows(rows, cfg, output) -> list[str]:
    """Problems with the aggregated rows and the CSV written from them."""
    problems = []
    expected = len(cfg.n_list) * (1 + len(cfg.baselines))
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:  # failed trials are counted per fit, from the records
        value = row["nmse_mean"]
        if value is None or not math.isfinite(value) or value <= 0.0:
            problems.append(f"{row['estimator']} N={row['N']}: nmse_mean {value}")
    with open(output, newline="") as fh:
        written = list(csv.DictReader(fh))
    if len(written) != len(rows):
        problems.append(f"CSV holds {len(written)} rows, expected {len(rows)}")
    return problems


class McStudy:
    """One study per round; ``workers`` selects the pool or the serial path."""

    labels = LABELS
    restart_labels = {"mc_toeplitz"}

    def __init__(self, seed: int, out_dir: str, trials: int):
        self.seed = seed
        self.trials = trials
        self.output = os.path.join(out_dir, f"mc-study-{os.getpid()}.csv")
        cfg = study_config(seed, 1, trials, None)
        self.fits_per_study = len(cfg.n_list) * trials * (1 + len(cfg.baselines))
        install_checks()
        # warm the parent's lazy imports once; forked workers inherit them
        bench.run_trial(study_config(WARMUP_SEED, 1, trials, None), cfg.n_list[0], 0)

    def study(self, workers: int, tracer=None):
        """Run the study once; returns (seconds, fit records, rows, problems)."""
        cfg = study_config(self.seed, workers, self.trials, self.output)
        records: list = []
        restore = []
        if workers > 1:
            restore.append(("ProcessPoolExecutor", bench.ProcessPoolExecutor))
            bench.ProcessPoolExecutor = functools.partial(RecordingPool, sink=records)
        else:
            restore.append(("run_trial", bench.run_trial))
            bench.run_trial = _collecting(bench.run_trial, records.extend)
        if tracer is not None:
            install_checks(tracer.fit_wrapper)
        try:
            start = time.perf_counter()
            rows = sc.run_experiment(cfg)
            seconds = time.perf_counter() - start
        finally:
            for name, original in reversed(restore):
                setattr(bench, name, original)
            if tracer is not None:
                install_checks()
        problems = check_rows(rows, cfg, self.output)
        os.remove(self.output)
        if len(records) != self.fits_per_study:
            problems.append(f"saw {len(records)} fit records, expected {self.fits_per_study}")
        for rec in records:
            if not rec["failed"] and not math.isfinite(rec["nmse"]):
                problems.append(f"{rec['estimator']} N={rec['N']} trial {rec['trial']}: nmse")
        return seconds, records, rows, problems


def _collecting(func, sink):
    """Wrap ``func`` so that each return value is also passed to ``sink``."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        out = func(*args, **kwargs)
        sink(out)
        return out

    return wrapper

