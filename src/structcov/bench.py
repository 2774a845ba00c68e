"""Monte Carlo experiment runner producing deterministic CSV artifacts.

Each trial owns an independent random stream derived from
(seed, N, trial), so trials can run in any order or in parallel and the
aggregate is identical; rows are sorted before writing. Wall-clock
timing is inherently non-reproducible, so the timing column is opt-in
(``record_timing``) and empty by default, keeping the default artifact
byte-identical across reruns.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import EstimationError, InvalidInputError
from .fileio import write_results_csv
from .kronecker import estimate_kronecker
from .linear import estimate_linear, structure_from_name, toeplitz_basis
from .rankone import RankOneDictionary, estimate_rank_one
from .simulate import (
    ar_cov,
    banded_ar_cov,
    doa_cov,
    nmse,
    sample_cov,
    sample_elliptical,
    spiked_cov,
    subspace_error,
    ula_dictionary,
)
from .spiked import estimate_spiked, project_spiked
from .toeplitz import estimate_banded_toeplitz, estimate_toeplitz
from .tyler import MMSettings, tyler_unconstrained

RESULT_COLUMNS = [
    "estimator",
    "N",
    "nmse_mean",
    "nmse_stderr",
    "subspace_error_mean",
    "wall_time_mean_seconds",
    "failures",
]

BASELINES = ("SCM", "TylerUnconstrained", "ProjectedTyler")

TRUTH_KINDS = ("ar", "banded-ar", "doa", "spiked", "kronecker")

STRUCTURES = (
    "toeplitz",
    "banded-toeplitz",
    "linear",
    "rank-one",
    "spiked",
    "kronecker-gs",
    "kronecker-mm",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo study."""

    k: int
    n_list: tuple
    truth: dict
    structure: dict | None = None
    baselines: tuple = ()
    trials: int = 100
    seed: int = 0
    tau_dof: float | None = 1.0
    tol: float = 1e-6
    max_iter: int = 500
    record_timing: bool = False
    workers: int = 1
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidInputError("trials must be at least 1")
        n_list = tuple(int(n) for n in self.n_list)
        if len(n_list) == 0:
            raise InvalidInputError("n_list must not be empty")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise InvalidInputError("n_list must be strictly increasing")
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "baselines", tuple(self.baselines))
        for b in self.baselines:
            if b not in BASELINES:
                raise InvalidInputError(f"unknown baseline {b!r}; expected one of {BASELINES}")
        kind = self.truth.get("kind")
        if kind not in TRUTH_KINDS:
            raise InvalidInputError(f"unknown truth kind {kind!r}; expected one of {TRUTH_KINDS}")
        if self.structure is not None:
            skind = self.structure.get("kind")
            if skind not in STRUCTURES:
                raise InvalidInputError(
                    f"unknown structure kind {skind!r}; expected one of {STRUCTURES}"
                )
        if "ProjectedTyler" in self.baselines and self.signal_dim is None:
            raise InvalidInputError("ProjectedTyler needs a truth with a signal dimension")
        if self.workers < 1:
            raise InvalidInputError("workers must be at least 1")

    @property
    def signal_dim(self) -> int | None:
        kind = self.truth.get("kind")
        if kind == "doa":
            return len(self.truth["angles_deg"])
        if kind == "spiked":
            return int(self.truth["n_spikes"])
        return None

    @property
    def settings(self) -> MMSettings:
        return MMSettings(tol=self.tol, max_iter=self.max_iter, record_trace=False)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"bad JSON config: {exc}") from None
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise InvalidInputError(f"bad config: {exc}") from None


def build_truth(cfg: ExperimentConfig, rng) -> np.ndarray:
    """True scatter for one trial; random-direction truths use ``rng``."""
    t = cfg.truth
    kind = t["kind"]
    if kind == "ar":
        return ar_cov(cfg.k, float(t["beta"]))
    if kind == "banded-ar":
        return banded_ar_cov(cfg.k, float(t["beta"]), int(t["bandwidth"]))
    if kind == "doa":
        return doa_cov(cfg.k, t["angles_deg"], t["powers"], float(t["noise_var"]))
    if kind == "spiked":
        return spiked_cov(
            cfg.k,
            int(t["n_spikes"]),
            float(t["noise_var"]),
            tuple(t.get("power_range", (0.01, 1.0))),
            rng=rng,
        )
    if kind == "kronecker":
        p, q = int(t["p"]), int(t["q"])
        A = np.eye(p) if t.get("a_spec", "identity") == "identity" else ar_cov(p, float(t["a_beta"]))
        B = ar_cov(q, float(t["b_beta"])) if "b_beta" in t else np.eye(q)
        return np.kron(A, B)
    raise InvalidInputError(f"unknown truth kind {kind!r}")


def _structured_estimator(cfg: ExperimentConfig):
    """(name, callable) for the configured structured estimator, or None."""
    if cfg.structure is None:
        return None
    s = cfg.structure
    kind = s["kind"]
    settings = cfg.settings
    if kind == "toeplitz":
        return kind, lambda X: estimate_toeplitz(
            X, settings, embedding_size=s.get("embedding_size")
        ).scatter
    if kind == "banded-toeplitz":
        bandwidth = int(s["bandwidth"])
        return kind, lambda X: estimate_banded_toeplitz(
            X, bandwidth, settings, embedding_size=s.get("embedding_size")
        ).scatter
    if kind == "linear":
        struct = structure_from_name(s.get("basis", "toeplitz"), cfg.k)
        return kind, lambda X: estimate_linear(struct, X, settings).scatter
    if kind == "rank-one":
        step = float(s.get("grid_step_deg", 5.0))
        atoms = ula_dictionary(cfg.k, step)
        dictionary = RankOneDictionary.augment(atoms)
        epsilon = float(s.get("epsilon", 0.0))
        return kind, lambda X: estimate_rank_one(
            dictionary, X, settings, epsilon=epsilon
        ).scatter
    if kind == "spiked":
        n_spikes = int(s["n_spikes"])
        return kind, lambda X: estimate_spiked(X, n_spikes, settings).scatter
    if kind in ("kronecker-gs", "kronecker-mm"):
        p, q = int(s["p"]), int(s["q"])
        method = "gs" if kind.endswith("gs") else "mm"
        b_structure = None
        if s.get("b_structure") == "toeplitz":
            b_structure = toeplitz_basis(q)
        return kind, lambda X: estimate_kronecker(
            X, p, q, settings, method=method, b_structure=b_structure
        ).scatter
    raise InvalidInputError(f"unknown structure kind {kind!r}")


def _baseline_estimator(name: str, cfg: ExperimentConfig):
    settings = cfg.settings
    if name == "SCM":
        return lambda X: sample_cov(X)
    if name == "TylerUnconstrained":
        return lambda X: tyler_unconstrained(X, settings).scatter
    if name == "ProjectedTyler":
        signal_dim = cfg.signal_dim

        def run(X):
            R = tyler_unconstrained(X, settings).scatter
            return project_spiked(R, signal_dim)

        return run
    raise InvalidInputError(f"unknown baseline {name!r}")


def _estimators(cfg: ExperimentConfig):
    out = []
    structured = _structured_estimator(cfg)
    if structured is not None:
        out.append(structured)
    for name in cfg.baselines:
        out.append((name, _baseline_estimator(name, cfg)))
    if not out:
        raise InvalidInputError("configure a structure or at least one baseline")
    return out


def run_trial(cfg: ExperimentConfig, n: int, trial: int) -> list[dict]:
    """All estimators on one (N, trial) draw; returns one record per estimator."""
    truth_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n, trial, 0]))
    R0 = build_truth(cfg, truth_rng)
    samples = sample_elliptical(
        R0, n, np.random.SeedSequence([cfg.seed, n, trial, 1]), tau_dof=cfg.tau_dof
    )
    records = []
    for name, run in _estimators(cfg):
        rec = {"estimator": name, "N": n, "trial": trial}
        start = time.perf_counter()
        try:
            scatter = run(samples)
        except EstimationError as exc:
            rec["failed"] = True
            rec["error"] = str(exc)
        else:
            rec["failed"] = False
            rec["nmse"] = nmse([scatter], R0)
            if cfg.signal_dim is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rec["subspace_error"] = subspace_error(scatter, R0, cfg.signal_dim)
        rec["wall_time"] = time.perf_counter() - start
        records.append(rec)
    return records


def _run_trial_star(args):
    cfg_dict, n, trial = args
    cfg = ExperimentConfig(**cfg_dict)
    return run_trial(cfg, n, trial)


def run_experiment(cfg: ExperimentConfig, output=None) -> list[dict]:
    """Run the full study and return aggregated rows (also written as CSV).

    One row per (N, estimator) with mean NMSE, its standard error,
    mean subspace error where a signal dimension exists, the optional
    mean wall time, and the count of failed trials (excluded from the
    means). Deterministic for a fixed seed, including under parallel
    execution.
    """
    jobs = [(n, trial) for n in cfg.n_list for trial in range(cfg.trials)]
    if cfg.workers > 1:
        cfg_dict = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            all_records = list(
                pool.map(_run_trial_star, [(cfg_dict, n, t) for n, t in jobs], chunksize=1)
            )
    else:
        all_records = [run_trial(cfg, n, t) for n, t in jobs]

    flat = [rec for group in all_records for rec in group]
    flat.sort(key=lambda r: (r["N"], r["estimator"], r["trial"]))

    rows = []
    keys = sorted({(r["N"], r["estimator"]) for r in flat})
    for n, name in keys:
        group = [r for r in flat if r["N"] == n and r["estimator"] == name]
        ok = [r for r in group if not r["failed"]]
        row = {
            "estimator": name,
            "N": n,
            "failures": len(group) - len(ok),
            "nmse_mean": None,
            "nmse_stderr": None,
            "subspace_error_mean": None,
            "wall_time_mean_seconds": None,
        }
        if ok:
            vals = np.asarray([r["nmse"] for r in ok])
            row["nmse_mean"] = float(np.mean(vals))
            row["nmse_stderr"] = float(
                np.std(vals, ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
            )
            if cfg.signal_dim is not None:
                row["subspace_error_mean"] = float(
                    np.mean([r["subspace_error"] for r in ok])
                )
            if cfg.record_timing:
                row["wall_time_mean_seconds"] = float(
                    np.mean([r["wall_time"] for r in ok])
                )
        rows.append(row)

    target = output or cfg.output
    if target is not None:
        write_results_csv(target, rows, RESULT_COLUMNS)
    return rows
