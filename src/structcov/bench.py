"""Monte Carlo experiment runner producing deterministic CSV artifacts.

Each trial owns an independent random stream derived from
(seed, N, trial), so trials can run in any order or in parallel and the
aggregate is identical; rows are sorted before writing. Wall-clock
timing is inherently non-reproducible, so the timing column is opt-in
(``record_timing``) and empty by default, keeping the default artifact
byte-identical across reruns.
"""

from __future__ import annotations

import inspect
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import EstimationError, InvalidInputError
from .fileio import read_dictionary, write_results_csv
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
from .toeplitz import BandedSpec, CirculantEmbedding, estimate_banded_toeplitz, estimate_toeplitz
from .tyler import TERMINATION_MAX_ITER, EstimatorResult, MMSettings, tyler_unconstrained

RESULT_COLUMNS = [
    "estimator",
    "N",
    "nmse_mean",
    "nmse_stderr",
    "subspace_error_mean",
    "wall_time_mean_seconds",
    "failures",
    "iterations_mean",
    "nonconverged",
]

BASELINES = ("SCM", "TylerUnconstrained", "ProjectedTyler")


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _optional(read):
    return lambda value: None if value is None else read(value)


def _floats(value):
    return tuple(float(v) for v in value)


def _pair(value):
    lo, hi = _floats(value)
    return lo, hi


# How the value of each spec key is read. The readers are cheap conversions
# (every trial re-runs them); a value one rejects with
# TypeError or ValueError is InvalidInputError.
_SPEC_VALUES = {
    "a_beta": float,
    "a_spec": _text,
    "angles_deg": _floats,
    "b_beta": _optional(float),
    "b_structure": _optional(_text),
    "bandwidth": int,
    "basis": _text,
    "beta": float,
    "dictionary": _text,
    "embedding_size": _optional(int),
    "grid_step_deg": float,
    "n_spikes": int,
    "noise_var": float,
    "p": int,
    "power_range": _pair,
    "powers": _floats,
    "q": int,
}


def _check_spec(spec, table: dict, what: str):
    """The builder of ``spec``'s kind with the spec's values bound to it.

    A builder's parameters after its first two are the keys a spec of its
    kind may give; those without a default are required. Each value is
    read by its ``_SPEC_VALUES`` entry. Anything else is
    ``InvalidInputError``. Nothing is built, so this stays cheap: every
    trial re-runs it.
    """
    if not isinstance(spec, dict):
        raise InvalidInputError(f"{what} must be a dict with a 'kind', got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in table:
        raise InvalidInputError(f"unknown {what} kind {kind!r}; expected one of {tuple(table)}")
    keys = list(inspect.signature(table[kind]).parameters.values())[2:]
    given = {key: value for key, value in spec.items() if key != "kind"}
    missing = [p.name for p in keys if p.default is p.empty and p.name not in given]
    if missing:
        raise InvalidInputError(f"{what} {kind!r} needs {missing}")
    unknown = sorted(set(given) - {p.name for p in keys})
    if unknown:
        raise InvalidInputError(
            f"{what} {kind!r} does not take {unknown}; it takes {[p.name for p in keys]}"
        )
    for key, value in given.items():
        try:
            given[key] = _SPEC_VALUES[key](value)
        except (TypeError, ValueError):
            raise InvalidInputError(f"{what} {kind!r}: bad {key} {value!r}") from None
    if given.get("b_structure") not in (None, "toeplitz"):
        raise InvalidInputError(f"b_structure {given['b_structure']!r} is not 'toeplitz' or null")
    if "dictionary" in given and "grid_step_deg" in given:
        raise InvalidInputError("give the rank-one atoms as dictionary or grid_step_deg, not both")
    if given.get("a_spec", "identity") != "identity" and "a_beta" not in given:
        raise InvalidInputError(f"a_spec {spec['a_spec']!r} needs a_beta")
    return partial(table[kind], **given)


def _kronecker_truth(k, rng, p, q, a_spec="identity", a_beta=None, b_beta=None):
    A = np.eye(p) if a_spec == "identity" else ar_cov(p, a_beta)
    B = np.eye(q) if b_beta is None else ar_cov(q, b_beta)
    return np.kron(A, B)


# Truth builders: (k, rng, **spec keys) -> true scatter
TRUTH_KINDS = {
    "ar": lambda k, rng, beta: ar_cov(k, beta),
    "banded-ar": lambda k, rng, beta, bandwidth: banded_ar_cov(k, beta, bandwidth),
    "doa": lambda k, rng, angles_deg, powers, noise_var: doa_cov(k, angles_deg, powers, noise_var),
    "spiked": lambda k, rng, n_spikes, noise_var, power_range=(0.01, 1.0): spiked_cov(
        k, n_spikes, noise_var, power_range, rng=rng
    ),
    "kronecker": _kronecker_truth,
}


# Structure builders: (k, settings, **spec keys) -> fit(samples) -> EstimatorResult.
# A fit looks its estimator up as a module global when it runs, so a caller
# that replaces, say, ``structcov.bench.estimate_toeplitz`` sees every fit
# go through the replacement.

def _toeplitz(k, settings, embedding_size=None):
    CirculantEmbedding.build(k, embedding_size)  # refuses L < 2K-1
    return lambda X: estimate_toeplitz(X, settings, embedding_size=embedding_size)


def _banded_toeplitz(k, settings, bandwidth, embedding_size=None):
    # refuses L < 2K-1 and a bandwidth outside [0, K-1]
    BandedSpec.from_embedding(CirculantEmbedding.build(k, embedding_size), bandwidth)
    return lambda X: estimate_banded_toeplitz(X, bandwidth, settings, embedding_size=embedding_size)


def _linear(k, settings, basis="toeplitz"):
    struct = structure_from_name(basis, k)
    return lambda X: estimate_linear(struct, X, settings)


def _rank_one(k, settings, grid_step_deg=5.0, dictionary=None):
    """Atoms every ``grid_step_deg`` on a ULA, or from ``dictionary``: 'ula:K:step'
    or a CSV of atom rows; identity columns are appended for the noise."""
    if dictionary is None:
        atoms = ula_dictionary(k, grid_step_deg)
    elif dictionary.startswith("ula:"):
        try:
            _, dict_k, step = dictionary.split(":")
            dict_k, step = int(dict_k), float(step)
        except ValueError:
            raise InvalidInputError("ULA spec must look like ula:K:step_degrees") from None
        atoms = ula_dictionary(dict_k, step)
    else:
        atoms = read_dictionary(dictionary)
    if atoms.shape[0] != k:
        raise InvalidInputError(
            f"dictionary dimension {atoms.shape[0]} does not match the data dimension {k}"
        )
    augmented = RankOneDictionary.augment(atoms)
    return lambda X: estimate_rank_one(augmented, X, settings)


def _spiked(k, settings, n_spikes):
    if not 1 <= n_spikes < k:
        raise InvalidInputError(f"spike count must lie in [1, K-1], got {n_spikes} for K={k}")
    return lambda X: estimate_spiked(X, n_spikes, settings)


def _kronecker(method, k, settings, p, q, b_structure=None):
    if p < 1 or q < 1 or p * q != k:
        raise InvalidInputError(f"factor dimensions ({p}, {q}) must be positive and match K={k}")
    b_basis = toeplitz_basis(q) if b_structure == "toeplitz" else None
    return lambda X: estimate_kronecker(X, p, q, settings, method=method, b_structure=b_basis)


# The structured fits by name; the bench, ``structcov estimate`` and
# ``structcov doa`` all read this table.
STRUCTURE_KINDS = {
    "toeplitz": _toeplitz,
    "banded-toeplitz": _banded_toeplitz,
    "linear": _linear,
    "rank-one": _rank_one,
    "spiked": _spiked,
    "kronecker-gs": partial(_kronecker, "gs"),
    "kronecker-mm": partial(_kronecker, "mm"),
}


def structure_fit(spec, k: int, settings: MMSettings | None = None):
    """``fit(samples) -> EstimatorResult`` for a structure spec of dimension ``k``.

    ``spec`` is a dict such as ``{"kind": "banded-toeplitz", "bandwidth": 3}``;
    ``STRUCTURE_KINDS`` maps each kind to its builder, whose keyword
    parameters are the keys the spec may give.
    """
    return _check_spec(spec, STRUCTURE_KINDS, "structure")(k, settings)


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
        _check_spec(self.truth, TRUTH_KINDS, "truth")
        if self.structure is not None:
            _check_spec(self.structure, STRUCTURE_KINDS, "structure")
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
    return _check_spec(cfg.truth, TRUTH_KINDS, "truth")(cfg.k, rng)


def _baseline_estimator(name: str, cfg: ExperimentConfig):
    """The baseline's fit: a bare scatter for SCM, else an EstimatorResult."""
    settings = cfg.settings
    if name == "SCM":
        return lambda X: sample_cov(X)
    if name == "TylerUnconstrained":
        return lambda X: tyler_unconstrained(X, settings)
    if name == "ProjectedTyler":
        signal_dim = cfg.signal_dim

        def run(X):
            result = tyler_unconstrained(X, settings)
            result.scatter = project_spiked(result.scatter, signal_dim)
            return result

        return run
    raise InvalidInputError(f"unknown baseline {name!r}")


def _estimators(cfg: ExperimentConfig):
    out = []
    if cfg.structure is not None:
        out.append((cfg.structure["kind"], structure_fit(cfg.structure, cfg.k, cfg.settings)))
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
            out = run(samples)
        except EstimationError as exc:
            rec["failed"] = True
            rec["error"] = str(exc)
        else:
            rec["failed"] = False
            scatter = out
            if isinstance(out, EstimatorResult):
                scatter = out.scatter
                rec["iterations"] = out.iterations
                rec["termination"] = out.termination
            rec["nmse"] = nmse([scatter], R0)
            if cfg.signal_dim is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rec["subspace_error"] = subspace_error(scatter, R0, cfg.signal_dim)
        rec["wall_time"] = time.perf_counter() - start
        records.append(rec)
    return records


def run_experiment(cfg: ExperimentConfig, output=None) -> list[dict]:
    """Run the full study and return aggregated rows (also written as CSV).

    One row per (N, estimator) with mean NMSE, its standard error,
    mean subspace error where a signal dimension exists, the optional
    mean wall time, the count of failed trials (excluded from the
    means), and for the MM fits the mean MM map count and the count of
    fits stopped at ``max_iter``. Deterministic for a fixed seed,
    including under parallel execution.
    """
    _estimators(cfg)  # a structure that does not fit k fails here, before any trial
    jobs = [(n, trial) for n in cfg.n_list for trial in range(cfg.trials)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            all_records = list(pool.map(partial(run_trial, cfg), *zip(*jobs), chunksize=1))
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
            "iterations_mean": None,
            "nonconverged": None,
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
            if "iterations" in ok[0]:  # an MM fit, not the SCM
                row["iterations_mean"] = float(np.mean([r["iterations"] for r in ok]))
                row["nonconverged"] = sum(r["termination"] == TERMINATION_MAX_ITER for r in ok)
        rows.append(row)

    target = output or cfg.output
    if target is not None:
        write_results_csv(target, rows, RESULT_COLUMNS)
    return rows
