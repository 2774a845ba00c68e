"""In-memory spans recorded around structcov's layer boundaries.

Nothing inside the library changes: ``Tracer.install`` replaces module-level
names (functions, and one method) with wrappers that open a span, call the
original and close the span, and ``Tracer.uninstall`` puts the originals back.
A name imported into several modules (``mm_drive`` is bound in ``tyler``,
``linear``, ``rankone``, ``toeplitz`` and ``spiked``) is replaced in each,
so every call site is seen. Hooks whose target no longer exists are skipped
and listed in ``Tracer.missing``.

Each span holds its name, start, end and parent. Self time is the span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The attribute may be "Class.method".
SPAN_HOOKS = [
    ("structcov.tyler", "mm_drive", "tyler.mm_drive"),
    ("structcov.tyler", "weighted_scatter", "tyler.weighted_scatter"),
    ("structcov.tyler", "tyler_cost", "tyler.tyler_cost"),
    ("structcov.linalg", "chol_pd", "linalg.chol_pd"),
    ("structcov.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("structcov.linalg", "pd_geometric_mean", "linalg.pd_geometric_mean"),
    ("structcov.linear", "inner_update", "linear.inner_update"),
    ("structcov.linear", "LinearStructure.assemble", "linear.assemble"),
    ("structcov.rankone", "_weights", "rankone.weights"),
    ("structcov.toeplitz", "banded_inner_update", "toeplitz.banded_inner_update"),
    ("structcov.spiked", "spiked_inner_update", "spiked.spiked_inner_update"),
    ("structcov.kronecker", "block_mm_step", "kronecker.block_mm_step"),
    ("structcov.kronecker", "gauss_seidel_step", "kronecker.gauss_seidel_step"),
    ("structcov.kronecker", "kron_objective", "kronecker.kron_objective"),
    ("structcov.simulate", "sample_elliptical", "simulate.sample_elliptical"),
    ("structcov.bench", "run_experiment", "bench.run_experiment"),
    ("structcov.bench", "run_trial", "bench.run_trial"),
]

# Dense factorizations, counted (not spanned) when called inside a fit.
FACTORIZATIONS = [
    ("numpy.linalg", "cholesky"),
    ("scipy.linalg", "cholesky"),
    ("scipy.linalg", "cho_factor"),
]
FACTORIZATION_COUNTER = "linalg.factorizations"

FIT = "fit"


class Tracer:
    """Spans and per-fit counters, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.fit: int | None = None
        self.missing: list[str] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def begin_fit(self, label: str) -> int:
        idx = self.begin(FIT)
        self.attrs[idx] = {"label": label, "counts": Counter()}
        self.fit = idx
        return idx

    def end_fit(self, idx: int, result=None) -> None:
        self.end(idx)
        self.fit = None
        attrs = self.attrs[idx]
        attrs["iterations"] = getattr(result, "iterations", 0)
        details = getattr(result, "details", None) or {}
        attrs["restarted"] = details.get("epsilon", 0.0) > 0.0

    def count(self, name: str) -> None:
        if self.fit is not None:
            self.attrs[self.fit]["counts"][name] += 1

    def clear(self) -> None:
        """Forget recorded spans; installed hooks stay in place."""
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()
        self.attrs.clear()

    # -- hooks -------------------------------------------------------------

    def _span_wrapper(self, func, name):
        tracer = self
        if name == "tyler.mm_drive":
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                except Exception as exc:
                    # a failed run (say, before an epsilon-ridge restart) still
                    # did the iterations up to the one that raised
                    tracer.attrs[idx] = {"iterations": _failed_iteration(exc)}
                    raise
                else:
                    tracer.attrs[idx] = {"iterations": result.iterations}
                    return result
                finally:
                    tracer.end(idx)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.end(idx)
        return wrapper

    def _count_wrapper(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return func(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper, extra_modules=()):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "structcov"]
        for module in [*modules, *extra_modules]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> "Tracer":
        self.missing = []
        for module_name, attr, span in SPAN_HOOKS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span_wrapper(original, span)
            if owner_name:
                setattr(owner, method, wrapper)
                self._restore.append((owner, method, original))
            else:
                self._replace_everywhere(original, wrapper)
        for module_name, attr in FACTORIZATIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._count_wrapper(original, FACTORIZATION_COUNTER)
            self._replace_everywhere(original, wrapper, extra_modules=(module,))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def fit_wrapper(self, func, label):
        """Wrap an estimator entry point so each call is one labelled fit span."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.begin_fit(label)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.end_fit(idx, result)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def to_rows(self):
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]


def _failed_iteration(exc) -> int:
    """The MM iteration an exception escaped from; 0 when it came before the loop."""
    iteration = getattr(exc, "mm_iteration", None)
    if iteration is None:
        iteration = getattr(exc, "diagnostics", {}).get("iteration", 0)
    return int(iteration)


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            s, e = max(starts[c], cursor), min(ends[c], hi)
            if e > s:
                covered += e - s
                cursor = e
        out.append((hi - lo) - covered)
    return out


def _fits(tracer: Tracer):
    return [i for i, n in enumerate(tracer.names) if n == FIT]


def _fit_of(tracer: Tracer):
    """Index of the enclosing fit span for every span (-1 outside any fit)."""
    owner = []
    for idx, parent in enumerate(tracer.parents):
        if tracer.names[idx] == FIT:
            owner.append(idx)
        elif parent >= 0:
            owner.append(owner[parent])
        else:
            owner.append(-1)
    return owner


def fit_iterations(tracer: Tracer) -> dict[int, int]:
    """Outer iterations per fit: every mm_drive run inside it, else the result's count."""
    owner = _fit_of(tracer)
    from_drive = Counter()
    for idx, name in enumerate(tracer.names):
        if name == "tyler.mm_drive" and owner[idx] >= 0:
            from_drive[owner[idx]] += tracer.attrs.get(idx, {}).get("iterations", 0)
    return {f: from_drive.get(f, tracer.attrs[f]["iterations"]) for f in _fits(tracer)}


def count_metrics(tracer: Tracer, labels, restart_labels) -> dict[str, float]:
    """Work counts of a traced run; they repeat exactly for the same inputs."""
    fits = _fits(tracer)
    owner = _fit_of(tracer)
    iters = fit_iterations(tracer)
    by_label = defaultdict(list)
    for f in fits:
        by_label[tracer.attrs[f]["label"]].append(iters[f])

    calls = Counter()
    fits_with = defaultdict(set)
    for idx, name in enumerate(tracer.names):
        calls[name] += 1
        if owner[idx] >= 0:
            fits_with[name].add(owner[idx])

    def iters_of(name):  # outer iterations of the fits that entered span ``name``
        return sum(iters[f] for f in fits_with[name])

    def ratio(num, den):
        return num / den if den else 0.0

    inner_calls = calls["linear.inner_update"]
    assemble_in_inner = 0
    if inner_calls:
        inner_ancestor = []
        for idx, parent in enumerate(tracer.parents):
            inside = parent >= 0 and (
                tracer.names[parent] == "linear.inner_update" or inner_ancestor[parent]
            )
            inner_ancestor.append(inside)
            if tracer.names[idx] == "linear.assemble" and inside:
                assemble_in_inner += 1

    total_iters = sum(iters.values())
    factorizations = sum(tracer.attrs[f]["counts"][FACTORIZATION_COUNTER] for f in fits)
    out = {}
    for label in labels:
        out[f"tyler.mm_drive.iters_per_fit.{label}"] = ratio(
            sum(by_label[label]), len(by_label[label])
        )
    out.update(
        {
            "linalg.factorizations_per_iter": ratio(factorizations, total_iters),
            "tyler.tyler_cost.calls_per_iter": ratio(
                calls["tyler.tyler_cost"], iters_of("tyler.mm_drive")
            ),
            "linear.inner_update.calls_per_fit": ratio(inner_calls, len(fits)),
            "linear.assemble.calls_per_inner": ratio(assemble_in_inner, inner_calls),
            "kronecker.kron_objective.calls_per_iter": ratio(
                calls["kronecker.kron_objective"], iters_of("kronecker.kron_objective")
            ),
            "toeplitz.restarts": float(
                sum(
                    1
                    for f in fits
                    if tracer.attrs[f]["label"] in restart_labels and tracer.attrs[f]["restarted"]
                )
            ),
        }
    )
    return out


SELF_TIME_SPANS = [
    "tyler.mm_drive",
    "tyler.weighted_scatter",
    "tyler.tyler_cost",
    "linalg.chol_pd",
    "linear.inner_update",
    "rankone.weights",
    "toeplitz.banded_inner_update",
    "spiked.spiked_inner_update",
    "linalg.hermitian_eig",
    "kronecker.block_mm_step",
    "kronecker.gauss_seidel_step",
    "linalg.pd_geometric_mean",
]


def time_metrics(tracer: Tracer, labels) -> dict[str, float]:
    """Per-layer times of a traced phase: self ms per fit and ms per outer iteration."""
    fits = _fits(tracer)
    owner = _fit_of(tracer)
    selfs = tracer.self_times()
    iters = fit_iterations(tracer)
    self_ms = Counter()
    for idx, name in enumerate(tracer.names):
        if owner[idx] >= 0:
            self_ms[name] += selfs[idx] * 1e3
    n_fits = len(fits)
    out = {}
    for label in labels:
        mine = [f for f in fits if tracer.attrs[f]["label"] == label]
        ms = sum((tracer.ends[f] - tracer.starts[f]) * 1e3 for f in mine)
        its = sum(iters[f] for f in mine)
        out[f"tyler.mm_drive.ms_per_iter.{label}"] = ms / its if its else 0.0
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_ms"] = self_ms[name] / n_fits if n_fits else 0.0
    return out


def durations_ms(tracer: Tracer, name: str) -> list[float]:
    return [
        (tracer.ends[i] - tracer.starts[i]) * 1e3
        for i, n in enumerate(tracer.names)
        if n == name
    ]
