"""Fit cases of the in-process workloads, their inputs and their output checks.

Every input is generated here from the benchmark seed; the library only
ever receives the generated samples. A case is one estimator call on one
sample set, and each case has several independent sample sets per seed
(``DATASETS``) so that a run averages over data rather than one draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import structcov as sc

# sample sets per case: enough that nmse_mean and the iteration counts of a
# run vary little from seed to seed (quartile spread under 0.08 over 10 seeds)
DATASETS = {"fit-closedform": 20, "fit-newton": 20}
# Warm-up fits use inputs of this seed, whatever the benchmark seed: their
# iteration counts vary with the data (Toeplitz 350 to 720), and set-up time
# should not vary with the seed.
WARMUP_SEED = 0

TRACE_TOL = 1e-10      # |Tr(R) - 1|
HERMITIAN_RTOL = 1e-12
DESCENT_SLACK = 1e-10  # same slack as acceptance criterion 1
STRUCTURE_RTOL = 1e-9  # relative residual of each structure check

DOA_ANGLES = [-10.0, 10.0, 15.0, 35.0, 40.0]


@dataclass
class Case:
    """One estimator configuration and the sample sets it is fitted to."""

    label: str
    fit: Callable          # fit(samples) -> EstimatorResult
    inputs: list           # [(SampleSet, truth)], one per dataset
    check_structure: Callable  # check_structure(result) -> str | None


def _ss(seed, *path):
    return np.random.SeedSequence([seed, *path])


def _draw(seed, tag, truth_fn, n, datasets):
    """``datasets`` sample sets of size n; truth_fn(rng) may use its own stream."""
    out = []
    for d in range(datasets):
        truth = truth_fn(np.random.default_rng(_ss(seed, tag, d, 0)))
        out.append((sc.sample_elliptical(truth, n, _ss(seed, tag, d, 1)), truth))
    return out


# ---------------------------------------------------------------------------
# structure checks: each returns None when the structure holds
# ---------------------------------------------------------------------------

def _rel(residual, R):
    return float(np.linalg.norm(residual) / np.linalg.norm(R))


def no_structure(result):
    return None


def toeplitz_structure(result):
    spread = sc.diagonal_spread(result.scatter) / np.max(np.abs(result.scatter))
    return None if spread <= STRUCTURE_RTOL else f"diagonal spread {spread:.3g}"


def _banded(bandwidth):
    def check(result):
        err = toeplitz_structure(result)
        if err:
            return err
        R = result.scatter
        off = np.abs(np.subtract.outer(np.arange(R.shape[0]), np.arange(R.shape[0])))
        outside = np.max(np.abs(R[off > bandwidth])) / np.max(np.abs(R))
        return None if outside <= STRUCTURE_RTOL else f"entry past bandwidth {outside:.3g}"

    return check


def _spiked(n_spikes):
    def check(result):
        lam = np.linalg.eigvalsh(result.scatter)[::-1]
        trailing = lam[n_spikes:]
        spread = (trailing.max() - trailing.min()) / lam[0]
        return None if spread <= STRUCTURE_RTOL else f"trailing eigenvalue spread {spread:.3g}"

    return check


def _linear(struct):
    vecs = struct.basis.reshape(struct.size, -1).T

    def check(result):
        R = result.scatter
        coeffs, *_ = np.linalg.lstsq(vecs, R.reshape(-1), rcond=None)
        err = _rel(vecs @ coeffs - R.reshape(-1), R)
        return None if err <= STRUCTURE_RTOL else f"residual outside the basis span {err:.3g}"

    return check


def _rank_one(dictionary):
    def check(result):
        p = result.params
        if np.any(p < 0.0):
            return "negative power"
        R = dictionary.assemble(p, result.details["epsilon"])
        err = _rel(R / np.trace(R).real - result.scatter, result.scatter)
        return None if err <= STRUCTURE_RTOL else f"dictionary reassembly residual {err:.3g}"

    return check


def _kronecker(result):
    R = np.kron(result.details["factor_a"], result.details["factor_b"])
    err = _rel(R / np.trace(R).real - result.scatter, result.scatter)
    return None if err <= STRUCTURE_RTOL else f"factor reassembly residual {err:.3g}"


def check_scatter(R) -> str | None:
    """Finite, Hermitian and positive definite, or what is wrong."""
    if not np.all(np.isfinite(R)):
        return "non-finite scatter"
    if np.linalg.norm(R - R.conj().T) > HERMITIAN_RTOL * np.linalg.norm(R):
        return "scatter is not Hermitian"
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return "scatter has no Cholesky factor"
    return None


def check_output(result, check_structure) -> str | None:
    """First violated output property of one fit, or None when all hold."""
    problem = check_scatter(result.scatter)
    if problem:
        return problem
    tr = np.trace(result.scatter)
    if abs(tr - 1.0) > TRACE_TOL:
        return f"trace {tr.real:.15g} is not 1"
    obj = np.asarray(result.objective_trace)
    if obj.size > 1 and np.any(np.diff(obj) > DESCENT_SLACK):
        return f"objective rose by {np.max(np.diff(obj)):.3g}"
    return check_structure(result)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _ar15(rng):
    return sc.ar_cov(15, 0.8)


def fit_closedform_cases(seed: int, datasets: int) -> list[Case]:
    """Closed-form and eigen inner steps under the library defaults."""
    ar = _draw(seed, 1, _ar15, 100, datasets)
    spiked = _draw(
        seed, 2, lambda rng: sc.spiked_cov(40, 5, 0.01, (0.01, 1.0), rng=rng), 45, datasets
    )
    doa = _draw(seed, 3, lambda rng: sc.doa_cov(15, DOA_ANGLES, [1.0] * 5, 0.1), 20, datasets)
    kron = _draw(
        seed, 4, lambda rng: np.kron(sc.ar_cov(3, 0.5), sc.ar_cov(4, 0.8)), 10, datasets
    )
    dictionary = sc.RankOneDictionary.augment(sc.ula_dictionary(15, 5.0))
    defaults = sc.MMSettings()
    return [
        Case("tyler", lambda X: sc.tyler_unconstrained(X, defaults), ar, no_structure),
        Case("toeplitz", lambda X: sc.estimate_toeplitz(X, defaults), ar, toeplitz_structure),
        Case(
            "banded",
            lambda X: sc.estimate_banded_toeplitz(X, 3, defaults),
            ar,
            _banded(3),
        ),
        Case("spiked", lambda X: sc.estimate_spiked(X, 5, defaults), spiked, _spiked(5)),
        Case(
            "rankone",
            lambda X: sc.estimate_rank_one(dictionary, X, defaults),
            doa,
            _rank_one(dictionary),
        ),
        Case(
            "kron_mm",
            lambda X: sc.estimate_kronecker(X, 3, 4, defaults, method="mm"),
            kron,
            _kronecker,
        ),
        Case(
            "kron_gs",
            lambda X: sc.estimate_kronecker(X, 3, 4, defaults, method="gs"),
            kron,
            _kronecker,
        ),
    ]


def fit_newton_cases(seed: int, datasets: int) -> list[Case]:
    """Fits whose time goes into the damped-Newton inner solve of ``linear``."""
    ar15 = _draw(seed, 11, _ar15, 100, datasets)
    ar10 = _draw(seed, 12, lambda rng: sc.ar_cov(10, 0.8), 100, datasets)
    kron = _draw(seed, 13, lambda rng: np.kron(np.eye(10), sc.ar_cov(8, 0.8)), 4, datasets)
    toeplitz15 = sc.toeplitz_basis(15)
    full10 = sc.full_symmetric_basis(10)
    toeplitz8 = sc.toeplitz_basis(8)
    loose = sc.MMSettings(tol=1e-6)
    criterion8 = sc.MMSettings(tol=1e-7, max_iter=800, record_trace=False)
    return [
        Case(
            "linear_toeplitz",
            lambda X: sc.estimate_linear(toeplitz15, X),
            ar15,
            _linear(toeplitz15),
        ),
        Case(
            "linear_full",
            lambda X: sc.estimate_linear(full10, X, loose),
            ar10,
            _linear(full10),
        ),
        Case(
            "kron_mm_toepb",
            lambda X: sc.estimate_kronecker(
                X, 10, 8, criterion8, method="mm", b_structure=toeplitz8
            ),
            kron,
            _kronecker,
        ),
    ]


CASE_BUILDERS = {
    "fit-closedform": fit_closedform_cases,
    "fit-newton": fit_newton_cases,
}
