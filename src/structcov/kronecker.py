"""Kronecker-structured scatter estimation: R = A kron B.

Samples of dimension p*q are reshaped column-major into q x p matrices
M_i, turning the scatter cost into

    L(A, B) = (pq/N) sum_i log Tr(A^{-1} T_i(B)) + q log det A + p log det B,

with T_i(B) the B-whitened per-sample moment. Two solvers are provided:
a Gauss-Seidel scheme running each factor's Tyler-type fixed point to
convergence in turn, and a single-loop block majorization-minimization
scheme whose factor update is a matrix geometric mean. Both factors are
kept at unit trace to resolve the scale ambiguity of the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DegenerateDataError, InvalidInputError, NumericalFailureError
from .linalg import (_chol_inverse, _chol_logdet, _geometric_mean, _spans, check_hermitian,
                     chol_pd, hermitize)
from .linear import inner_update
from .tyler import EstimatorResult, MMSettings, SampleSet, _rel_change, _unit_rows, mm_drive

_OBJECTIVE_FLOOR = -1e12
_GS_INNER_TOL = 1e-10
_GS_MAX_INNER = 5000


@dataclass(frozen=True)
class KroneckerFactors:
    """Positive definite factor pair (A, B) of a Kronecker-structured scatter.

    The pair a user passes in; it unpacks as ``A, B = factors``.
    """

    factor_a: np.ndarray
    factor_b: np.ndarray

    def __post_init__(self):
        for name in ("factor_a", "factor_b"):
            F = check_hermitian(getattr(self, name), name)
            if chol_pd(F, name) is None:
                raise InvalidInputError(f"{name} is not positive definite")
            object.__setattr__(self, name, F)

    @property
    def p(self) -> int:
        return self.factor_a.shape[0]

    @property
    def q(self) -> int:
        return self.factor_b.shape[0]

    def __iter__(self):
        return iter((self.factor_a, self.factor_b))


@dataclass(frozen=True)
class ReshapedSamples:
    """Samples reshaped to q x p matrices with vec(M_i) = x_i column-major; the Kronecker space.

    :meth:`from_samples` scales them as ``tyler._unit_rows`` does; ``log_scale`` is the shortfall.
    A fit's :func:`mm_drive` space, as ``tyler._Whitening`` is a full-K one: its parameters are
    [vec A; vec B] (:meth:`flatten`), :meth:`normalize` scales and a call at a pair checks it.
    """

    mats: np.ndarray  # (N, q, p)
    log_scale: float = field(default=0.0, init=False)

    @classmethod
    def from_samples(cls, samples: SampleSet, p: int, q: int) -> "ReshapedSamples":
        if p < 1 or q < 1 or p * q != samples.k:
            raise InvalidInputError(
                f"factor dimensions ({p}, {q}) must be positive and match samples K={samples.k}"
            )
        X, log_scale = _unit_rows(samples.data)
        mats = X.reshape(samples.n, p, q).transpose(0, 2, 1).copy()
        # reshape((q, p), order="F") per row, vectorized over the batch
        reshaped = cls(mats=mats)
        object.__setattr__(reshaped, "log_scale", log_scale)
        return reshaped

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @cached_property
    def b_spans(self) -> bool:
        """Whether the columns of all M_i span B's space, so that every weighted B moment is PD.

        The moment (q/N) sum_i M_i conj(A^{-1}) M_i^H / w_i has their span
        for every PD A and positive weights w_i, so this holds for the fit.
        """
        _n, q, _p = self.mats.shape
        return _spans(self.mats.transpose(1, 0, 2).reshape(q, -1))

    @staticmethod
    def flatten(pair) -> np.ndarray:
        """[vec A; vec B], in one number field."""
        return np.concatenate([F.ravel() for F in pair])

    def split(self, params):
        """The pair (A, B) of flat parameters, as views."""
        _n, q, p = self.mats.shape
        return params[:p * p].reshape(p, p), params[p * p:].reshape(q, q)

    def normalize(self, params):
        """(flat, pair), each factor at unit trace; None unless both traces are finite and > 0."""
        pair = self.split(params)
        traces = [np.trace(F).real for F in pair]
        if not all(np.isfinite(tr) and tr > 0.0 for tr in traces):
            return None
        flat = params / np.repeat(traces, [F.size for F in pair])
        return flat, self.split(flat)

    def __call__(self, factors) -> "_FactorIterate | None":
        """The iterate of a pair; None when a factor is not PD or its quadratic forms degenerate."""
        try:
            it = _FactorIterate(factors, self)
        except InvalidInputError:
            return None
        # detects unbounded descent at every map, with or without a trace
        if it.cost < _OBJECTIVE_FLOOR:
            raise DegenerateDataError("objective is unbounded below; samples are too "
                                      "degenerate for the Kronecker structure")
        return it


def _whiten_b(reshaped: ReshapedSamples, B_inv) -> np.ndarray:
    """T_i = M_i^T conj(B^{-1}) conj(M_i) = (M_i^H B^{-1} M_i)^T for every sample; p x p PSD."""
    mats = reshaped.mats
    return (mats.transpose(0, 2, 1) @ B_inv.conj()) @ mats.conj()


def _whiten_a(reshaped: ReshapedSamples, A_inv) -> np.ndarray:
    """U_i = M_i conj(A^{-1}) M_i^H for every sample; q x q Hermitian PSD."""
    mats = reshaped.mats
    return (mats @ A_inv.conj()) @ mats.conj().transpose(0, 2, 1)


def _factor_inverse(F) -> np.ndarray:
    """F^{-1} of a factor nothing has factored; NumericalFailureError when singular."""
    try:
        return np.linalg.inv(F)
    except np.linalg.LinAlgError:
        raise NumericalFailureError("factor became singular; data may be degenerate") from None


def _batch_weights(stack, F_inv) -> np.ndarray:
    """Tr(F^{-1} S_i) for a stack of Hermitian S_i."""
    return np.einsum("ij,nji->n", F_inv, stack).real


class _FactorIterate:
    """A Kronecker iterate: everything the cost and the next sweep read at a PD pair (A, B).

    It keeps the pair, the Cholesky factors (L_A, L_B) of its PD check,
    B^{-1}, the B-whitened stack T, the weights Tr(A^{-1} T_i) and the
    cost. InvalidInputError unless both factors are PD.
    """

    def __init__(self, factors, reshaped: ReshapedSamples):
        A, B = self.factors = tuple(factors)
        L_A = chol_pd(A, "factor_a")
        L_B = None if L_A is None else chol_pd(B, "factor_b")
        if L_B is None:
            raise InvalidInputError("factors are not positive definite")
        self.chols, self.reshaped = (L_A, L_B), reshaped
        self.b_inverse = _chol_inverse(L_B)
        self.T = _whiten_b(reshaped, self.b_inverse)
        self.weights = _batch_weights(self.T, _chol_inverse(L_A))
        if not 0.0 < self.weights.min() <= self.weights.max() < np.inf:
            raise InvalidInputError("encountered a non-positive or non-finite quadratic form")
        self.cost = kron_objective(self, reshaped)

    @property
    def R(self) -> np.ndarray:
        scatter = np.kron(*self.factors)
        return scatter / np.trace(scatter).real


def kron_objective(factors, reshaped: ReshapedSamples) -> float:
    """Scatter cost of A kron B expressed in the PD pair ``factors``, (A, B).

    ``factors`` is a :class:`KroneckerFactors` or a tuple (A, B), refused
    unless both are PD, or the iterate of these samples at a pair, whose
    weights and factors are reused. Equals ``tyler_cost(kron(A, B), samples)``
    for the samples the reshape was built from.
    """
    if not isinstance(factors, _FactorIterate):
        return _FactorIterate(factors, reshaped).cost
    if factors.reshaped is not reshaped:
        raise InvalidInputError("iterate belongs to a different sample set")
    (L_A, L_B), n = factors.chols, reshaped.n
    p, q = L_A.shape[0], L_B.shape[0]
    return float((p * q / n) * np.sum(np.log(factors.weights))
                 + q * _chol_logdet(L_A) + p * _chol_logdet(L_B) + reshaped.log_scale)


def _weighted_moment(stack, weights) -> np.ndarray:
    """The factor's MM moment (dim/N) sum_i S_i / w_i, Hermitian, from w_i = Tr(F^{-1} S_i)."""
    if np.any(weights <= 0.0):
        raise NumericalFailureError("factor update hit a non-positive weight")
    return hermitize((stack.shape[1] / len(stack)) * np.einsum("n,nij->ij", 1.0 / weights, stack))


def _tyler_factor_loop(stack, weights, F_t):
    """F <- normalize((dim/N) sum_i S_i / Tr(F^{-1} S_i)) to a fixed point from F_t, its weights."""
    F = F_t / np.trace(F_t).real
    for _ in range(_GS_MAX_INNER):
        F_new = _weighted_moment(stack, weights)
        F_new = F_new / np.trace(F_new).real
        delta = _rel_change(F_new, F)
        if not np.isfinite(delta):
            raise NumericalFailureError("factor update is not finite; data may be degenerate")
        F = F_new
        if delta <= _GS_INNER_TOL:
            return F
        weights = _batch_weights(stack, _factor_inverse(F))
    raise NumericalFailureError(
        "factor fixed-point loop exceeded its iteration budget", max_inner=_GS_MAX_INNER
    )


def _mm_factor_step(stack, weights, L_t):
    """Geometric mean of F_t = L_t L_t^H and its weighted moment, the MM update of one factor."""
    try:
        return _geometric_mean(L_t, _weighted_moment(stack, weights))
    except (InvalidInputError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(
            "weighted factor moment is numerically singular; data may be degenerate"
        ) from exc


def _sweep(update, starts, it, b_structure):
    """One sweep of either scheme from the iterate ``it``; returns (A, B) unscaled and unchecked.

    ``update(stack, weights, start)`` is the scheme's factor update, and
    ``starts`` holds what it starts from: the factors or their Cholesky
    factors. A updates from the iterate's T and weights; the new A whitens
    the samples for B's update, or for one structured step from B^{-1},
    warm-started from the coefficients of B.
    """
    A = update(it.T, it.weights, starts[0])
    U = _whiten_a(it.reshaped, _factor_inverse(A))
    weights = _batch_weights(U, it.b_inverse)
    if b_structure is None:
        return A, update(U, weights, starts[1])
    B_t = it.factors[1]
    M = _weighted_moment(U, weights)
    logdet = _chol_logdet(it.chols[1]) if it.reshaped.b_spans else None
    coeffs = inner_update(b_structure, b_structure.coeffs_of(B_t), it.b_inverse, M, logdet)
    return A, hermitize(b_structure.assemble(coeffs))


def gauss_seidel_step(it: _FactorIterate, b_structure=None):
    """One sweep of the alternating scheme from the iterate ``it``: solve for A, then for B.

    ``it`` is the fit's iterate at a pair, as its :class:`ReshapedSamples`
    builds it. With ``b_structure`` (a LinearStructure on the B factor) B
    takes one structured surrogate step instead. Returns the pair (A, B),
    neither scaled nor checked.
    """
    return _sweep(_tyler_factor_loop, it.factors, it, b_structure)


def block_mm_step(it: _FactorIterate, b_structure=None):
    """One block-MM sweep from the iterate ``it``: geometric-mean update of A, then of B.

    Takes and returns what :func:`gauss_seidel_step` does.
    """
    return _sweep(_mm_factor_step, it.chols, it, b_structure)


def estimate_kronecker(
    samples: SampleSet,
    p: int,
    q: int,
    settings: MMSettings | None = None,
    method: str = "mm",
    b_structure=None,
    init: KroneckerFactors | None = None,
) -> EstimatorResult:
    """Tyler-type scatter estimation over Kronecker products A kron B.

    Unlike the other estimators this supports N <= K: the factor
    updates pool information across the reshaped sample matrices.
    :func:`mm_drive` runs the sweeps with SQUAREM extrapolation of the
    flat pair [vec A; vec B], and stops on its relative change.

    Parameters
    ----------
    method : {"mm", "gs"}
        "mm" runs the single-loop block majorization-minimization
        scheme; "gs" the double-loop Gauss-Seidel scheme. Both descend
        the same objective and agree at convergence.
    b_structure : LinearStructure, optional
        Linear structure imposed on the B factor (e.g. a Toeplitz
        basis) of dimension q. The fit starts from the member nearest the
        initial B, ``assemble(coeffs_of(B))``, which must be PD.
    """
    if method not in ("mm", "gs"):
        raise InvalidInputError(f"unknown method {method!r}; expected 'mm' or 'gs'")
    reshaped = ReshapedSamples.from_samples(samples, p, q)

    if init is None:
        dtype = complex if samples.is_complex else float
        init = KroneckerFactors(np.eye(p, dtype=dtype) / p, np.eye(q, dtype=dtype) / q)
    if init.p != p or init.q != q:
        raise InvalidInputError("initial factors have the wrong dimensions")

    if b_structure is not None:
        if b_structure.dim != q:
            raise InvalidInputError(f"b_structure dimension {b_structure.dim} does not match q={q}")
        # a structured step starts at R(coeffs_of(B_t)) = B_t; mm_drive refuses a B that is not PD
        B = b_structure.assemble(b_structure.coeffs_of(init.factor_b))
        init = (init.factor_a, hermitize(B))

    step = block_mm_step if method == "mm" else gauss_seidel_step
    result = mm_drive(
        inner=lambda params, it: reshaped.flatten(step(it, b_structure)),
        space=reshaped,
        init_params=reshaped.flatten(init),
        settings=settings,
    )
    factor_a, factor_b = reshaped.split(result.params)
    result.params = None
    b_coeffs = None if b_structure is None else b_structure.coeffs_of(factor_b)
    result.details.update(factor_a=factor_a, factor_b=factor_b, method=method, b_coeffs=b_coeffs)
    return result
