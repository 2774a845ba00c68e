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

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateDataError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import _geometric_mean, check_hermitian, chol_pd, hermitize
from .linear import inner_update
from .tyler import (
    EstimatorResult,
    MMSettings,
    SampleSet,
    _rel_change,
    mm_drive,
)

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
    """Samples reshaped to q x p matrices with vec(M_i) = x_i column-major."""

    mats: np.ndarray  # (N, q, p)

    @classmethod
    def from_samples(cls, samples: SampleSet, p: int, q: int) -> "ReshapedSamples":
        if p < 1 or q < 1 or p * q != samples.k:
            raise InvalidInputError(
                f"factor dimensions ({p}, {q}) must be positive and match samples K={samples.k}"
            )
        mats = samples.data.reshape(samples.n, p, q).transpose(0, 2, 1).copy()
        # reshape((q, p), order="F") per row, vectorized over the batch
        return cls(mats=mats)

    @property
    def n(self) -> int:
        return self.mats.shape[0]


def _whiten_b(reshaped: ReshapedSamples, B) -> np.ndarray:
    """T_i = (M_i^H B^{-1} M_i)^T for every sample; p x p Hermitian PSD."""
    Z = np.linalg.solve(B, reshaped.mats)
    T = np.einsum("nji,njk->nik", reshaped.mats.conj(), Z)
    return T.conj()  # transpose of a Hermitian batch equals its conjugate


def _factor_inverse(F) -> np.ndarray:
    """F^{-1} of a factor a solver computed; NumericalFailureError when singular."""
    try:
        return np.linalg.inv(F)
    except np.linalg.LinAlgError:
        raise NumericalFailureError("factor became singular; data may be degenerate") from None


def _whiten_a(reshaped: ReshapedSamples, A) -> np.ndarray:
    """U_i = M_i conj(A^{-1}) M_i^H for every sample; q x q Hermitian PSD."""
    mats = reshaped.mats
    return (mats @ _factor_inverse(A).conj()) @ mats.conj().transpose(0, 2, 1)


def _batch_weights(stack, F_inv) -> np.ndarray:
    """Tr(F^{-1} S_i) for a stack of Hermitian S_i."""
    return np.einsum("ij,nji->n", F_inv, stack).real


def kron_objective(factors, reshaped: ReshapedSamples, whitened=None) -> float:
    """Scatter cost of A kron B expressed in the PD pair ``factors``, (A, B).

    ``factors`` is a :class:`KroneckerFactors` or a tuple (A, B). Equals
    ``tyler_cost(kron(A, B), samples)`` for the samples the reshape was
    built from. ``whitened`` is the stack ``_whiten_b(reshaped, B)`` when
    the caller has formed it already.
    """
    A, B = factors
    p, q = A.shape[0], B.shape[0]
    n = reshaped.n
    T = _whiten_b(reshaped, B) if whitened is None else whitened
    weights = _batch_weights(T, np.linalg.inv(A))
    if np.any(weights <= 0.0):
        raise InvalidInputError("encountered a non-positive quadratic form")
    # the pair is PD, checked by KroneckerFactors or by the fit's space:
    # both determinants are positive
    logdet_a, logdet_b = np.linalg.slogdet(A).logabsdet, np.linalg.slogdet(B).logabsdet
    return float((p * q / n) * np.sum(np.log(weights)) + q * logdet_a + p * logdet_b)


def _weighted_moment(stack, F_inv, dim) -> np.ndarray:
    """The factor's MM moment (dim/N) sum_i S_i / Tr(F^{-1} S_i), Hermitian, from F^{-1}."""
    weights = _batch_weights(stack, F_inv)
    if np.any(weights <= 0.0):
        raise NumericalFailureError("factor update hit a non-positive weight")
    return hermitize((dim / len(stack)) * np.einsum("n,nij->ij", 1.0 / weights, stack))


def _tyler_factor_loop(stack, F_t):
    """Run F <- normalize((dim/N) sum_i S_i / Tr(F^{-1} S_i)) to a fixed point from F_t."""
    F = F_t / np.trace(F_t).real
    for _ in range(_GS_MAX_INNER):
        F_new = _weighted_moment(stack, _factor_inverse(F), F_t.shape[0])
        F_new = F_new / np.trace(F_new).real
        delta = _rel_change(F_new, F)
        F = F_new
        if delta <= _GS_INNER_TOL:
            return F
    raise NumericalFailureError(
        "factor fixed-point loop exceeded its iteration budget", max_inner=_GS_MAX_INNER
    )


def _mm_factor_step(stack, F_t):
    """Geometric mean of F_t and its weighted moment, the MM update of one factor."""
    M = _weighted_moment(stack, _factor_inverse(F_t), F_t.shape[0])
    try:
        return _geometric_mean(F_t, M)
    except InvalidInputError as exc:
        raise NumericalFailureError(
            "weighted factor moment is numerically singular; data may be degenerate"
        ) from exc


def _structured_step(stack, F_t, structure):
    """``structure``'s step for F_t, a member of it: one F_t^{-1} serves moment and step."""
    F_inv = _factor_inverse(F_t)
    M = _weighted_moment(stack, F_inv, F_t.shape[0])
    coeffs = inner_update(structure, structure.coeffs_of(F_t), F_inv, M)
    return hermitize(structure.assemble(coeffs))


def _sweep(update, factors, reshaped, b_structure, whitened):
    """One sweep of either scheme; ``update(stack, F_t)`` is its factor update.

    Whitens by B, updates A, whitens by A, then updates B, or with
    ``b_structure`` takes B's structured step. Returns the pair (A, B)
    unscaled and unchecked: the fit's space scales it and checks it PD.
    """
    A_t, B_t = factors
    T = _whiten_b(reshaped, B_t) if whitened is None else whitened
    A = update(T, A_t)
    U = _whiten_a(reshaped, A)
    if b_structure is None:
        return A, update(U, B_t)
    return A, _structured_step(U, B_t, b_structure)


def gauss_seidel_step(factors, reshaped: ReshapedSamples, b_structure=None, whitened=None):
    """One sweep of the alternating scheme: solve for A with B fixed, then for B.

    With ``b_structure`` B takes one structured surrogate step instead,
    as in :func:`block_mm_step`; returns the pair (A, B) as it does.
    ``whitened`` is ``_whiten_b(reshaped, B)`` when the caller has it.
    """
    return _sweep(_tyler_factor_loop, factors, reshaped, b_structure, whitened)


def block_mm_step(factors, reshaped: ReshapedSamples, b_structure=None, whitened=None):
    """One block-MM sweep: geometric-mean update of A, then of B.

    With ``b_structure`` (a LinearStructure on the B factor) the B
    update minimizes the same surrogate over the structure instead of
    using the closed form, warm-started from the coefficients of B.
    ``whitened`` is ``_whiten_b(reshaped, B)`` when the caller has it.

    Returns the pair (A, B), neither scaled nor checked.
    """
    return _sweep(_mm_factor_step, factors, reshaped, b_structure, whitened)


class _FactorIterate:
    """A Kronecker iterate: the factor pair, its B-whitened stack T and its cost.

    The cost is checked against the floor; the next sweep reuses T.
    """

    def __init__(self, factors, reshaped: ReshapedSamples):
        self.factors = factors
        self.T = _whiten_b(reshaped, factors[1])
        self.cost = kron_objective(factors, reshaped, self.T)
        # detects unbounded descent at every map, with or without a trace
        if self.cost < _OBJECTIVE_FLOOR:
            raise DegenerateDataError(
                "objective is unbounded below; samples are too degenerate "
                "for the Kronecker structure"
            )

    @property
    def R(self) -> np.ndarray:
        scatter = np.kron(*self.factors)
        return scatter / np.trace(scatter).real


class _FactorSpace:
    """The :func:`mm_drive` space of one fit; its params are the pair (A, B).

    The contract of the full-K space: :meth:`normalize` scales, and
    calling the space checks. A step and an extrapolated trial are both
    plain pairs, so each is scaled and checked in the same two places.
    """

    def __init__(self, reshaped: ReshapedSamples):
        self.reshaped = reshaped

    @staticmethod
    def normalize(params):
        """(pair, pair), each factor at unit trace; None unless both traces are finite and > 0."""
        traces = [np.trace(F).real for F in params]
        if not all(np.isfinite(tr) and tr > 0.0 for tr in traces):
            return None
        pair = tuple(F / tr for F, tr in zip(params, traces))
        return pair, pair

    def __call__(self, factors) -> _FactorIterate | None:
        """The iterate of a pair; None when a factor is not PD or its quadratic forms degenerate.

        One Cholesky factor of each factor is the PD check.
        """
        try:
            if any(chol_pd(F, "factor") is None for F in factors):
                return None
            return _FactorIterate(factors, self.reshaped)
        except InvalidInputError:
            return None


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
    pair (A, B), block by block.

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
        init = KroneckerFactors(
            factor_a=np.eye(p, dtype=dtype) / p,
            factor_b=np.eye(q, dtype=dtype) / q,
        )
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
        inner=lambda params, it: step(params, reshaped, b_structure, whitened=it.T),
        space=_FactorSpace(reshaped),
        init_params=init,
        settings=settings,
    )
    factor_a, factor_b = result.params
    result.params = None
    b_coeffs = None if b_structure is None else b_structure.coeffs_of(factor_b)
    result.details.update(factor_a=factor_a, factor_b=factor_b, method=method, b_coeffs=b_coeffs)
    return result
