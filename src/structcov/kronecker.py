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
from .linalg import check_hermitian, hermitize, pd_geometric_mean
from .linear import _pd_inverse, inner_update
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
    """Positive definite factor pair (A, B) of a Kronecker-structured scatter."""

    factor_a: np.ndarray
    factor_b: np.ndarray

    def __post_init__(self):
        A = check_hermitian(self.factor_a, "factor_a")
        B = check_hermitian(self.factor_b, "factor_b")
        for name, F in (("factor_a", A), ("factor_b", B)):
            try:
                np.linalg.cholesky(F)
            except np.linalg.LinAlgError:
                raise InvalidInputError(f"{name} is not positive definite") from None
        object.__setattr__(self, "factor_a", A)
        object.__setattr__(self, "factor_b", B)

    @property
    def p(self) -> int:
        return self.factor_a.shape[0]

    @property
    def q(self) -> int:
        return self.factor_b.shape[0]

    def assemble(self) -> np.ndarray:
        return np.kron(self.factor_a, self.factor_b)

    def normalized(self) -> "KroneckerFactors":
        A = self.factor_a / np.trace(self.factor_a).real
        B = self.factor_b / np.trace(self.factor_b).real
        return KroneckerFactors(factor_a=A, factor_b=B)


@dataclass(frozen=True)
class ReshapedSamples:
    """Samples reshaped to q x p matrices with vec(M_i) = x_i column-major."""

    mats: np.ndarray  # (N, q, p)

    @classmethod
    def from_samples(cls, samples: SampleSet, p: int, q: int) -> "ReshapedSamples":
        if p * q != samples.k:
            raise InvalidInputError(
                f"factor dimensions ({p}, {q}) do not match samples K={samples.k}"
            )
        mats = samples.data.reshape(samples.n, p, q).transpose(0, 2, 1).copy()
        # reshape((q, p), order="F") per row, vectorized over the batch
        cls._verify_reshape(samples, mats, p, q)
        return cls(mats=mats)

    @staticmethod
    def _verify_reshape(samples: SampleSet, mats, p, q):
        rng = np.random.default_rng(13)
        i = int(rng.integers(samples.n))
        a = rng.uniform(0.5, 2.0, size=p)   # random diagonal PD factors
        b = rng.uniform(0.5, 2.0, size=q)
        x = samples.data[i]
        quad = np.real(x.conj() @ ((np.kron(np.diag(1.0 / a), np.diag(1.0 / b))) @ x))
        M = mats[i]
        tr = np.real(np.trace(np.diag(1.0 / a) @ M.conj().T @ np.diag(1.0 / b) @ M))
        if abs(quad - tr) > 1e-10 * max(1.0, abs(quad)):
            raise NumericalFailureError("reshape convention check failed")

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


def kron_objective(
    factors: KroneckerFactors, reshaped: ReshapedSamples, whitened=None
) -> float:
    """Scatter cost of A kron B expressed in the factors.

    Equals ``tyler_cost(kron(A, B), samples)`` for the samples the
    reshape was built from. ``whitened`` is the stack
    ``_whiten_b(reshaped, B)`` when the caller has formed it already.
    """
    A, B = factors.factor_a, factors.factor_b
    p, q = factors.p, factors.q
    n = reshaped.n
    T = _whiten_b(reshaped, B) if whitened is None else whitened
    weights = _batch_weights(T, np.linalg.inv(A))
    if np.any(weights <= 0.0):
        raise InvalidInputError("encountered a non-positive quadratic form")
    # a KroneckerFactors pair is PD by construction: both determinants are positive
    logdet_a, logdet_b = np.linalg.slogdet(A).logabsdet, np.linalg.slogdet(B).logabsdet
    return float((p * q / n) * np.sum(np.log(weights)) + q * logdet_a + p * logdet_b)


def _weighted_moment(stack, F, dim) -> np.ndarray:
    """The factor's MM moment (dim/N) sum_i S_i / Tr(F^{-1} S_i), Hermitian."""
    weights = _batch_weights(stack, _factor_inverse(F))
    if np.any(weights <= 0.0):
        raise NumericalFailureError("factor update hit a non-positive weight")
    return hermitize((dim / len(stack)) * np.einsum("n,nij->ij", 1.0 / weights, stack))


def _tyler_factor_loop(stack, dim, init):
    """Run F <- normalize((dim/N) sum_i S_i / Tr(F^{-1} S_i)) to a fixed point."""
    F = init / np.trace(init).real
    for _ in range(_GS_MAX_INNER):
        F_new = _weighted_moment(stack, F, dim)
        F_new = F_new / np.trace(F_new).real
        delta = _rel_change(F_new, F)
        F = F_new
        if delta <= _GS_INNER_TOL:
            return F
    raise NumericalFailureError(
        "factor fixed-point loop exceeded its iteration budget", max_inner=_GS_MAX_INNER
    )


def _factor_update(stack, F_t, structure=None, coeffs=None):
    """MM update of one factor at its whitened stack, normalized to unit trace.

    The geometric mean of F_t and the weighted moment, or with
    ``structure`` that structure's surrogate step warm-started at
    ``coeffs``. Returns ``(F, coeffs)``, ``coeffs`` None when unstructured.
    """
    M = _weighted_moment(stack, F_t, F_t.shape[0])
    if structure is None:
        try:
            F_new = pd_geometric_mean(F_t, M)
        except InvalidInputError as exc:
            raise NumericalFailureError(
                "weighted factor moment is numerically singular; data may be degenerate"
            ) from exc
        coeffs = None
    else:
        coeffs = inner_update(structure, coeffs, _pd_inverse(F_t), M)
        F_new = hermitize(structure.assemble(coeffs))
    tr = np.trace(F_new).real
    if coeffs is not None:
        coeffs = coeffs / tr
    return F_new / tr, coeffs


def _step_pair(A, B) -> KroneckerFactors:
    """The pair a step computed; NumericalFailureError unless both factors are PD."""
    try:
        return KroneckerFactors(factor_a=A, factor_b=B)
    except InvalidInputError as exc:
        raise NumericalFailureError(f"{exc} after a factor update; data may be degenerate") from None


def gauss_seidel_step(
    factors: KroneckerFactors,
    reshaped: ReshapedSamples,
    b_structure=None,
    b_coeffs=None,
    whitened=None,
):
    """One sweep of the alternating scheme: solve for A with B fixed, then for B.

    With ``b_structure`` B takes one structured surrogate step instead,
    as in :func:`block_mm_step`; returns ``(factors, b_coeffs)`` as it does.
    ``whitened`` is ``_whiten_b(reshaped, B)`` when the caller has it.
    """
    T = _whiten_b(reshaped, factors.factor_b) if whitened is None else whitened
    A = _tyler_factor_loop(T, factors.p, factors.factor_a)
    U = _whiten_a(reshaped, A)
    if b_structure is None:
        B = _tyler_factor_loop(U, factors.q, factors.factor_b)
    else:
        B, b_coeffs = _factor_update(U, factors.factor_b, b_structure, b_coeffs)
    return _step_pair(A, B), b_coeffs


def block_mm_step(
    factors: KroneckerFactors,
    reshaped: ReshapedSamples,
    b_structure=None,
    b_coeffs=None,
    whitened=None,
):
    """One block-MM sweep: geometric-mean update of A, then of B.

    With ``b_structure`` (a LinearStructure on the B factor) the B
    update minimizes the same surrogate over the structure instead of
    using the closed form; ``b_coeffs`` warm-starts that solve.
    ``whitened`` is ``_whiten_b(reshaped, B)`` when the caller has it.

    Returns ``(factors, b_coeffs)``; ``b_coeffs`` is None when
    unstructured.
    """
    A_t, B_t = factors.factor_a, factors.factor_b
    T = _whiten_b(reshaped, B_t) if whitened is None else whitened
    A_new, _ = _factor_update(T, A_t)
    B_new, new_coeffs = _factor_update(_whiten_a(reshaped, A_new), B_t, b_structure, b_coeffs)
    return _step_pair(A_new, B_new), new_coeffs


class _FactorIterate:
    """A Kronecker iterate: the factor pair, its B-whitened stack T and its cost.

    The cost is checked against the floor; the next sweep reuses T.
    """

    def __init__(self, factors: KroneckerFactors, reshaped: ReshapedSamples):
        self.factors = factors
        self.T = _whiten_b(reshaped, factors.factor_b)
        self.cost = kron_objective(factors, reshaped, self.T)
        # detects unbounded descent at every map, with or without a trace
        if self.cost < _OBJECTIVE_FLOOR:
            raise DegenerateDataError(
                "objective is unbounded below; samples are too degenerate "
                "for the Kronecker structure"
            )

    @property
    def R(self) -> np.ndarray:
        scatter = self.factors.assemble()
        return scatter / np.trace(scatter).real


class _FactorSpace:
    """The :func:`mm_drive` space of one fit; its params are the pair (A, B).

    A step returns unit-trace factors checked PD, which normalize passes
    through. An extrapolated trial is a tuple (A, B): normalize scales each
    factor to unit trace and checks the pair PD, the one check of a trial.
    """

    def __init__(self, reshaped: ReshapedSamples):
        self.reshaped = reshaped

    @staticmethod
    def normalize(params):
        if isinstance(params, KroneckerFactors):
            return (params.factor_a, params.factor_b), params
        traces = [np.trace(F).real for F in params]
        if not all(np.isfinite(tr) and tr > 0.0 for tr in traces):
            return None
        try:
            factors = KroneckerFactors(*(F / tr for F, tr in zip(params, traces)))
        except InvalidInputError:
            return None
        return (factors.factor_a, factors.factor_b), factors

    def __call__(self, factors: KroneckerFactors) -> _FactorIterate | None:
        """The iterate of a PD pair; None when its quadratic forms degenerate."""
        try:
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
        basis); only supported with its dimension equal to q.
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
    factors = init.normalized()

    if b_structure is not None and b_structure.dim != q:
        raise InvalidInputError(f"b_structure dimension {b_structure.dim} does not match q={q}")

    step = block_mm_step if method == "mm" else gauss_seidel_step
    b_coeffs = None
    owner = None  # the pair whose B the coefficients reproduce

    def inner(params, it):
        nonlocal b_coeffs, owner
        if b_structure is not None and it.factors is not owner:
            # the first sweep, or a trial was taken: its B is an affine combination
            # of structured factors, so the warm start is the B's own coefficients
            b_coeffs = b_structure.coeffs_of(it.factors.factor_b)
        owner, b_coeffs = step(it.factors, reshaped, b_structure, b_coeffs, whitened=it.T)
        return owner

    result = mm_drive(
        inner=inner,
        space=_FactorSpace(reshaped),
        init_params=factors,
        settings=settings,
    )
    # mm_drive maps once from every trial it takes, so a fit ends on a
    # step's pair and the coefficients are that step's
    factor_a, factor_b = result.params
    result.params = None
    result.details.update(
        factor_a=factor_a, factor_b=factor_b, method=method, b_coeffs=b_coeffs
    )
    return result
