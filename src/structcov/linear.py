"""Scatter estimation under a general linear structure R = sum_j a_j B_j >= 0.

The tangent of each log q_i majorizes Tyler's cost at the iterate R_t by

    g(a) = log det R(a) + Tr(M_t R(a)^{-1})

(plus a constant), and the tangent of log det R majorizes g in turn by the
convex surrogate f(a) = Tr(R_t^{-1} R(a)) + Tr(M_t R(a)^{-1}), the paper's
inner problem. That second bound is needed only to solve the inner problem
exactly. Each MM map here takes one Newton step on g itself, with an
Armijo line search that keeps R(a) positive definite: the MM gradient
algorithm of K. Lange ("A gradient algorithm locally equivalent to the EM
algorithm", JRSS-B 57(2), 1995), with the fixed points of the exact
minimization. The step starts at the iterate, R(a_t) = R_t, and is built
from R_t^{-1} and log det R_t, which the caller has from its factor; a
Kronecker fit therefore starts a structured B inside the structure. g is
not convex: where the Hessian of g has no Cholesky factor the step takes
that of f, whose direction also descends g, since both gradients agree
at a_t.

g is bounded below only when M_t is positive definite. A fit decides once,
from its samples (:func:`structcov.linalg._spans`), whether every M_t is;
when its samples do not span the space the step models f instead, with a
tiny log-det barrier that keeps its minimizer inside the cone.

A fit may bound the coefficients below (:class:`PowerBound`, passed to
each step): the basis matrices are then positive semidefinite and the
coefficients are powers, p >= floor. The step is then a projected Newton
step (D. P. Bertsekas, "Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20(2), 1982),
and the minimizer of the paper's separable bound on f is its fallback:
that bound majorizes f, which majorizes g, so the fallback is a monotone
step too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .exceptions import InvalidInputError, NumericalFailureError
from .linalg import (_chol_inverse, _chol_logdet, as_field_array, check_hermitian, chol_pd,
                     hermitize)
from .tyler import (EstimatorResult, Iterate, MMSettings, SampleSet, _in_field, _Whitening,
                    mm_drive)

_NEWTON_GRAD_TOL = 1e-8
_MAX_HALVINGS = 60
_BOUNDED_HALVINGS = 12  # a bounded step past these takes its separable point
_HELD = 1e-12  # a power within this fraction of the largest of its floor may be held there


@dataclass
class PowerBound:
    """Coefficients that are powers p >= ``floor`` of positive semidefinite basis matrices.

    Basis matrix l is B_l = C_l C_l^H, with C_l the r columns l*r .. l*r + r - 1
    of the K x (L r) ``factors``. The step's pieces then come from the two
    (L r) x (L r) matrices Y = C^H W C and X = C^H W M_t W C, W = R_t^{-1}:
    each is summed over its r x r blocks as E^T A E, with ``blocks`` the
    (L r) x L indicator E of the columns of each C_l (None when r = 1, where
    the block sum is the real part). The tangent bound f on g has the
    paper's separable bound, whose minimizer max(separable(w, d), floor)
    majorizes g through f and so is a monotone step: w_l = Re Tr(W B_l) and
    d_l = p_l^2 Re Tr(W M_t W B_l). :func:`inner_update` forms that point on
    every map and takes it when its line search fails; ``fallbacks``
    counts those maps. A fit makes its own bound, so the count is its own.
    """

    floor: np.ndarray
    separable: Callable
    factors: np.ndarray
    blocks: np.ndarray | None
    fallbacks: int = 0


@dataclass(frozen=True)
class LinearStructure:
    """A linear family of Hermitian matrices spanned by a fixed basis.

    Parameters
    ----------
    basis : ndarray, shape (L, K, K)
        Hermitian basis matrices. Must be linearly independent.
    init_coeffs : ndarray, shape (L,), optional
        Coefficients of a positive definite member, used as the default
        starting point. When omitted, the projection of the identity
        onto the span is used (and must be positive definite).
    """

    basis: np.ndarray
    init_coeffs: np.ndarray = None
    # Bt[l] = B_l^T.ravel(): Tr(A B_l) = Bt[l] . vec(A), so every contraction
    # against the basis is one GEMV or GEMM
    Bt: np.ndarray = field(init=False, repr=False, compare=False)
    # lower Cholesky factor of gram[l, m] = Re Tr(B_l B_m^H), the normal matrix of
    # the projection onto the span
    gram_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = as_field_array(self.basis, "basis")
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise InvalidInputError("basis must be an (L, K, K) array")
        for j in range(basis.shape[0]):
            check_hermitian(basis[j], f"basis matrix {j}")
        vecs = basis.reshape(basis.shape[0], -1)
        gram = (vecs @ vecs.conj().T).real
        sv = np.linalg.svd(gram, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise InvalidInputError("basis matrices are not linearly independent")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "Bt", basis.transpose(0, 2, 1).reshape(basis.shape[0], -1).copy())
        object.__setattr__(self, "gram_chol", chol_pd(gram))

        if self.init_coeffs is None:
            coeffs = self.coeffs_of(np.eye(basis.shape[1], dtype=basis.dtype))
        else:
            coeffs = self._checked_coeffs(self.init_coeffs)
        object.__setattr__(self, "init_coeffs", coeffs)
        if chol_pd(hermitize(self.assemble(coeffs))) is None:
            raise InvalidInputError("initial coefficients do not give a positive definite matrix")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    def assemble(self, coeffs) -> np.ndarray:
        """R(a) = sum_l a_l B_l."""
        k = self.dim
        return (np.asarray(coeffs, dtype=float) @ self.Bt).reshape(k, k).T

    def coeffs_of(self, R) -> np.ndarray:
        """Coefficients of the member nearest R in Frobenius norm; R's own when R is one."""
        vecs = self.basis.reshape(self.size, -1)
        return lapack.dpotrs(self.gram_chol, (vecs.conj() @ R.reshape(-1)).real, lower=1)[0]

    def _checked_coeffs(self, coeffs) -> np.ndarray:
        """A caller's coefficient vector as floats; InvalidInputError unless finite of length L."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise InvalidInputError(f"coefficient vector must have shape ({self.size},)")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("coefficient vector contains non-finite entries")
        return coeffs


# ---------------------------------------------------------------------------
# structure presets
# ---------------------------------------------------------------------------

def _indicator_basis(labels) -> np.ndarray:
    """One indicator per label l = 0, 1, ... of the K x K index pairs; -1 labels zero entries."""
    return (labels == np.arange(labels.max() + 1)[:, None, None]).astype(float)


def _pair_basis(k: int) -> np.ndarray:
    """Indicators of each diagonal entry, then of each pair (i, j), (j, i), i < j, row by row."""
    labels = np.diag(np.arange(k) + 1) - 1
    i, j = np.triu_indices(k, 1)
    labels[i, j] = labels[j, i] = k + np.arange(i.size)
    return _indicator_basis(labels)


def toeplitz_basis(k: int) -> LinearStructure:
    """Symmetric Toeplitz family: one indicator basis matrix per diagonal offset."""
    return banded_toeplitz_basis(k, k - 1)


def banded_toeplitz_basis(k: int, bandwidth: int) -> LinearStructure:
    """Symmetric Toeplitz matrices with correlations zero beyond ``bandwidth``."""
    if not 0 <= bandwidth <= k - 1:
        raise InvalidInputError("bandwidth must lie in [0, K-1]")
    offsets = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    return LinearStructure(basis=_indicator_basis(np.where(offsets <= bandwidth, offsets, -1)))


def circulant_basis(k: int) -> LinearStructure:
    """Symmetric circulant family (offsets identified modulo K)."""
    offsets = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    return LinearStructure(basis=_indicator_basis(np.minimum(offsets, k - offsets)))


def diagonal_basis(k: int) -> LinearStructure:
    """Diagonal matrices."""
    return LinearStructure(basis=_indicator_basis(np.diag(np.arange(k) + 1) - 1))


def full_symmetric_basis(k: int) -> LinearStructure:
    """All real symmetric matrices (a vacuous structural constraint)."""
    return LinearStructure(basis=_pair_basis(k))


def hermitian_basis(k: int) -> LinearStructure:
    """All complex Hermitian matrices: the full symmetric basis, each pair then its i-partner."""
    real = _pair_basis(k)
    upper = np.triu(real[k:], 1)
    pairs = np.stack([real[k:], 1j * (upper - upper.transpose(0, 2, 1))], axis=1)
    return LinearStructure(basis=np.concatenate([real[:k], pairs.reshape(-1, k, k)]))


_PRESETS = {"toeplitz": toeplitz_basis, "diagonal": diagonal_basis,
            "full": full_symmetric_basis, "circulant": circulant_basis}


def structure_from_name(name: str, k: int) -> LinearStructure:
    """Resolve a preset by CLI name: toeplitz, banded:<k>, diagonal, full, circulant."""
    if name in _PRESETS:
        return _PRESETS[name](k)
    if name.startswith("banded:"):
        try:
            bandwidth = int(name.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad banded structure spec {name!r}") from None
        return banded_toeplitz_basis(k, bandwidth)
    raise InvalidInputError(f"unknown structure preset {name!r}")


# ---------------------------------------------------------------------------
# inner step
# ---------------------------------------------------------------------------

def _basis_traces(struct: LinearStructure, mats) -> np.ndarray:
    """Re Tr(A B_l) for every basis matrix B_l.

    ``mats`` is one (K, K) matrix A, giving shape (L,), or a stack
    (n, K, K), giving (n, L); either way it is one product with ``Bt``.
    """
    flat = mats.reshape(*mats.shape[:-2], -1)
    if np.iscomplexobj(struct.Bt):
        return (flat @ struct.Bt.T).real
    return flat.real @ struct.Bt.T


def _surrogate_value(struct: LinearStructure, coeffs, Wt, M, mu: float):
    """The step's model at ``coeffs`` and W = R(a)^{-1}, or None when R(a) is not PD.

    With Wt, the inverse of the outer iterate R_t, the model is the convex
    surrogate f(a) = Tr(Wt R(a)) + Tr(M W), less mu*logdet R(a) when the
    barrier weight ``mu`` is positive; with Wt None it is
    g(a) = log det R(a) + Tr(M W). Only the lower triangle of R(a) is
    factored, and its log-determinant comes from that factor.
    """
    R = struct.assemble(coeffs)
    L = chol_pd(R)
    if L is None:
        return None
    W = _chol_inverse(L)
    value = float((M * W.conj()).sum().real)
    if Wt is None:
        value += _chol_logdet(L)
    else:
        value += float((Wt * R.conj()).sum().real)
        if mu > 0.0:
            value -= mu * _chol_logdet(L)
    return value, W


def _surrogate_gradient(struct: LinearStructure, Wt, W, WMW, mu: float) -> np.ndarray:
    """g_l = Re Tr(Wt B_l) - Re Tr(W M W B_l) - mu Re Tr(W B_l)."""
    grad = _basis_traces(struct, Wt) - _basis_traces(struct, WMW)
    if mu > 0.0:
        grad -= mu * _basis_traces(struct, W)
    return grad


def _surrogate_hessian(struct: LinearStructure, W, WMW, mu: float) -> np.ndarray:
    """H_lm = Re Tr((2 W M W + mu W) B_l W B_m), the Hessian of f less mu*logdet R(a).

    At mu = -1 it is the Hessian of g, whose log det R(a) is that term with
    weight -1. Row l is the traces of Q_l = (2 W M W + mu W) B_l W against
    the basis, so H is one batched matmul for Q and one (L, K^2) x (K^2, L)
    GEMM.
    """
    A = 2.0 * WMW if mu == 0.0 else 2.0 * WMW + mu * W
    return _basis_traces(struct, A @ struct.basis @ W)


def _surrogate_pieces(struct: LinearStructure, Wt, M, mu: float, logdet=None,
                      bound: PowerBound | None = None):
    """(value, w, u, hessian) of the step's model at R(a) = R_t, from Wt alone.

    Given ``logdet`` = log det R_t the model is g, whose value there is
    logdet + Re Tr(M Wt); otherwise it is f less mu*logdet R(a), whose value
    is K + Re Tr(M Wt) + mu*logdet Wt. w_l = Re Tr(Wt B_l) and
    u_l = Re Tr(Wt M Wt B_l), so the gradient of g, and of f, is w - u.
    ``hessian(c)`` is H_lm = Re Tr((2 Wt M Wt + c Wt) B_l Wt B_m): the
    Hessian of f less c*logdet R(a), and at c = -1 that of g.

    Each Hessian costs O(L K^3 + L^2 K^2): a batched matmul over the L basis
    matrices and a GEMM against the flattened basis. With a
    :class:`PowerBound` the pieces cost four GEMMs of at most K x K x (L r)
    and (L r) x K x (L r): Y = C^H Wt C and X = C^H Wt M Wt C hold w and u in
    their diagonal blocks' traces, and H_lm = Re sum (2 X_ij + c Y_ij)
    conj(Y_ij) over block (l, m), so each Hessian is one elementwise product
    and one block sum. That path never reads ``struct``: a rank-one map
    (:func:`structcov.rankone._capped_solve`), whose atoms' outer products
    need not be independent, passes None.
    """
    value = float((M * Wt.conj()).sum().real)
    if logdet is not None:
        value += logdet
    else:
        value += Wt.shape[0]
        if mu > 0.0:
            # the one log-determinant not taken from a Cholesky factor: none is at hand
            value += mu * np.linalg.slogdet(Wt).logabsdet
    if bound is None:
        WMW = Wt @ M @ Wt
        return (value, _basis_traces(struct, Wt), _basis_traces(struct, WMW),
                lambda c: _surrogate_hessian(struct, Wt, WMW, c))
    C, E = bound.factors, bound.blocks
    WC = Wt @ C
    Y = C.conj().T @ WC
    X = WC.conj().T @ (M @ WC)

    def block_sums(A):
        return A.real if E is None else E.T @ A @ E

    def hessian(c):
        return block_sums((2.0 * X if c == 0.0 else 2.0 * X + c * Y) * Y.conj())

    w, u = Y.diagonal().real, X.diagonal().real
    if E is not None:
        w, u = w @ E, u @ E
    return value, w, u, hessian


def surrogate_gradient(struct: LinearStructure, coeffs, R_t, M) -> np.ndarray:
    """Gradient of f(a) = Tr(R_t^{-1} R(a)) + Tr(M R(a)^{-1}) at ``coeffs``.

    InvalidInputError unless R_t and R(coeffs) are PD and M is Hermitian, all K x K,
    and ``coeffs`` is a finite vector of length L.
    """
    coeffs = struct._checked_coeffs(coeffs)
    R_t, M, k = check_hermitian(R_t, "R_t"), check_hermitian(M, "M"), struct.dim
    L = chol_pd(R_t, "R_t") if R_t.shape == M.shape == (k, k) else None
    if L is None:
        raise InvalidInputError(f"R_t must be a positive definite {k} x {k} matrix and M {k} x {k}")
    Wt = _chol_inverse(L)
    point = _surrogate_value(struct, coeffs, Wt, M, 0.0)
    if point is None:
        raise InvalidInputError("coefficients are infeasible")
    W = point[1]
    return _surrogate_gradient(struct, Wt, W, W @ M @ W, 0.0)


def inner_update(struct: LinearStructure, coeffs, Wt, M_t, logdet=None,
                 bound: PowerBound | None = None) -> np.ndarray:
    """One Newton step on an MM model of the cost from the outer iterate, with a line search.

    ``coeffs`` are the coefficients of the iterate, which must lie in the
    structure (a Kronecker fit starts B at ``assemble(coeffs_of(B))``),
    ``Wt`` = R(coeffs)^{-1} and ``M_t`` its Hermitian weighted scatter.

    A fit whose samples span the space, so that every M_t is positive
    definite, passes ``logdet`` = log det R_t from its factor, and the step
    models g(a) = log det R(a) + Tr(M_t R(a)^{-1}), whose value at the
    iterate is log det R_t + Re Tr(M_t Wt). Without it M_t may be singular,
    g unbounded below, and the step models the convex surrogate
    f(a) = Tr(Wt R(a)) + Tr(M_t R(a)^{-1}) - mu log det R(a), with the
    barrier weight mu = 1e-10 * Tr(M_t) and the start value
    K + Re Tr(M_t Wt) + mu log det Wt. Either way the gradient w - u (less
    mu w) and the Hessian come from Wt alone. The direction -H^{-1} grad
    comes from one Cholesky factor: of g's Hessian or, where g is not
    convex there and it has none, of f's; the two gradients agree at the
    iterate, so both directions descend g. Should roundoff leave H without
    one, the direction is -grad. An Armijo line search on the model keeps
    R(a) > 0, so only its trial points are factored, and each trial's
    log-determinant comes from its own factor. Each step lowers its model,
    and so the cost; ``coeffs`` comes back unchanged when
    |grad| <= 1e-8 * (1 + |value|). A non-finite M_t, value, gradient or
    Hessian raises NumericalFailureError.

    With a :class:`PowerBound` the step holds at its floor each power
    within 1e-12 * max p of it whose gradient is positive, and takes the
    step on the free block; the gradient and Hessian are that block's. Its
    trials run along the arc max(p + t d, floor), with Armijo on the
    displacement, and after 12 halvings the step takes the separable point,
    which it forms first. That point lowers g too: the separable bound
    majorizes f, and f majorizes g, as log det R <= log det R_t +
    Tr(Wt R) - K.
    """
    if not np.isfinite(M_t).all():
        raise NumericalFailureError("the structured inner step met a non-finite weighted scatter")
    coeffs = np.asarray(coeffs, dtype=float)
    mu = 0.0 if logdet is not None else 1e-10 * float(np.trace(M_t).real)
    value, w, u, hessian = _surrogate_pieces(struct, Wt, M_t, mu, logdet, bound)
    grad = w - u
    if mu > 0.0:
        grad -= mu * w
    H = hessian(mu if logdet is None else -1.0)
    if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(H).all()):
        raise NumericalFailureError("the structured inner step met a non-finite surrogate")
    if bound is None:
        halvings, held = _MAX_HALVINGS, None
    else:
        floor = bound.floor
        # d_l = p_l^2 u_l, as g = w - d / p^2: the paper's point costs a square root
        fallback = np.maximum(bound.separable(w, coeffs * coeffs * u), floor)
        held = (grad > 0.0) & (coeffs - floor <= _HELD * coeffs.max())
        halvings, held = _BOUNDED_HALVINGS, held if held.any() else None
    free = slice(None) if held is None else ~held
    g = grad[free]
    if np.linalg.norm(g) <= _NEWTON_GRAD_TOL * (1.0 + abs(value)):
        return coeffs

    def free_block(A):
        return A if held is None else A[np.ix_(free, free)]

    L = chol_pd(free_block(H))
    if L is None and logdet is not None:
        # g is not convex here: f's Hessian, whose direction descends g too
        L = chol_pd(free_block(hessian(0.0)))
    step = -g if L is None else lapack.dpotrs(L, -g, lower=1)[0]
    slope = float(g @ step)
    if held is not None:
        step, free_step = np.zeros_like(coeffs), step
        step[free] = free_step
    # roundoff slack: near the optimum the Armijo decrease sits below
    # the evaluation noise of the value itself
    slack = 1e-12 * (1.0 + abs(value))
    model = Wt if logdet is None else None
    t = 1.0
    for _ in range(halvings):
        trial = coeffs + t * step
        if bound is None:
            armijo = 1e-4 * t * slope
        else:
            # the arc max(p + t d, floor), with the held powers at the floor
            trial = np.maximum(trial, floor)
            if held is not None:
                trial[held] = floor[held]
            armijo = 1e-4 * min(float(grad @ (trial - coeffs)), 0.0)
        point = _surrogate_value(struct, trial, model, M_t, mu)
        if point is not None and point[0] <= value + armijo + slack:
            return trial
        t *= 0.5
    if bound is not None:
        bound.fallbacks += 1
        return fallback
    raise NumericalFailureError(
        "line search failed in the structured inner step",
        gradient_norm=float(np.linalg.norm(grad)),
        value=value,
    )


def estimate_linear(
    struct: LinearStructure,
    samples: SampleSet,
    settings: MMSettings | None = None,
    init_coeffs=None,
) -> EstimatorResult:
    """Tyler-type scatter estimation constrained to a linear structure.

    Runs the MM loop with :func:`inner_update` as the surrogate
    minimizer. Every iterate lies in the span of the basis, is positive
    definite, and has unit trace; the objective trace is non-increasing.
    Real samples on a complex basis fit as complex samples.
    """
    samples.require_oversampled()
    if struct.dim != samples.k:
        raise InvalidInputError(
            f"structure dimension {struct.dim} does not match samples K={samples.k}"
        )
    coeffs = struct.init_coeffs if init_coeffs is None else struct._checked_coeffs(init_coeffs)
    space = _Whitening(_in_field(samples, struct.basis), struct.assemble)
    spans = space.spans
    return mm_drive(
        inner=lambda a, it: inner_update(struct, a, it.inverse(), it.M,
                                         _chol_logdet(it.chol) if spans else None),
        space=space,
        init_params=coeffs,
        settings=settings,
    )


def stationarity_residual(struct: LinearStructure, scatter, samples: SampleSet) -> float:
    """Sup-norm of the cost gradient projected on the structure's coefficients.

    At a stationary point of the constrained problem the partial
    derivatives Tr(R^{-1} B_j) - Tr(R^{-1} M R^{-1} B_j) vanish; the
    residual is normalized by the scale of the first term.
    """
    it = Iterate.at(scatter, samples)
    M, W = it.M, it.inverse()
    lin = _basis_traces(struct, W)
    # the cost gradient is the surrogate gradient taken at R_t = R(a) = R
    grad = _surrogate_gradient(struct, W, W, W @ M @ W, 0.0)
    return float(np.max(np.abs(grad)) / (1.0 + np.max(np.abs(lin))))
