"""Scatter estimation under a general linear structure R = sum_j a_j B_j >= 0.

Each MM map takes one Newton step, with a Cholesky feasibility line
search, on the convex surrogate

    f(a) = Tr(R_t^{-1} R(a)) + Tr(M_t R(a)^{-1})

over the coefficient vector: the MM gradient algorithm of K. Lange
("A gradient algorithm locally equivalent to the EM algorithm", JRSS-B
57(2), 1995), with the fixed points and local rate of the exact
minimization. The step starts at the iterate, R(a_t) = R_t, and is built
from R_t^{-1}, which the caller has; a Kronecker fit therefore starts a
structured B inside the structure. The second term blows up at the
boundary of the positive definite cone whenever M_t is positive
definite, so the iterates stay strictly feasible; a tiny log-det barrier
is added only when M_t is singular. Either way the surrogate is strictly
convex, so one Cholesky factor of its Hessian gives the Newton direction.

A fit may bound the coefficients below (:class:`PowerBound`, passed to
each step): the basis matrices are then positive semidefinite and the
coefficients are powers, p >= floor. The step is then a projected Newton
step (D. P. Bertsekas, "Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20(2), 1982),
and the minimizer of the paper's separable bound on the surrogate is its
fallback.
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
    of the K x (L r) ``factors``. The surrogate's pieces then come from the
    two (L r) x (L r) matrices C^H W C and C^H W M_t W C, W = R_t^{-1}, and its
    second term has the paper's separable bound, whose minimizer
    max(separable(w, d), floor) is a monotone step: w_l = Re Tr(W B_l) and
    d_l = p_l^2 Re Tr(W M_t W B_l). :func:`inner_update` forms that point on
    every map and takes it when its line search fails; ``fallbacks``
    counts those maps. A fit makes its own bound, so the count is its own.
    """

    floor: np.ndarray
    separable: Callable
    factors: np.ndarray
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
# inner convex solve
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
    """Surrogate value at ``coeffs`` and W = R(a)^{-1}, or None when R(a) is not PD.

    Wt is the inverse of the outer iterate R_t; ``mu`` adds a -mu*logdet
    barrier used only when M is singular.
    """
    R = hermitize(struct.assemble(coeffs))
    L = chol_pd(R)
    if L is None:
        return None
    W = _chol_inverse(L)
    value = float((Wt * R.conj()).sum().real + (M * W.conj()).sum().real)
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
    """H_lm = 2 Re Tr(W M W B_l W B_m) + mu Re Tr(W B_l W B_m).

    Row l is the traces of Q_l = W M W B_l W against the basis, so H is
    one batched matmul for Q and one (L, K^2) x (K^2, L) GEMM.
    """
    H = 2.0 * _basis_traces(struct, WMW @ struct.basis @ W)
    if mu > 0.0:
        H += mu * _basis_traces(struct, W @ struct.basis @ W)
    return H


def _surrogate_pieces(struct: LinearStructure, Wt, M, mu: float, factors=None):
    """Value, the gradient's two terms and the Hessian of the surrogate at R(a) = R_t, from Wt alone.

    There W = Wt, the value is K + Re Tr(M Wt) and the barrier adds
    -mu*logdet R_t = mu*logdet Wt, so no matrix is factored. The gradient
    is w - u - mu*w, with w_l = Re Tr(Wt B_l) and u_l = Re Tr(Wt M Wt B_l).

    One call costs O(L K^3 + L^2 K^2): the Hessian's batched matmul over
    the L basis matrices and its GEMM against the flattened basis. With the
    ``factors`` C of a :class:`PowerBound` it costs four GEMMs of at most
    K x K x (L r) and (L r) x K x (L r): Y = C^H Wt C and X = C^H Wt M Wt C hold w and u in
    their diagonal blocks' traces, and H_lm = 2 Re sum X_ij conj(Y_ij) over
    block (l, m) (plus mu sum |Y_ij|^2).
    """
    value = Wt.shape[0] + float((M * Wt.conj()).sum().real)
    if mu > 0.0:
        # the one log-determinant not taken from a Cholesky factor: none is at hand
        value += mu * np.linalg.slogdet(Wt).logabsdet
    if factors is None:
        WMW = Wt @ M @ Wt
        return (
            value,
            _basis_traces(struct, Wt),
            _basis_traces(struct, WMW),
            _surrogate_hessian(struct, Wt, WMW, mu),
        )
    size, r = struct.size, factors.shape[1] // struct.size
    WC = Wt @ factors
    Y = factors.conj().T @ WC
    X = WC.conj().T @ (M @ WC)

    def block_sums(A):
        return A.reshape(size, r, size, r).sum(axis=(1, 3)).real

    w = Y.diagonal().real.reshape(size, r).sum(axis=1)
    u = X.diagonal().real.reshape(size, r).sum(axis=1)
    H = 2.0 * block_sums(X * Y.conj())
    if mu > 0.0:
        H += mu * block_sums(Y * Y.conj())
    return value, w, u, H


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


def inner_update(struct: LinearStructure, coeffs, Wt, M_t,
                 bound: PowerBound | None = None) -> np.ndarray:
    """One Newton step on the MM surrogate from the outer iterate, with a feasibility line search.

    ``coeffs`` are the coefficients of the iterate, which must lie in the
    structure (a Kronecker fit starts B at ``assemble(coeffs_of(B))``),
    ``Wt`` = R(coeffs)^{-1} and ``M_t`` its Hermitian weighted scatter. The
    value f, gradient g and Hessian H come from Wt alone and the direction
    -H^{-1} g from one Cholesky factor of H (-g should roundoff leave H
    without one); an Armijo line search keeps R(a) > 0, so only its trial
    points are factored. Each step lowers the surrogate, and so the cost;
    ``coeffs`` comes back unchanged when |g| <= 1e-8 * (1 + |f|). A
    -mu*logdet barrier with mu = 1e-10 * Tr(M_t) is added when M_t has no
    Cholesky factor. A non-finite M_t, f, g or H raises NumericalFailureError.

    With a :class:`PowerBound` the step holds at its floor each power
    within 1e-12 * max p of it whose g_j > 0, and takes the step on the
    free block; g is that block's. Its trials run along the arc
    max(p + t d, floor), with Armijo on the displacement, and after 12
    halvings the step takes the separable point, which it forms first.
    """
    if not np.isfinite(M_t).all():
        raise NumericalFailureError("the structured inner step met a non-finite weighted scatter")
    mu = 1e-10 * float(np.trace(M_t).real) if chol_pd(M_t) is None else 0.0
    coeffs = np.asarray(coeffs, dtype=float)
    value, w, u, H = _surrogate_pieces(struct, Wt, M_t, mu,
                                       None if bound is None else bound.factors)
    grad = w - u
    if mu > 0.0:
        grad -= mu * w
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
    if held is not None:
        H = H[np.ix_(free, free)]
    L = chol_pd(H)
    step = -g if L is None else lapack.dpotrs(L, -g, lower=1)[0]
    slope = float(g @ step)
    if held is not None:
        step, free_step = np.zeros_like(coeffs), step
        step[free] = free_step
    # roundoff slack: near the optimum the Armijo decrease sits below
    # the evaluation noise of the value itself
    slack = 1e-12 * (1.0 + abs(value))
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
        point = _surrogate_value(struct, trial, Wt, M_t, mu)
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
    return mm_drive(
        inner=lambda a, it: inner_update(struct, a, it.inverse(), it.M),
        space=_Whitening(_in_field(samples, struct.basis), struct.assemble),
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
