"""Scatter estimation under a general linear structure R = sum_j a_j B_j >= 0.

The MM outer loop repeatedly minimizes the convex surrogate

    f(a) = Tr(R_t^{-1} R(a)) + Tr(M_t R(a)^{-1})

over the coefficient vector, which is done by a damped Newton method
with a Cholesky feasibility line search. The second term blows up at
the boundary of the positive definite cone whenever M_t is positive
definite, so the iterates stay strictly feasible without an explicit
inequality handler; a tiny log-det barrier is added only in the
degenerate case of singular M_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import InvalidInputError, NumericalFailureError
from .linalg import as_field_array, check_hermitian, chol_pd, hermitize
from .tyler import EstimatorResult, Iterate, MMSettings, SampleSet, _Whitening, mm_drive

_NEWTON_GRAD_TOL = 1e-8
_NEWTON_MAX_ITER = 120
_MAX_HALVINGS = 60


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
    # gram[l, m] = Re Tr(B_l B_m^H), the normal matrix of the projection onto the span
    gram: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "gram", gram)

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
        return np.linalg.solve(self.gram, (vecs.conj() @ R.reshape(-1)).real)

    def _checked_coeffs(self, coeffs) -> np.ndarray:
        """A caller's coefficient vector as floats; InvalidInputError unless finite of length L."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise InvalidInputError("init_coeffs length must match the basis size")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("init_coeffs contains non-finite entries")
        return coeffs


# ---------------------------------------------------------------------------
# structure presets
# ---------------------------------------------------------------------------

def toeplitz_basis(k: int) -> LinearStructure:
    """Symmetric Toeplitz family: one indicator basis matrix per diagonal offset."""
    return banded_toeplitz_basis(k, k - 1)


def banded_toeplitz_basis(k: int, bandwidth: int) -> LinearStructure:
    """Symmetric Toeplitz matrices with correlations zero beyond ``bandwidth``."""
    if not 0 <= bandwidth <= k - 1:
        raise InvalidInputError("bandwidth must lie in [0, K-1]")
    basis = [np.eye(k)]
    for m in range(1, bandwidth + 1):
        basis.append(np.eye(k, k=m) + np.eye(k, k=-m))
    return LinearStructure(basis=np.stack(basis))


def circulant_basis(k: int) -> LinearStructure:
    """Symmetric circulant family (offsets identified modulo K)."""
    basis = [np.eye(k)]
    for m in range(1, k // 2 + 1):
        B = np.eye(k, k=m) + np.eye(k, k=-m) + np.eye(k, k=m - k) + np.eye(k, k=k - m)
        if 2 * m == k:
            B = B / 2.0
        basis.append(B)
    return LinearStructure(basis=np.stack(basis))


def diagonal_basis(k: int) -> LinearStructure:
    """Diagonal matrices."""
    basis = np.zeros((k, k, k))
    for i in range(k):
        basis[i, i, i] = 1.0
    return LinearStructure(basis=basis)


def full_symmetric_basis(k: int) -> LinearStructure:
    """All real symmetric matrices (a vacuous structural constraint)."""
    mats = []
    for i in range(k):
        B = np.zeros((k, k))
        B[i, i] = 1.0
        mats.append(B)
    for i in range(k):
        for j in range(i + 1, k):
            B = np.zeros((k, k))
            B[i, j] = B[j, i] = 1.0
            mats.append(B)
    return LinearStructure(basis=np.stack(mats))


def hermitian_basis(k: int) -> LinearStructure:
    """All complex Hermitian matrices with real coefficients."""
    mats = []
    for i in range(k):
        B = np.zeros((k, k), dtype=complex)
        B[i, i] = 1.0
        mats.append(B)
    for i in range(k):
        for j in range(i + 1, k):
            B = np.zeros((k, k), dtype=complex)
            B[i, j] = B[j, i] = 1.0
            mats.append(B)
            C = np.zeros((k, k), dtype=complex)
            C[i, j] = 1.0j
            C[j, i] = -1.0j
            mats.append(C)
    return LinearStructure(basis=np.stack(mats))


def structure_from_name(name: str, k: int) -> LinearStructure:
    """Resolve a preset by CLI name: toeplitz, banded:<k>, diagonal, full, circulant."""
    if name == "toeplitz":
        return toeplitz_basis(k)
    if name == "diagonal":
        return diagonal_basis(k)
    if name == "full":
        return full_symmetric_basis(k)
    if name == "circulant":
        return circulant_basis(k)
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
    W = cho_solve((L, True), np.eye(R.shape[0], dtype=R.dtype), check_finite=False)
    value = float((Wt * R.conj()).sum().real + (M * W.conj()).sum().real)
    if mu > 0.0:
        value -= mu * 2.0 * np.sum(np.log(np.diag(L).real))
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


def _surrogate_pieces(struct: LinearStructure, coeffs, Wt, M, mu: float, point=None):
    """Value, gradient and Hessian of the surrogate at ``coeffs``.

    Wt is the inverse of the outer iterate R_t; ``mu`` adds a -mu*logdet
    barrier used only when M is singular. ``point`` is the (value, W)
    that :func:`_surrogate_value` already returned for ``coeffs``, which
    saves assembling and factoring R(a) again. Returns None when the
    point is infeasible.

    One call costs O(L K^3 + L^2 K^2): the Hessian's batched matmul over
    the L basis matrices and its GEMM against the flattened basis.
    """
    if point is None:
        point = _surrogate_value(struct, coeffs, Wt, M, mu)
        if point is None:
            return None
    value, W = point
    WMW = W @ M @ W
    return (
        value,
        _surrogate_gradient(struct, Wt, W, WMW, mu),
        _surrogate_hessian(struct, W, WMW, mu),
    )


def _newton_minimize(struct, coeffs, Wt, M, mu):
    coeffs = np.asarray(coeffs, dtype=float).copy()
    pieces = _surrogate_pieces(struct, coeffs, Wt, M, mu)
    if pieces is None:
        raise InvalidInputError("inner solve started from an infeasible point")
    value, grad, H = pieces
    for _ in range(_NEWTON_MAX_ITER):
        if np.linalg.norm(grad) <= _NEWTON_GRAD_TOL * (1.0 + abs(value)):
            return coeffs, value, grad
        damping = 0.0
        scale = np.trace(H) / H.shape[0]
        while True:
            try:
                step = np.linalg.solve(H + damping * np.eye(H.shape[0]), -grad)
                break
            except np.linalg.LinAlgError:
                damping = max(2.0 * damping, 1e-12 * scale)
        slope = float(grad @ step)
        if slope >= 0.0:  # damped direction lost descent; fall back to gradient
            step = -grad
            slope = -float(grad @ grad)
        # roundoff slack: near the optimum the Armijo decrease sits below
        # the evaluation noise of the value itself
        slack = 1e-12 * (1.0 + abs(value))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = coeffs + t * step
            point = _surrogate_value(struct, trial, Wt, M, mu)
            if point is not None and point[0] <= value + 1e-4 * t * slope + slack:
                break
            t *= 0.5
        else:
            raise NumericalFailureError(
                "line search failed in the structured inner solve",
                gradient_norm=float(np.linalg.norm(grad)),
                value=value,
            )
        coeffs = trial
        value, grad, H = _surrogate_pieces(struct, coeffs, Wt, M, mu, point)
    raise NumericalFailureError(
        "inner Newton solve did not reach its gradient tolerance",
        gradient_norm=float(np.linalg.norm(grad)),
        value=value,
    )


def _pd_inverse(R) -> np.ndarray:
    """Inverse of a positive definite matrix through its Cholesky factor."""
    factor = cho_factor(R, lower=True, check_finite=False)
    return cho_solve(factor, np.eye(R.shape[0], dtype=R.dtype), check_finite=False)


def surrogate_gradient(struct: LinearStructure, coeffs, R_t, M) -> np.ndarray:
    """Gradient of f(a) = Tr(R_t^{-1} R(a)) + Tr(M R(a)^{-1}) at ``coeffs``."""
    Wt = _pd_inverse(check_hermitian(R_t, "R_t"))
    M = np.asarray(M)
    point = _surrogate_value(struct, coeffs, Wt, M, 0.0)
    if point is None:
        raise InvalidInputError("coefficients are infeasible")
    W = point[1]
    return _surrogate_gradient(struct, Wt, W, W @ M @ W, 0.0)


def inner_update(struct: LinearStructure, coeffs, Wt, M_t) -> np.ndarray:
    """Minimize the MM surrogate over the structure's coefficients.

    ``Wt`` is the inverse R_t^{-1} of the outer iterate and ``M_t`` its
    Hermitian weighted scatter. Starts from ``coeffs`` (warm start) and
    returns coefficients with surrogate gradient norm at most
    1e-8 * (1 + |f|) and R(a) > 0. A -mu*logdet safeguard with
    mu = 1e-10 * Tr(M_t) is applied when M_t is singular, followed by an
    unbarriered polish.
    """
    eigs = np.linalg.eigvalsh(M_t)
    trace_m = float(np.trace(M_t).real)
    mu = 0.0
    if eigs[0] <= 1e-12 * max(trace_m / M_t.shape[0], np.finfo(float).tiny):
        mu = 1e-10 * trace_m
    solution, _, _ = _newton_minimize(struct, coeffs, Wt, M_t, mu)
    if mu > 0.0:
        try:
            solution, _, _ = _newton_minimize(struct, solution, Wt, M_t, 0.0)
        except NumericalFailureError:
            pass  # keep the barrier solution; the polish is best-effort
    return solution


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
    """
    samples.require_oversampled()
    if struct.dim != samples.k:
        raise InvalidInputError(
            f"structure dimension {struct.dim} does not match samples K={samples.k}"
        )
    coeffs = struct.init_coeffs if init_coeffs is None else struct._checked_coeffs(init_coeffs)
    return mm_drive(
        inner=lambda a, it: inner_update(struct, a, it.inverse(), it.M),
        space=_Whitening(samples, struct.assemble),
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
