"""Toeplitz and banded-Toeplitz scatter estimation via circulant embedding.

A K x K positive definite Toeplitz matrix embeds into an L x L positive
semidefinite circulant matrix (L >= 2K-1), which the unitary DFT
diagonalizes. Writing A for the first K rows of the DFT matrix, the
feasible set becomes { A diag(p) A^H : p >= 0 }, so the rank-one-sum
machinery applies with this fixed dictionary. Column conjugacy of A
makes the surrogate weights symmetric, p_j = p_{L-j} is preserved
automatically, and A diag(p) A^H is Toeplitz for every nonnegative p.

Banding adds the linear constraint that correlations beyond the
bandwidth vanish. After folding conjugate pairs into real variables,
each inner problem is

    minimize  w~^T p~ + sum_j d~_j / p~_j   s.t.  A~ p~ = 0,  p~ >= 0,

solved through its smooth concave dual g(lam) = 2 sum_j sqrt(d~_j c_j)
with c = w~ + A~^T lam > 0, maximized by a damped Newton method; the
primal is recovered in closed form from the dual optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InfeasibleConstraintError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import dft_matrix
from .rankone import _assemble, _run, _unchecked, power_update
from .tyler import TERMINATION_CONVERGED, EstimatorResult, MMSettings, SampleSet

_DUAL_MAX_ITER = 200
_DUAL_KKT_TOL = 1e-10
_LAMBDA_BLOWUP = 1e14


@dataclass(frozen=True)
class CirculantEmbedding:
    """Dictionary A = [I_K 0] F_L mapping circulant spectra to Toeplitz matrices."""

    k: int
    l: int
    a_matrix: np.ndarray

    @classmethod
    def build(cls, k: int, l: int | None = None) -> "CirculantEmbedding":
        if k < 1:
            raise InvalidInputError("dimension must be at least 1")
        if l is None:
            l = 2 * k - 1
        if l < 2 * k - 1:
            raise InvalidInputError(f"embedding size must satisfy L >= 2K-1, got L={l}, K={k}")
        A = dft_matrix(l)[:k, :]
        return cls(k=k, l=l, a_matrix=A)

    @property
    def n_folded(self) -> int:
        """Number of distinct spectrum values after conjugate-pair folding."""
        return (self.l - 1) // 2 + 1

    def assemble(self, powers, epsilon: float = 0.0) -> np.ndarray:
        return _assemble(self.a_matrix, powers, epsilon)

    def fold(self, values) -> np.ndarray:
        """Fold a length-L symmetric vector of weights into orbit sums.

        Index 0 is rescaled by sqrt(2); each conjugate pair contributes
        its sum; a self-conjugate midpoint (even L) passes through.
        """
        v = np.asarray(values, dtype=float)
        m = self.n_folded - 1
        out = np.empty(m + 1)
        out[0] = np.sqrt(2.0) * v[0]
        for j in range(1, m + 1):
            if 2 * j == self.l:
                out[j] = v[j]
            else:
                out[j] = v[j] + v[self.l - j]
        return out

    def fold_d(self, values) -> np.ndarray:
        """Fold the inverse-power weights; index 0 is rescaled by 1/sqrt(2)."""
        out = self.fold(values)
        out[0] = np.asarray(values, dtype=float)[0] / np.sqrt(2.0)
        return out

    def unfold(self, folded) -> np.ndarray:
        """Expand folded variables back to a symmetric length-L power vector."""
        folded = np.asarray(folded, dtype=float)
        p = np.empty(self.l)
        p[0] = np.sqrt(2.0) * folded[0]
        m = self.n_folded - 1
        for j in range(1, m + 1):
            p[j] = folded[j]
            if 2 * j != self.l:
                p[self.l - j] = folded[j]
        return p


def build_embedding(k: int, l: int | None = None) -> CirculantEmbedding:
    """Circulant embedding of size L >= 2K-1 (default exactly 2K-1)."""
    return CirculantEmbedding.build(k, l)


@dataclass(frozen=True)
class BandedSpec:
    """Equality constraints forcing Toeplitz correlations to zero beyond a bandwidth.

    ``constraint_matrix`` acts on the folded power vector: its rows span
    exactly the conditions r_j = 0 for j = bandwidth+1 .. K-1.
    """

    bandwidth: int
    constraint_matrix: np.ndarray

    @classmethod
    def from_embedding(cls, emb: CirculantEmbedding, bandwidth: int) -> "BandedSpec":
        if not 0 <= bandwidth <= emb.k - 1:
            raise InvalidInputError("bandwidth must lie in [0, K-1]")
        rows = emb.k - bandwidth - 1
        m = emb.n_folded - 1
        C = emb.a_matrix[bandwidth + 1 :, :]  # rows of A giving the banded correlations
        A_t = np.empty((rows, m + 1))
        if rows:
            A_t[:, 0] = np.sqrt(2.0) * C[:, 0].real
            for j in range(1, m + 1):
                if 2 * j == emb.l:
                    A_t[:, j] = C[:, j].real
                else:
                    A_t[:, j] = (C[:, j] + C[:, emb.l - j]).real
            sv = np.linalg.svd(A_t, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                raise InvalidInputError("banding constraint matrix is rank deficient")
        return cls(bandwidth=bandwidth, constraint_matrix=A_t)


def banded_inner_update(
    spec: BandedSpec,
    w_t,
    d_t,
    kkt_tol: float = _DUAL_KKT_TOL,
    return_dual: bool = False,
):
    """Minimize w~^T p~ + sum_j d~_j/p~_j subject to A~ p~ = 0, p~ >= 0.

    Indices with d~_j = 0 are fixed at zero and dropped from the dual.
    Raises InfeasibleConstraintError when the constraints force every
    remaining variable to zero (the dual is then unbounded). With
    ``return_dual`` the multipliers of the equality constraints are
    returned alongside the minimizer.
    """
    w = np.asarray(w_t, dtype=float)
    d = np.asarray(d_t, dtype=float)
    if np.any(w <= 0.0):
        raise InvalidInputError("folded weights w must be positive")
    if np.any(d < 0.0):
        raise InvalidInputError("folded weights d must be nonnegative")
    A = spec.constraint_matrix
    if A.shape[0] == 0:
        p = power_update(w, d)
        return (p, np.zeros(0)) if return_dual else p

    support = d > 0.0
    p = np.zeros_like(w)
    if not np.any(support):
        return (p, np.zeros(A.shape[0])) if return_dual else p
    ws, ds, As = w[support], d[support], A[:, support]
    sqrt_d = np.sqrt(ds)

    lam = np.zeros(A.shape[0])
    c = ws.copy()
    scale = 1.0 + np.linalg.norm(ws, np.inf)

    def primal(cvec):
        return sqrt_d / np.sqrt(cvec)

    def dual_value(cvec):
        return 2.0 * np.sum(sqrt_d * np.sqrt(cvec))

    g = dual_value(c)
    for _ in range(_DUAL_MAX_ITER):
        ps = primal(c)
        grad = As @ ps
        if np.linalg.norm(grad) <= kkt_tol * (1.0 + np.linalg.norm(ps)):
            p[support] = ps
            return (p, lam) if return_dual else p
        if np.linalg.norm(lam, np.inf) > _LAMBDA_BLOWUP * scale:
            raise InfeasibleConstraintError(
                "banding constraints are infeasible for the current weights"
            )
        curv = As * (0.5 * sqrt_d * c ** -1.5)
        H = curv @ As.T  # negative of the dual Hessian
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        # accept within a roundoff-sized slack so full Newton steps survive
        # near the optimum, where the dual value change sits below eps*|g|
        slack = 1e-13 * (1.0 + abs(g))
        t = 1.0
        for _ in range(100):
            lam_try = lam + t * step
            c_try = ws + As.T @ lam_try
            if np.all(c_try > 0.0):
                g_try = dual_value(c_try)
                if g_try >= g - slack:
                    break
            t *= 0.5
        else:
            raise NumericalFailureError("dual line search stalled in the banded inner solve")
        lam, c, g = lam_try, c_try, g_try
    raise NumericalFailureError(
        "dual Newton did not converge in the banded inner solve",
        kkt_residual=float(np.linalg.norm(As @ primal(c))),
    )


def _pair_index(l: int) -> np.ndarray:
    """Index of the conjugate partner L - j of every spectrum index j (0 maps to 0)."""
    return -np.arange(l) % l


def _symmetry_guard(w, d, pairs):
    """Soft check of the automatic pair symmetry of the surrogate weights.

    ``pairs`` is :func:`_pair_index` of their length. w and d are checked
    together: the largest pair gap of each may not exceed 1e-6 * (1 + its
    largest magnitude).
    """
    wd = np.array((w, d))
    excess = np.abs(wd - wd[:, pairs]).max(axis=1) - 1e-6 * np.abs(wd).max(axis=1)
    if excess.max() > 1e-6:
        raise NumericalFailureError(
            "conjugate-pair symmetry of the surrogate weights broke down"
        )


def _trivial_result(samples: SampleSet) -> EstimatorResult:
    return EstimatorResult(
        scatter=np.ones((1, 1), dtype=samples.data.dtype),
        params=np.array([1.0]),
        objective_trace=np.asarray([]),
        iterations=0,
        termination=TERMINATION_CONVERGED,
    )


def _finalize(result: EstimatorResult, emb: CirculantEmbedding, samples: SampleSet):
    result.details["embedding_size"] = emb.l
    if not samples.is_complex and np.iscomplexobj(result.scatter):
        imag = np.max(np.abs(result.scatter.imag))
        if imag > 1e-10 * max(1.0, np.max(np.abs(result.scatter.real))):
            raise NumericalFailureError("real-data Toeplitz estimate has a complex residue")
        result.scatter = result.scatter.real.copy()
    return result


def estimate_toeplitz(
    samples: SampleSet,
    settings: MMSettings | None = None,
    embedding_size: int | None = None,
    epsilon: float = 0.0,
) -> EstimatorResult:
    """Tyler-type scatter estimation over circulant-embeddable Toeplitz matrices.

    Real samples give a real symmetric Toeplitz estimate; complex
    samples give a Hermitian Toeplitz estimate. The conjugate-pair
    symmetry of the circulant spectrum holds automatically for real
    data and is asserted, not enforced.
    """
    samples.require_oversampled()
    if samples.k == 1:
        return _trivial_result(samples)
    emb = build_embedding(samples.k, embedding_size)
    pairs = None if samples.is_complex else _pair_index(emb.l)
    update = _unchecked(power_update)

    def solve(w, d):
        if pairs is not None:
            _symmetry_guard(w, d, pairs)
        return update(w, d)

    result = _run(emb.a_matrix, samples, settings, epsilon, np.ones(emb.l), solve, pairs)
    return _finalize(result, emb, samples)


def estimate_banded_toeplitz(
    samples: SampleSet,
    bandwidth: int,
    settings: MMSettings | None = None,
    embedding_size: int | None = None,
    epsilon: float = 0.0,
) -> EstimatorResult:
    """Toeplitz scatter estimation with correlations zero beyond ``bandwidth``."""
    samples.require_oversampled()
    if samples.k == 1:
        if bandwidth != 0:
            raise InvalidInputError("bandwidth must lie in [0, K-1]")
        return _trivial_result(samples)
    emb = build_embedding(samples.k, embedding_size)
    spec = BandedSpec.from_embedding(emb, bandwidth)
    pairs = None if samples.is_complex else _pair_index(emb.l)

    def solve(w, d):
        if pairs is not None:
            _symmetry_guard(w, d, pairs)
        return emb.unfold(banded_inner_update(spec, emb.fold(w), emb.fold_d(d)))

    result = _run(emb.a_matrix, samples, settings, epsilon, np.ones(emb.l), solve, pairs)
    result = _finalize(result, emb, samples)
    result.details["bandwidth"] = bandwidth
    return result


def diagonal_spread(R) -> float:
    """Largest within-diagonal deviation; zero for an exact Toeplitz matrix."""
    R = np.asarray(R)
    k = R.shape[0]
    worst = 0.0
    for off in range(-(k - 1), k):
        diag = np.diagonal(R, offset=off)
        spread = np.max(np.abs(diag - diag[0]))
        worst = max(worst, float(spread))
    return worst


def first_correlations(R) -> np.ndarray:
    """First row of a (numerically) Toeplitz matrix, averaged along diagonals."""
    R = np.asarray(R)
    k = R.shape[0]
    return np.asarray([np.mean(np.diagonal(R, offset=off)) for off in range(k)])
