"""Toeplitz and banded-Toeplitz scatter estimation via circulant embedding.

A K x K positive definite Toeplitz matrix embeds into an L x L positive
semidefinite circulant matrix (L >= 2K-1), which the unitary DFT
diagonalizes. Writing A for the first K rows of the DFT matrix, the
feasible set becomes { A diag(p) A^H : p >= 0 }, so the rank-one-sum
machinery applies with this fixed dictionary; A diag(p) A^H is Toeplitz
for every nonnegative p. Complex samples fit all L powers.

For real samples the spectrum is symmetric, p_j = p_{L-j}, so only
m + 1 = floor(L/2) + 1 powers are free. Those fits run on the half
dictionary B = [2^(1/4) a_0, sqrt(2) a_1, ..., sqrt(2) a_m] (an even-L
midpoint also gets 2^(1/4)) with the real scatter R = Re(B diag(p~) B^H),
in real arithmetic. The surrogate weights of B are the pair sums of
those of A, and the scaling makes ||p~|| = ||p|| / sqrt(2), so relative
changes and extrapolation steps are those of the full spectrum.

At L = 2K-1 the K half-dictionary atoms of a real fit, and the 2K-1
atoms of a complex one, have linearly independent outer products, so the
powers are the coefficients of a linear structure bounded at p >= 0.
Each map of a Toeplitz fit is then one bounded Newton step
(:func:`structcov.linear.inner_update`) on the tight majorizer
g(p) = log det R + Tr(M_t R^{-1}) of the cost, or, for samples that do
not span C^K, on its convex tangent bound Tr(R_t^{-1} R) + Tr(M_t R^{-1})
with a log-det barrier. The paper majorizes that tangent bound once more
by a separable bound, whose minimizer is p_j = sqrt(d_j / w_j)
(:func:`power_update`); it majorizes g too, so that looser step is the
Newton step's monotone fallback, and the whole step of the fits it does
not run: banded fits, and fits with L > 2K-1, whose outer products are
dependent.

Banding adds the linear constraint that correlations beyond the
bandwidth vanish. Each inner problem is

    minimize  w^T p + sum_j d_j / p_j   s.t.  C p = 0,  p >= 0,

solved through its smooth concave dual g(lam) = 2 sum_j sqrt(d_j c_j)
with c = w + C^T lam > 0, maximized by a damped Newton method; the
primal is recovered in closed form from the dual optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    InfeasibleConstraintError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import _chol_logdet, dft_matrix
from .linear import LinearStructure, PowerBound, Powers, inner_update
from .rankone import _assemble, _fit_powers, _refuse_below_floor, power_update
from .tyler import EstimatorResult, MMSettings, SampleSet, _Whitening

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
        """The embedding of size L (default 2K-1), built once per (K, L); its A is read-only."""
        if k < 1:
            raise InvalidInputError("dimension must be at least 1")
        if l is None:
            l = 2 * k - 1
        if l < 2 * k - 1:
            raise InvalidInputError(f"embedding size must satisfy L >= 2K-1, got L={l}, K={k}")
        return _embedding(cls, k, l)

    @property
    def n_folded(self) -> int:
        """Number of free spectrum values of a real Toeplitz matrix, m + 1 = floor(L/2) + 1."""
        return self.l // 2 + 1

    @property
    def identity_spectrum(self) -> np.ndarray:
        """Half-dictionary powers of I: 1/sqrt(2) at index 0 and an even-L midpoint, else 1."""
        return np.where(2 * np.arange(self.n_folded) % self.l == 0, np.sqrt(0.5), 1.0)

    @property
    def half_matrix(self) -> np.ndarray:
        """Half dictionary B = [2^(1/4) a_0, sqrt(2) a_1, ..., sqrt(2) a_m].

        An even-L midpoint a_m also gets 2^(1/4). For a symmetric spectrum,
        p_j = p_{L-j}, Re(B diag(p~) B^H) = A diag(p) A^H with p~ = p at
        the conjugate pairs and p~ = p / sqrt(2) at the self-conjugate
        indices; :meth:`unfold` maps p~ back to p.
        """
        return self.a_matrix[:, : self.n_folded] * np.sqrt(2.0 * self.identity_spectrum)

    def dictionary(self, complex_: bool):
        """(atoms, identity spectrum) of a fit: A and ones for complex samples, else the half B."""
        if complex_:
            return self.a_matrix, np.ones(self.l)
        return self.half_matrix, self.identity_spectrum

    def assemble(self, powers, epsilon: float = 0.0) -> np.ndarray:
        return _assemble(self.a_matrix, powers, epsilon)

    def unfold(self, folded) -> np.ndarray:
        """The symmetric length-L spectrum p of half-dictionary powers p~."""
        p = np.asarray(folded, dtype=float) / self.identity_spectrum
        j = np.arange(self.l)
        return p[np.minimum(j, self.l - j)]


@lru_cache(maxsize=None)
def _embedding(cls, k: int, l: int) -> CirculantEmbedding:
    A = dft_matrix(l)[:k, :]
    A.flags.writeable = False
    return cls(k=k, l=l, a_matrix=A)


build_embedding = CirculantEmbedding.build  # the module-level name that tests build embeddings by


@dataclass(frozen=True)
class BandedSpec:
    """Equality constraints forcing Toeplitz correlations to zero beyond a bandwidth.

    ``constraint_matrix`` acts on the powers of the fit: its rows span
    exactly the conditions r_j = 0 for j = bandwidth+1 .. K-1. By
    default these are the half-dictionary powers of a real fit; a complex
    fit constrains the real and imaginary parts of r_j over the full
    spectrum.
    """

    bandwidth: int
    constraint_matrix: np.ndarray

    @classmethod
    def from_embedding(
        cls, emb: CirculantEmbedding, bandwidth: int, complex_: bool = False
    ) -> "BandedSpec":
        if not 0 <= bandwidth <= emb.k - 1:
            raise InvalidInputError("bandwidth must lie in [0, K-1]")
        # r_j = sum_i p_i D[j, i] conj(D[0, i]) for the fit's dictionary D, in
        # units of 1/sqrt(L): the dual's KKT tolerance holds C p to 1e-10 in these
        D = emb.dictionary(complex_)[0]
        C = np.sqrt(emb.l) * D[bandwidth + 1 :] * D[0].conj()
        A_t = np.concatenate([C.real, C.imag]) if complex_ else C.real
        return cls(bandwidth=bandwidth, constraint_matrix=A_t)


def banded_inner_update(spec: BandedSpec, w_t, d_t, return_dual: bool = False):
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
        if np.linalg.norm(grad) <= _DUAL_KKT_TOL * (1.0 + np.linalg.norm(ps)):
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


@lru_cache(maxsize=None)
def _power_structure(k: int, l: int, complex_: bool):
    """The fit's powers as the coefficients of a :class:`LinearStructure`, or None at L > 2K - 1.

    There is one basis matrix per atom: a_j a_j^H of the full dictionary
    for complex samples, and Re(b_j b_j^H) of the half dictionary for real
    ones, each built from its first column so that it is exactly
    Toeplitz. The starting coefficients are the identity spectrum.
    """
    if l > 2 * k - 1:
        return None
    atoms, identity = CirculantEmbedding.build(k, l).dictionary(complex_)
    # column m of a_j a_j^H is a_j[m] conj(a_j[0]); entry (i, j) takes the
    # column at offset i - j, conjugated above the diagonal
    column = atoms * atoms[0].conj()
    offset = np.subtract.outer(np.arange(k), np.arange(k))
    lower = column[np.abs(offset)].transpose(2, 0, 1)
    basis = np.where(offset >= 0, lower, lower.conj())
    return LinearStructure(basis=basis if complex_ else basis.real, init_coeffs=identity)


def _separable_point(w, d):
    """The paper's separable step, :func:`power_update` as this module holds it at call time."""
    return power_update(w, d)


def _separable_map(bound: PowerBound, q, it) -> np.ndarray:
    """The paper's separable step, :meth:`~structcov.linear.PowerBound.point` at q.

    Banded fits, and fits with L > 2K - 1, whose atoms' outer products are
    dependent, take it on every map; ``bound.separable`` maps the weights
    (w, d) to the minimizing powers. Each map counts as a Newton fallback.
    """
    w, u, _ = bound.powers.pieces(it.inverse(), it.M)
    bound.tally["newton_fallbacks"] += 1
    return bound.point(q, w, u)


def _fit(emb: CirculantEmbedding, samples: SampleSet, settings, solve=None, init=None):
    """Circulant MM: the half dictionary for real samples, the full A for complex ones.

    A real fit's powers are the half-dictionary powers p~, so R is real
    and p_j = p_{L-j} holds by construction; ``params`` is unfolded to
    the length-L spectrum. The fit starts at ``init``, by default the
    identity spectrum, and the restart's ridge eps*I is eps times the
    identity spectrum in either dictionary. Without ``solve`` (a Toeplitz
    fit) each map is a bounded Newton step when the powers form a linear
    structure, whose basis assembles each scatter exactly Toeplitz, and
    the separable step :func:`power_update` otherwise; a fit on the
    separable step reports each of its maps as a Newton fallback. With
    ``solve`` (a banded fit) each map is ``solve(w, d)``.
    """
    atoms, identity = emb.dictionary(samples.is_complex)
    powers = Powers(atoms, samples.is_complex)
    struct = None if solve is not None else _power_structure(emb.k, emb.l, samples.is_complex)
    if struct is None:
        step, space = _separable_map, _Whitening(samples, powers.assemble)
    else:
        space = _Whitening(samples, struct.assemble)
        spans = space.spans

        def step(bound, q, it):
            logdet = _chol_logdet(it.chol) if spans else None
            return inner_update(struct, q, it.inverse(), it.M, logdet, bound)

    result = _fit_powers(step, powers, space, identity if init is None else init, settings,
                         _refuse_below_floor, ridge=identity, separable=solve or _separable_point,
                         counts=() if solve else ("newton_fallbacks",))
    if not samples.is_complex:
        result.params = emb.unfold(result.params)
    result.details["embedding_size"] = emb.l
    return result


def estimate_toeplitz(
    samples: SampleSet,
    settings: MMSettings | None = None,
    embedding_size: int | None = None,
) -> EstimatorResult:
    """Tyler-type scatter estimation over circulant-embeddable Toeplitz matrices.

    Real samples give a real symmetric Toeplitz estimate; complex
    samples give a Hermitian Toeplitz estimate. For real samples the
    conjugate-pair symmetry p_j = p_{L-j} of the circulant spectrum
    holds by construction: the fit runs on the half dictionary.
    ``details['newton_fallbacks']`` counts the maps that took the
    paper's separable point rather than the bounded Newton step.
    """
    samples.require_oversampled()
    emb = CirculantEmbedding.build(samples.k, embedding_size)
    return _fit(emb, samples, settings)


def estimate_banded_toeplitz(
    samples: SampleSet,
    bandwidth: int,
    settings: MMSettings | None = None,
    embedding_size: int | None = None,
) -> EstimatorResult:
    """Toeplitz scatter estimation with correlations zero beyond ``bandwidth``."""
    samples.require_oversampled()
    emb = CirculantEmbedding.build(samples.k, embedding_size)
    spec = BandedSpec.from_embedding(emb, bandwidth, samples.is_complex)
    result = _fit(emb, samples, settings, lambda w, d: banded_inner_update(spec, w, d))
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

