"""Tyler's scatter cost, the weighted-scatter operator, and the MM driver.

The cost being minimized throughout the package is

    L(R) = log det(R) + (K/N) * sum_i log(x_i^H R^{-1} x_i),

which is scale invariant in R and in each sample, so every estimator
reports a trace-normalized scatter matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .exceptions import (
    FailedToConvergeError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import as_field_array, check_hermitian, chol_pd, hermitize

TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITER = "max_iter"


@dataclass(frozen=True)
class SampleSet:
    """N samples of dimension K, one per row.

    Zero samples are rejected at construction: they make the scatter
    cost undefined. The oversampling requirement N > K is only imposed
    by estimators that need it (see :meth:`require_oversampled`);
    Kronecker-structured estimation works with N <= K.
    """

    data: np.ndarray

    @classmethod
    def from_array(cls, data) -> "SampleSet":
        data = as_field_array(data, "samples")
        if data.ndim != 2:
            raise InvalidInputError(f"samples must be a 2-D array, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidInputError("samples must be non-empty")
        norms = np.linalg.norm(data, axis=1)
        if np.any(norms == 0.0):
            raise InvalidInputError("sample set contains a zero vector")
        return cls(data=data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    def require_oversampled(self) -> None:
        if self.n <= self.k:
            raise InvalidInputError(
                f"estimation needs more samples than dimensions (N={self.n}, K={self.k})"
            )

    def to_complex(self) -> "SampleSet":
        if self.is_complex:
            return self
        return SampleSet(data=self.data.astype(np.complex128))


@dataclass(frozen=True)
class MMSettings:
    """Stopping rule for the majorization-minimization loops."""

    tol: float = 1e-8
    max_iter: int = 1000
    record_trace: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidInputError("tol must be positive")
        if self.max_iter < 1:
            raise InvalidInputError("max_iter must be at least 1")


@dataclass
class EstimatorResult:
    """Outcome of one estimation run.

    ``scatter`` is trace-normalized (Tr = 1). ``params`` holds the
    structure-specific parameter vector when one exists; ``details``
    carries estimator extras (e.g. Kronecker factors).
    """

    scatter: np.ndarray
    params: np.ndarray | None
    objective_trace: np.ndarray
    iterations: int
    termination: str
    details: dict = field(default_factory=dict)


def _prepare(R, samples: SampleSet):
    """A user's scatter for these samples: finite, square, Hermitian, in their field."""
    R = check_hermitian(R, "scatter")
    if R.shape[0] != samples.k:
        raise InvalidInputError(
            f"dimension mismatch: scatter is {R.shape[0]}x{R.shape[0]}, samples have K={samples.k}"
        )
    if samples.is_complex and not np.iscomplexobj(R):
        R = R.astype(np.complex128)
    return R


class _Whitening:
    """The full-K space of one fit: the samples, the structure and the triangular solver.

    :meth:`normalize` scales parameters to a unit-trace scatter, and
    calling the space at a scatter factors it into an :class:`Iterate`.

    The LAPACK ``trtrs`` routine is looked up once, for the field of the
    samples; it is swapped for the complex one if a complex factor turns
    up. A real factor solves a complex right-hand side as its real float
    view, real and imaginary parts side by side.
    """

    def __init__(self, samples: SampleSet, assemble=None, rescale=None):
        X = samples.data
        self.samples = samples
        self.xt = X.T
        self.xc = X.conj()
        self.ratio = samples.k / samples.n
        self.assemble = assemble if assemble is not None else lambda p: p
        self.rescale = rescale
        (self.trtrs,) = get_lapack_funcs(("trtrs",), (X,))

    def normalize(self, params):
        """(params, R) of the scatter assemble(params) scaled to unit trace.

        None when that trace is not finite and positive. Without a
        ``rescale`` the scatter is linear in the parameters, so scaling both
        by c = 1 / trace is exact; a ``rescale`` callable is followed by
        assembling its result.
        """
        params = np.asarray(params)
        R = self.assemble(params)
        tr = float(np.trace(R).real)
        if not np.isfinite(tr) or tr <= 0.0:
            return None
        c = 1.0 / tr
        if self.rescale is None:
            return params * c, c * R
        params = self.rescale(params, c)
        return params, self.assemble(params)

    def solve(self, L, B):
        """L^{-1} B for a lower triangular L."""
        if self.trtrs.typecode in "sd" and L.dtype.kind == "c":
            (self.trtrs,) = get_lapack_funcs(("trtrs",), (L, B))
        split = self.trtrs.typecode in "sd" and B.dtype.kind == "c"
        if split:
            B = np.ascontiguousarray(B).view(np.float64)
        x, info = self.trtrs(L, B, lower=1)
        if info != 0:
            raise NumericalFailureError("triangular solve failed", info=int(info))
        return np.ascontiguousarray(x).view(np.complex128) if split else x

    def __call__(self, R) -> "Iterate | None":
        """The iterate at R, or None when R is not positive definite."""
        k = self.samples.k
        if R.shape != (k, k):
            raise InvalidInputError(
                f"dimension mismatch: scatter has shape {R.shape}, samples have K={k}"
            )
        L = chol_pd(R, "scatter")
        if L is None:
            return None
        Z = self.solve(L, self.xt)
        q = np.einsum("ij,ij->j", Z.conj(), Z).real
        if np.any(q <= 0.0):
            raise InvalidInputError("encountered a non-positive quadratic form")
        return Iterate(R, L, Z, q, self)


class Iterate:
    """One MM iterate R_t, with the samples whitened by its Cholesky factor.

    ``chol`` is the lower factor L of R = L L^H, ``whitened`` is
    Z = L^{-1} X^T (one column z_i per sample) and ``quad`` holds
    q_i = ||z_i||^2 = x_i^H R^{-1} x_i. The cost and the weighted scatter
    ``M`` are computed from these, ``M`` only when first read.
    """

    def __init__(self, R, chol, whitened, quad, whitening: _Whitening):
        self.R = R
        self.chol = chol
        self.whitened = whitened
        self.quad = quad
        self._whitening = whitening
        self._M = None

    @classmethod
    def at(cls, R, samples: SampleSet) -> "Iterate":
        """The iterate at a given scatter; InvalidInputError unless R is PD."""
        R = _prepare(R, samples)
        it = _Whitening(samples)(R)
        if it is None:
            raise InvalidInputError("scatter matrix is not positive definite")
        return it

    @property
    def ratio(self) -> float:
        """K / N."""
        return self._whitening.ratio

    @property
    def cost(self) -> float:
        """log det(R) + (K/N) * sum_i log q_i, evaluated by :func:`tyler_cost`."""
        return tyler_cost(self, self._whitening.samples)

    @property
    def M(self) -> np.ndarray:
        """Weighted scatter (K/N) * sum_i x_i x_i^H / q_i."""
        if self._M is None:
            w = self._whitening
            self._M = hermitize(w.ratio * ((w.xt / self.quad) @ w.xc))
        return self._M

    def solve(self, B) -> np.ndarray:
        """L^{-1} B, whitening the columns of B like the samples."""
        return self._whitening.solve(self.chol, B)

    def inverse(self) -> np.ndarray:
        """R^{-1} = L^{-H} L^{-1}."""
        L_inv = self.solve(np.eye(self.chol.shape[0], dtype=self.chol.dtype))
        return L_inv.conj().T @ L_inv


def tyler_cost(R, samples: SampleSet) -> float:
    """Scatter cost log det(R) + (K/N) * sum_i log(x_i^H R^{-1} x_i).

    Scale invariant: ``tyler_cost(c * R, samples)`` equals
    ``tyler_cost(R, samples)`` for any c > 0. ``R`` may also be the
    :class:`Iterate` of these samples at a scatter; its factor is then
    reused, which is how :func:`mm_drive` records the objective trace.
    """
    if not isinstance(R, Iterate):
        R = Iterate.at(R, samples)
    elif R._whitening.samples is not samples:
        raise InvalidInputError("iterate belongs to a different sample set")
    logdet = 2.0 * np.sum(np.log(np.diag(R.chol).real))
    return float(logdet + R.ratio * np.sum(np.log(R.quad)))


def weighted_scatter(R, samples: SampleSet) -> np.ndarray:
    """Weighted second-moment matrix (K/N) * sum_i x_i x_i^H / (x_i^H R^{-1} x_i)."""
    return Iterate.at(R, samples).M


def _rel_change(new, old) -> float:
    """||new - old|| / ||old||; for a tuple of blocks, the largest block's."""
    if isinstance(new, tuple):
        return max(_rel_change(n, o) for n, o in zip(new, old))
    denom = np.linalg.norm(old.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(new.ravel()))
    return float(np.linalg.norm((new - old).ravel()) / denom)


def _blockwise(f, *xs):
    """``f`` applied block by block to parameters that may be a tuple of blocks."""
    if isinstance(xs[0], tuple):
        return tuple(f(*blocks) for blocks in zip(*xs))
    return f(*xs)


def _norm(x) -> float:
    """The 2-norm of the parameters; of a tuple, of all its blocks' entries."""
    if isinstance(x, tuple):
        x = np.concatenate([block.ravel() for block in x])
    return np.linalg.norm(x.ravel())


def _any_point(trial, x2):
    """Default vetting of an extrapolated point: the PD check and the cost decide."""
    return trial


# SQUAREM step lengths: the first trial's alpha is at most -1; a rejected
# trial moves alpha halfway to -1, and past -1.2 the cycle takes x2 itself
_ALPHA_FALLBACK = -1.2


def mm_drive(
    inner,
    space,
    init_params,
    settings: MMSettings | None = None,
    extrapolate=_any_point,
) -> EstimatorResult:
    """Generic majorization-minimization loop shared by the structured estimators.

    The ``space`` turns parameters into iterates and hides how they are
    factored. In the full-K space each iterate R_t is factored once,
    R_t = L L^H; that factor is the positive-definiteness check, and one
    triangular solve Z = L^{-1} X^T gives the quadratic forms, the cost
    and the weighted scatter. A Kronecker space keeps the factor pair.

    The loop runs safeguarded SQUAREM-3 cycles (Varadhan & Roland, 2008)
    unless ``extrapolate`` is None. From x0, a cycle maps x1 = F(x0) and
    x2 = F(x1), with r = x1 - x0 and v = x2 - 2 x1 + x0, and tries
    x' = x0 - 2 alpha r + alpha^2 v from alpha = min(-|r|/|v|, -1). A
    trial is taken when it passes ``extrapolate``, is positive definite
    and its cost is at most x1's; otherwise alpha <- (alpha - 1) / 2, and
    past -1.2 the cycle takes x2. One map from the point taken ends the
    cycle. Every point taken is a monotone step of the recorded cost.
    Parameters that are a tuple of blocks, such as a Kronecker factor
    pair, are extrapolated block by block with one alpha; |r| and |v| are
    then the norms over the entries of all blocks.

    Parameters
    ----------
    inner : callable
        ``inner(params, it) -> params`` returning parameters that do not
        increase that structure's surrogate; one call is one MM map.
        ``it`` is the space's iterate at the current point. A full-K
        :class:`Iterate` offers ``it.R``, its factor ``it.chol``, the
        whitened samples ``it.whitened``, the quadratic forms ``it.quad``
        and the weighted scatter ``it.M`` (formed on first read).
        Exceptions raised by the callback propagate with the map's index
        attached as ``exc.mm_iteration``.
    space : object
        ``space.normalize(params) -> (params, x) | None`` scales the
        parameters to a unit-trace point x (None when the scale is lost,
        or when the space already finds the point infeasible);
        ``space(x) -> iterate | None`` builds the iterate at x (None when
        x is not positive definite), with its ``.cost`` and scatter ``.R``.
        A trial for which either returns None is rejected.
        Full-K fits pass ``_Whitening(samples, assemble, rescale)``:
        ``assemble(params) -> scatter`` defaults to the identity;
        ``rescale(params, c) -> params`` matches a scaling of the scatter
        by ``c`` for a structure that is not linear in its parameters,
        which by default are multiplied by ``c``.
    init_params : object
        Feasible starting parameters (the assembled scatter must be PD),
        in a form the space's ``normalize`` takes.
    extrapolate : callable or None, optional
        ``extrapolate(trial, x2) -> params | None`` vets extrapolated
        parameters before the space normalizes them and checks them PD:
        it may return adjusted parameters, or None to reject the trial.
        The default accepts every trial. None runs plain MM, for a
        structure that an affine combination of its members can leave.

    Returns
    -------
    EstimatorResult
        Converged when the relative parameter change of one map drops to
        ``settings.tol``; otherwise terminates after ``max_iter`` maps.
        ``iterations`` counts MM maps; the objective trace holds one cost
        per point taken, starting with the initial one. Without
        ``record_trace`` only the costs the safeguard compares are read:
        x1's before a trial, and each trial's. ``details`` holds
        ``squarem_cycles`` (cycles that formed a trial) and
        ``squarem_rejected`` (trials rejected).
    """
    settings = settings or MMSettings()

    start = space.normalize(init_params)
    if start is None:
        raise InvalidInputError("initial parameters give a scatter whose trace is not positive")
    params, x = start
    it = space(x)
    if it is None:
        raise InvalidInputError("initial scatter is not positive definite")

    objective = []
    t = 0
    cycles = rejected = 0

    def take(it_new, cost=None):
        """Record the cost of a point taken; returns it (None without a trace)."""
        if settings.record_trace:
            if cost is None:
                cost = it_new.cost
            objective.append(cost)
        return cost

    def mm_map(p, at):
        """x = F(p): (normalized params, point, relative change), not yet factored."""
        nonlocal t
        t += 1
        try:
            new_params = inner(p, at)
        except Exception as exc:
            exc.mm_iteration = t
            raise
        step = space.normalize(new_params)
        if step is None:
            raise FailedToConvergeError(
                "iterate lost a usable scale; samples may be degenerate", iteration=t
            )
        return step[0], step[1], _rel_change(step[0], p)

    def factor(x_new):
        it_new = space(x_new)
        if it_new is None:
            raise FailedToConvergeError(
                "iterate lost positive definiteness; samples may be degenerate",
                iteration=t,
            )
        return it_new

    def extrapolated(x0, x1, x2, bound):
        """(params, iterate, cost) of the first admissible trial, or None."""
        nonlocal cycles, rejected
        r = _blockwise(lambda b0, b1: b1 - b0, x0, x1)
        v = _blockwise(lambda b0, b1, b2: b2 - 2.0 * b1 + b0, x0, x1, x2)
        norm_v = _norm(v)
        alpha = min(-_norm(r) / norm_v, -1.0) if norm_v > 0.0 else -1.0
        if alpha <= _ALPHA_FALLBACK:
            cycles += 1  # a cycle counts once it forms a trial
        while alpha <= _ALPHA_FALLBACK:
            point = _blockwise(lambda b0, br, bv: b0 - 2.0 * alpha * br + alpha * alpha * bv,
                               x0, r, v)
            trial = extrapolate(point, x2)
            step = None if trial is None else space.normalize(trial)
            it_trial = None if step is None else space(step[1])
            if it_trial is not None:
                cost = it_trial.cost
                if cost <= bound:
                    return step[0], it_trial, cost
            rejected += 1
            alpha = 0.5 * (alpha - 1.0)
        return None

    def advance():
        """Map the current point, factor and record the result; True once converged."""
        nonlocal params, it, cost
        params, x_new, delta = mm_map(params, it)
        it = factor(x_new)
        cost = take(it)
        return delta <= settings.tol

    cost = take(it)
    converged = False
    while t < settings.max_iter and not converged:
        # x1 = F(x0), factored: its weights give x2. Without extrapolation
        # this is the whole loop body.
        x0 = params
        converged = advance()
        if converged or extrapolate is None or t == settings.max_iter:
            continue
        # x2 = F(x1), factored only when it is taken
        x2, point2, delta = mm_map(params, it)
        found = None
        if delta > settings.tol and t < settings.max_iter:
            # without a trace, x1's cost is read only here, as the bound
            bound = it.cost if cost is None else cost
            found = extrapolated(x0, params, x2, bound)
        if found is None:
            params, it = x2, factor(point2)
            cost = take(it)
            converged = delta <= settings.tol
        else:
            params, it, cost = found
            take(it, cost)
        # the stabilizing map from the point taken ends the cycle
        if not converged and t < settings.max_iter:
            converged = advance()

    return EstimatorResult(
        scatter=hermitize(it.R),
        params=params,
        objective_trace=np.asarray(objective, dtype=float),
        iterations=t,
        termination=TERMINATION_CONVERGED if converged else TERMINATION_MAX_ITER,
        details={"squarem_cycles": cycles, "squarem_rejected": rejected},
    )


def tyler_unconstrained(
    samples: SampleSet,
    settings: MMSettings | None = None,
    init=None,
) -> EstimatorResult:
    """Unconstrained Tyler's M-estimator by fixed-point iteration.

    Iterates R <- weighted_scatter(R, X) followed by trace
    normalization, which is a majorization-minimization scheme for the
    scatter cost and therefore descends monotonically.

    Parameters
    ----------
    samples : SampleSet
        Needs N > K and samples in general position.
    init : ndarray, optional
        Positive definite starting matrix; defaults to I/K. The fixed
        point is unique up to scale, so the result does not depend on
        this choice.
    """
    samples.require_oversampled()
    if init is None:
        init = np.eye(samples.k) / samples.k
    init = _prepare(init, samples)
    result = mm_drive(
        inner=lambda params, it: it.M,
        space=_Whitening(samples),
        init_params=init,
        settings=settings,
    )
    result.params = None
    return result


def fixed_point_residual(R, samples: SampleSet) -> float:
    """Relative residual || R - Phi(R) ||_F / ||R||_F of the defining fixed point.

    ``Phi`` is the weighted scatter followed by trace normalization.
    """
    it = Iterate.at(R, samples)
    M = it.M / np.trace(it.M).real
    Rn = it.R / np.trace(it.R).real
    return float(np.linalg.norm(Rn - M) / np.linalg.norm(Rn))
