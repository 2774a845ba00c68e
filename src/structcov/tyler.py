"""Tyler's scatter cost, the weighted-scatter operator, and the MM driver.

The cost being minimized throughout the package is

    L(R) = log det(R) + (K/N) * sum_i log(x_i^H R^{-1} x_i),

which is scale invariant in R and in each sample, so every estimator
reports a trace-normalized scatter matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .exceptions import FailedToConvergeError, InvalidInputError, NumericalFailureError
from .linalg import (_chol_inverse, _chol_logdet, _spans, as_field_array, check_hermitian,
                     chol_pd, hermitize)

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
        if not data.any(axis=1).all():
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
        """The samples as complex; real ones are cast once and the cast is kept."""
        return self if self.is_complex else self._as_complex

    @cached_property
    def _as_complex(self) -> "SampleSet":
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


def _in_field(samples: SampleSet, operand) -> SampleSet:
    """The samples in the field of a scatter, dictionary or basis: complex when it is."""
    return samples.to_complex() if np.iscomplexobj(operand) else samples


def _unit_rows(X):
    """(X', shortfall): each row of X scaled by 2^-e, e the exponent of its largest entry.

    e = 0 for a row whose largest entry lies in [2^-64, 2^64], so in-range
    samples pass unchanged. Powers of two scale exactly: the weighted
    scatter stays, and the cost of the N x K samples X' falls short of X's
    by (K/N) sum_i 2 e_i log 2.
    """
    parts = np.ascontiguousarray(X).view(np.float64)
    top = np.abs(parts).max(axis=1)
    if 2.0 ** -64 <= top.min() and top.max() <= 2.0 ** 64:
        return X, 0.0
    e = np.frexp(top)[1]
    e[(top >= 2.0 ** -64) & (top <= 2.0 ** 64)] = 0
    shortfall = X.shape[1] / X.shape[0] * 2.0 * math.log(2.0) * float(e.sum())
    return np.ldexp(parts, -e[:, None]).view(X.dtype), shortfall


def _prepare(R, samples: SampleSet):
    """A user's scatter and the samples, finite, square, Hermitian and in one field."""
    R = check_hermitian(R, "scatter")
    if R.shape[0] != samples.k:
        raise InvalidInputError(
            f"dimension mismatch: scatter is {R.shape[0]}x{R.shape[0]}, samples have K={samples.k}"
        )
    samples = _in_field(samples, R)
    return R.astype(samples.data.dtype, copy=False), samples


class _Whitening:
    """The full-K space of one fit: the samples, the structure and the triangular solver.

    :meth:`normalize` scales parameters to a unit-trace scatter, and
    calling the space at a scatter factors it into an :class:`Iterate`.
    The LAPACK ``trtrs`` routine is looked up once, for the field of the
    samples, which the fit has fixed at its boundary (:func:`_in_field`).
    It holds the samples as :func:`_unit_rows` scales them, and their cost's shortfall.
    :attr:`spans` says, once per fit, whether every weighted scatter is
    positive definite.
    """

    def __init__(self, samples: SampleSet, assemble=None):
        X, self.log_scale = _unit_rows(samples.data)
        self.samples = samples
        self.xt = X.T
        self.xc = X.conj()
        self.ratio = samples.k / samples.n
        self.assemble = assemble if assemble is not None else lambda p: p
        (self.trtrs,) = get_lapack_funcs(("trtrs",), (X,))

    @cached_property
    def spans(self) -> bool:
        """Whether the samples span the space, so that every weighted scatter M_t is PD."""
        return _spans(self.xt)

    def normalize(self, params):
        """(params, R) of the scatter assemble(params) scaled to unit trace.

        None when that trace is not finite and positive. The scatter is
        linear in the parameters, so scaling both by c = 1 / trace is exact.
        """
        params = np.asarray(params)
        R = self.assemble(params)
        tr = float(R.trace().real)
        if not math.isfinite(tr) or tr <= 0.0:
            return None
        c = 1.0 / tr
        return params * c, c * R

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
        Z, info = self.trtrs(L, self.xt, lower=1)  # the whitened samples L^{-1} X^T
        if info != 0:
            raise NumericalFailureError("triangular solve failed", info=int(info))
        q = np.einsum("ij,ij->j", Z.conj(), Z).real
        if not 0.0 < q.min() <= q.max() < np.inf:
            raise InvalidInputError("encountered a non-positive or non-finite quadratic form")
        return Iterate(R, L, q, self)


class Iterate:
    """One MM iterate R_t, with the samples whitened by its Cholesky factor.

    ``chol`` is the lower factor L of R = L L^H and ``quad`` holds
    q_i = ||z_i||^2 = x_i^H R^{-1} x_i, z_i = L^{-1} x_i, of the samples as
    :func:`_unit_rows` scales them. The cost and the weighted scatter ``M``
    are computed from these, ``M`` only when first read.
    """

    def __init__(self, R, chol, quad, whitening: _Whitening):
        self.R = R
        self.chol = chol
        self.quad = quad
        self._whitening = whitening
        self._M = None

    @classmethod
    def at(cls, R, samples: SampleSet) -> "Iterate":
        """The iterate at a given scatter; InvalidInputError unless R is PD."""
        R, samples = _prepare(R, samples)
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

    def inverse(self) -> np.ndarray:
        """R^{-1}, from the factor L."""
        return _chol_inverse(self.chol)


def tyler_cost(R, samples: SampleSet) -> float:
    """Scatter cost log det(R) + (K/N) * sum_i log(x_i^H R^{-1} x_i).

    Scale invariant: ``tyler_cost(c * R, samples)`` equals
    ``tyler_cost(R, samples)`` for any c > 0. ``R`` may also be the
    :class:`Iterate` of these samples, in R's field; its factor is then
    reused, which is how :func:`mm_drive` records the objective trace.
    """
    if not isinstance(R, Iterate):
        R = Iterate.at(R, samples)
    elif R._whitening.samples is not _in_field(samples, R.R):
        raise InvalidInputError("iterate belongs to a different sample set")
    return float(_chol_logdet(R.chol) + R.ratio * np.log(R.quad).sum() + R._whitening.log_scale)


def weighted_scatter(R, samples: SampleSet) -> np.ndarray:
    """Weighted second-moment matrix (K/N) * sum_i x_i x_i^H / (x_i^H R^{-1} x_i)."""
    return Iterate.at(R, samples).M


def _l2(x) -> float:
    """The 2-norm of the entries of x, summed as ``np.linalg.norm`` sums them."""
    x = x.ravel()
    if np.iscomplexobj(x):
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _rel_change(new, old) -> float:
    """||new - old|| / ||old||, over all entries; ``old`` is a unit-trace point or factor."""
    return _l2(new - old) / _l2(old)


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
    and the weighted scatter. The Kronecker space keeps a Cholesky factor of each factor.

    The loop runs safeguarded SQUAREM-3 cycles (Varadhan & Roland, 2008)
    unless ``extrapolate`` is None. From x0, a cycle maps x1 = F(x0) and
    x2 = F(x1), with r = x1 - x0 and v = x2 - 2 x1 + x0, and tries
    x' = x0 - 2 alpha r + alpha^2 v from alpha = min(-|r|/|v|, -1). A
    trial is taken when it passes ``extrapolate``, is positive definite
    and its cost is at most x1's; otherwise alpha <- (alpha - 1) / 2, and
    past -1.2 the cycle takes x2. One map from the point taken ends the
    cycle. Every point taken is a monotone step of the recorded cost.
    The parameters are one ndarray, so r, v and the trial are array
    arithmetic and |r|, |v| are 2-norms over all entries. A space whose
    point is more than one array flattens it: the Kronecker space's
    parameters are [vec A; vec B], which its ``normalize`` splits.

    Parameters
    ----------
    inner : callable
        ``inner(params, it) -> params`` returning parameters that do not
        increase that structure's surrogate; one call is one MM map.
        ``it`` is the space's iterate at the current point. A full-K
        :class:`Iterate` offers ``it.R``, its factor ``it.chol``, the
        quadratic forms ``it.quad``, the weighted scatter ``it.M`` (formed
        on first read) and ``it.inverse()``.
        Exceptions raised by the callback propagate with the map's index
        attached as ``exc.mm_iteration``.
    space : object
        ``space.normalize(params) -> (params, x) | None`` scales the
        parameters to a unit-trace point x (None when the scale is lost);
        ``space(x) -> iterate | None`` checks x and builds the iterate at
        x (None when x is not positive definite), with its ``.cost`` and
        scatter ``.R``.
        A trial for which either returns None is rejected.
        Full-K fits pass ``_Whitening(samples, assemble)``:
        ``assemble(params) -> scatter`` is linear and defaults to the
        identity, so a scaling of the scatter by c scales the parameters
        by c.
    init_params : ndarray
        Feasible starting parameters (the assembled scatter must be PD).
    extrapolate : callable or None, optional
        ``extrapolate(trial, x2) -> params | None`` vets extrapolated
        parameters before the space normalizes them and checks them PD:
        it may return adjusted parameters, or None to reject the trial.
        The default accepts every trial. None runs plain MM; no
        estimator passes it, and tests use it as the reference that
        extrapolation must beat.

    Returns
    -------
    EstimatorResult
        Converged when the relative change of the parameters over one map,
        over all their entries, drops to ``settings.tol``; otherwise
        terminates after ``max_iter`` maps.
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
        r = x1 - x0
        v = x2 - 2.0 * x1 + x0
        norm_v = _l2(v)
        alpha = min(-_l2(r) / norm_v, -1.0) if norm_v > 0.0 else -1.0
        if alpha <= _ALPHA_FALLBACK:
            cycles += 1  # a cycle counts once it forms a trial
        while alpha <= _ALPHA_FALLBACK:
            trial = extrapolate(x0 - 2.0 * alpha * r + alpha * alpha * v, x2)
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
        this choice, but a complex start makes real samples complex.
    """
    samples.require_oversampled()
    if init is None:
        init = np.eye(samples.k) / samples.k
    init, samples = _prepare(init, samples)
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
