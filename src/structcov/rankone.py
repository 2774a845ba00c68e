"""Scatter estimation for R = A diag(p) A^H with a known dictionary A.

The tangent of log det R and of each log q_i majorizes Tyler's cost at the
iterate R_t = R(p_t) by the paper's convex surrogate

    f(p) = Tr(R_t^{-1} R(p)) + Tr(M_t R(p)^{-1})
         = w^T p + Tr(M_t R(p)^{-1}),   w = diag(A^H R_t^{-1} A)

(plus a constant). Each map of a rank-one fit takes a capped primal-dual
interior-point solve of min f(p) s.t. p >= floor (S. J. Wright,
*Primal-Dual Interior-Point Methods*, SIAM 1997; :func:`_capped_solve`).
The barrier term diag(s/y) makes its Newton system definite where the
Hessian of f is singular, as it is for more atoms than the outer products
of K-vectors can span. The solve stops once it certifies a decrease of f,
so each map is a monotone MM step (the generalized EM principle), and
takes no more than 6 steps. A map whose solve does not lower f takes the
minimizer of the paper's second bound, which separates over the powers:
p_j = sqrt(d_j / w_j) with

    d = diag(P_t A^H R_t^{-1} M_t R_t^{-1} A P_t).

That separable step is the whole map of the circulant fits that
:mod:`structcov.toeplitz` runs here (:func:`_run`).

A fit that loses positive definiteness restarts once with every power
held at or above eps = 1e-10, which keeps every iterate strictly
positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .exceptions import (
    FailedToConvergeError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import _chol_inverse, as_field_array, chol_pd, hermitize
from .linear import _MAX_HALVINGS, PowerBound, _surrogate_pieces
from .tyler import (EstimatorResult, Iterate, MMSettings, SampleSet, _in_field, _Whitening,
                    mm_drive)

_EPS_RESTART = 1e-10
_POWER_FLOOR = 0.1  # an extrapolated power may fall to this fraction of x2's
_SPARK_SUBSETS = 8  # random K-column subsets whose rank a dictionary's check tests
_SOLVE_STEPS = 6  # interior-point steps of one rank-one map, at most
_TO_BOUNDARY = 0.995  # the fraction of the way to the boundary a step moves
_LIFT = 1e-6  # powers at the floor start this fraction of the largest power above it


def _clip_to_floor(trial, x2):
    """Vet an extrapolated trial by raising each power to at least 0.1 x2's."""
    return np.maximum(trial, _POWER_FLOOR * x2)


def _refuse_below_floor(trial, x2):
    """Vet an extrapolated trial by refusing it if any power is below 0.1 x2's."""
    return trial if np.all(trial >= _POWER_FLOOR * x2) else None


@dataclass(frozen=True)
class RankOneDictionary:
    """K x L matrix of atoms a_j; the scatter model is sum_j p_j a_j a_j^H.

    For the noise-free model the dictionary must be overcomplete (L > K)
    with every K columns linearly independent, which is checked on a few
    random column subsets. Dictionaries built with :meth:`augmented`
    carry appended identity columns and satisfy the requirement by
    construction, so the check is skipped.
    """

    atoms: np.ndarray
    augmented: bool = False

    def __post_init__(self):
        atoms = as_field_array(self.atoms, "dictionary")
        if atoms.ndim != 2:
            raise InvalidInputError("dictionary must be a 2-D array of atom columns")
        if np.any(np.linalg.norm(atoms, axis=0) == 0.0):
            raise InvalidInputError("dictionary contains a zero atom")
        object.__setattr__(self, "atoms", atoms)
        if not self.augmented:
            self._check_spark()

    def _check_spark(self):
        k, l = self.atoms.shape
        if l <= k:
            raise InvalidInputError(
                f"noise-free dictionaries need more atoms than dimensions (K={k}, L={l}); "
                "augment with identity columns for a noisy model"
            )
        rng = np.random.default_rng(20160714)
        for _ in range(_SPARK_SUBSETS):
            cols = rng.choice(l, size=k, replace=False)
            if np.linalg.matrix_rank(self.atoms[:, cols]) < k:
                raise InvalidInputError(
                    "a random subset of K atoms is linearly dependent"
                )

    @classmethod
    def augment(cls, atoms) -> "RankOneDictionary":
        """Append identity columns, modelling independent per-coordinate noise."""
        atoms = as_field_array(atoms, "dictionary")
        if atoms.ndim != 2:
            raise InvalidInputError("dictionary must be a 2-D array of atom columns")
        k = atoms.shape[0]
        eye = np.eye(k, dtype=atoms.dtype)
        return cls(atoms=np.concatenate([atoms, eye], axis=1), augmented=True)

    @property
    def k(self) -> int:
        return self.atoms.shape[0]

    @property
    def l(self) -> int:
        return self.atoms.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.atoms)

    def assemble(self, powers, epsilon: float = 0.0) -> np.ndarray:
        return _assemble(self.atoms, powers, epsilon)


def _assemble(atoms, powers, epsilon: float = 0.0) -> np.ndarray:
    """A diag(p + eps) A^H for an atom matrix A."""
    p = np.asarray(powers, dtype=float) + epsilon
    return hermitize((atoms * p) @ atoms.conj().T)


def check_powers(p, l: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (l,):
        raise InvalidInputError(f"power vector must have length {l}")
    if not np.all(np.isfinite(p) & (p >= 0.0)):
        raise InvalidInputError("powers must be finite and nonnegative")
    if not np.any(p > 0.0):
        raise InvalidInputError("powers must not all be zero")
    return p


def _weights(A, p_eff, it):
    """(w, d) of the separable surrogate for atoms A at effective powers p_eff.

    ``it`` is the :class:`~structcov.tyler.Iterate` at R_t = L L^H. With
    G = L^{-1} A, one triangular solve, and Y = Z^H G, one GEMM against the
    whitened samples Z = L^{-1} X^T, so that Y_ij = z_i^H g_j,

        w_j = ||g_j||^2 = a_j^H R_t^{-1} a_j,
        d_j = p_j^2 (K/N) sum_i |Y_ij|^2 / q_i = p_j^2 a_j^H R_t^{-1} M_t R_t^{-1} a_j,

    so neither R_t^{-1} nor M_t is formed. On a real iterate, a complex
    atom is weighed in real arithmetic as its two real columns
    [Re a_j, Im a_j], whose weights sum to a_j's.
    """
    split = np.iscomplexobj(A) and not np.iscomplexobj(it.chol)
    G = it.solve(np.ascontiguousarray(A).view(np.float64) if split else A)
    Y = it.whitened.conj().T @ G
    w = np.einsum("ij,ij->j", G.conj(), G).real
    d = (it.ratio / it.quad) @ (Y.real ** 2 + Y.imag ** 2 if np.iscomplexobj(Y) else Y ** 2)
    if split:
        w, d = w.reshape(-1, 2).sum(axis=1), d.reshape(-1, 2).sum(axis=1)
    return w, (p_eff ** 2) * d


def surrogate_params(dictionary: RankOneDictionary, p_t, samples: SampleSet):
    """Quantities of one MM step at powers ``p_t``: (R_t, M_t, w_t, d_t).

    R_t = A diag(p_t) A^H must be positive definite, which holds when
    p_t > 0 and the dictionary satisfies its rank condition; a singular
    R_t raises NumericalFailureError.
    """
    p_t = check_powers(p_t, dictionary.l)
    R_t = dictionary.assemble(p_t)
    try:
        it = Iterate.at(R_t, samples)
    except InvalidInputError as exc:
        raise NumericalFailureError(
            "iterate scatter is singular; the dictionary may violate its rank condition"
        ) from exc
    w, d = _weights(dictionary.atoms, p_t, it)
    return R_t, it.M, w, d


def power_update(w_t, d_t) -> np.ndarray:
    """Closed-form surrogate minimizer p_j = sqrt(d_j / w_j), with 0 at d_j = 0.

    The weights are trusted: :func:`_weights` builds w > 0 and d >= 0.
    """
    return np.sqrt(np.divide(d_t, w_t))


def estimate_rank_one(
    dictionary: RankOneDictionary,
    samples: SampleSet,
    settings: MMSettings | None = None,
    init_powers=None,
) -> EstimatorResult:
    """Tyler-type scatter estimation over R = A diag(p) A^H, p >= 0.

    Each map is the capped interior-point solve of the paper's convex
    surrogate (:func:`_capped_solve`), or its separable point where that
    solve does not lower the surrogate. A SQUAREM trial is clipped to 0.1
    x2 per power (:func:`_clip_to_floor`): the many decaying powers of an
    overcomplete dictionary leave a refused trial no room to move.

    Parameters
    ----------
    init_powers : ndarray, optional
        Strictly positive starting powers; defaults to all ones. The
        final scatter is empirically insensitive to this choice.

    Returns
    -------
    EstimatorResult
        ``params`` holds the power vector of the returned trace-one
        scatter, ``dictionary.assemble(params, details['epsilon'])``;
        the ridge is 0, or 1e-10 after a restart (see :func:`_restarting`).
        ``details['inner_steps']`` counts the interior-point steps of the
        fit and ``details['newton_fallbacks']`` the maps that took the
        separable point. Real samples on a complex dictionary fit as
        complex samples.
    """
    if samples.is_complex and not dictionary.is_complex:
        raise InvalidInputError("complex samples require a complex dictionary")
    samples = _in_field(samples, dictionary.atoms)
    samples.require_oversampled()
    if dictionary.k != samples.k:
        raise InvalidInputError(
            f"dictionary dimension {dictionary.k} does not match samples K={samples.k}"
        )
    if init_powers is None:
        init_powers = np.ones(dictionary.l)
    init_powers = check_powers(init_powers, dictionary.l)
    if not np.all(init_powers > 0.0):  # the step would keep a zero power at zero
        raise InvalidInputError("starting powers must be strictly positive")

    atoms = dictionary.atoms
    factors, blocks, assemble = _field_columns(atoms, samples)
    space = _Whitening(samples, assemble)

    def fit(init, floor):
        bound = PowerBound(floor=floor, separable=power_update, factors=factors, blocks=blocks)
        tally = {"inner_steps": 0, "newton_fallbacks": 0}
        result = mm_drive(
            inner=lambda q, it: _capped_solve(atoms, bound, assemble, tally, q, it),
            space=space,
            init_params=init,
            settings=settings,
            extrapolate=_clip_to_floor,
        )
        result.details.update(tally)
        return result

    return _restarting(fit, init_powers)


def _capped_solve(atoms, bound: PowerBound, assemble, tally, q, it) -> np.ndarray:
    """One rank-one map: a capped primal-dual solve of min f(p) s.t. p >= floor.

    f(p) = w^T p + Tr(M_t R(p)^{-1}) is the surrogate at the iterate ``it``
    of powers ``q``, with w = diag(A^H R_t^{-1} A) the iterate's weights.
    Its gradient is g = w - u, u_j = a_j^H W M_t W a_j at W = R(p)^{-1}, and
    its Hessian 2 Re(X o conj Y); :func:`structcov.linear._surrogate_pieces`
    forms u, the Hessian and Tr(M_t W) from ``bound``'s factors, the atoms
    (or for real samples their float view and its pair ``blocks``).

    With y = p - floor and slacks s, the solve starts at p = q with
    s = max(g, 1e-6 |f(q)| / (L y)). Each step solves
    (H + diag(s/y)) dp = -g + sigma mu / y, mu = y^T s / L, sets
    ds = sigma mu / y - s - (s/y) dp, and moves both 0.995 of the way to
    the boundary, at most a full step, halving it while R(p) has no
    Cholesky factor; sigma is 0.1, or 0.01 after a step of length >= 0.9.
    Powers at or below the floor, as a restart's normalized iterate may
    hold, start the solve at y lifted to max(y, 1e-6 max(y)) instead.
    The solve stops once y^T s and ||g - s||_inf sum(y), which bound what
    f can still fall, are both at most 0.1 (f(q) - f(p)) or
    1e-12 (1 + |f(q)|), or after 6 steps; a Newton matrix without a
    Cholesky factor, or a step that halves 60 times, ends it too. It
    returns p when f(p) <= f(q), so the map is a monotone MM step, and
    otherwise the separable point max(sqrt(d/w), floor), which
    :func:`power_update` forms from :func:`_weights`; so does a solve from
    q that ended before its first step uncertified, and a map from powers
    that are all at the floor. ``tally`` counts the fit's steps and those
    fallbacks.
    """
    floor, M = bound.floor, it.M
    value, w, u, hessian = _surrogate_pieces(None, it.inverse(), M, 0.0, bound=bound)
    k, n_powers = M.shape[0], q.size
    f_t = f = float(w @ q) + value - k
    p, y = q, q - floor
    if y.min() <= 0.0 < y.max():
        # powers at the floor start just inside it, where R(p) >= R(q) is PD
        lifted = np.maximum(y, _LIFT * y.max())
        chol = chol_pd(assemble(floor + lifted))
        if chol is not None:
            p, y = floor + lifted, lifted
            value, _, u, hessian = _surrogate_pieces(None, _chol_inverse(chol), M, 0.0, bound=bound)
            f = float(w @ p) + value - k
    if y.min() > 0.0:
        g, H = w - u, hessian(0.0)
        s = np.maximum(g, 1e-6 * abs(f_t) / (n_powers * y))
        sigma = 0.1
        for _ in range(_SOLVE_STEPS):
            gap, residual = float(y @ s), float(np.abs(g - s).max() * y.sum())
            certified = max(gap, residual) <= max(0.1 * (f_t - f), 1e-12 * (1.0 + abs(f_t)))
            if certified:
                break
            factor = chol_pd(H + np.diag(s / y))
            if factor is None:
                break
            target = sigma * gap / n_powers / y
            dp = lapack.dpotrs(factor, target - g, lower=1)[0]
            ds = target - s - s / y * dp
            shrink = max(-(dp / y).min(), -(ds / s).min())
            t = min(1.0, _TO_BOUNDARY / shrink) if shrink > 0.0 else 1.0
            for _ in range(_MAX_HALVINGS):
                y_trial = y + t * dp
                chol = chol_pd(assemble(floor + y_trial))
                if chol is not None:
                    break
                t *= 0.5
            else:
                break
            tally["inner_steps"] += 1
            value, _, u, hessian = _surrogate_pieces(None, _chol_inverse(chol), M, 0.0, bound=bound)
            p, y, s = floor + y_trial, y_trial, s + t * ds
            f, g, H = float(w @ p) + value - k, w - u, hessian(0.0)
            sigma = 0.01 if t >= 0.9 else 0.1
        # a solve that roundoff stopped before its first step has not lowered f
        if f <= f_t and (certified or p is not q):
            return p
    tally["newton_fallbacks"] += 1
    return np.maximum(power_update(*_weights(atoms, q, it)), floor)


def _field_columns(atoms, samples: SampleSet):
    """(columns, blocks, assemble) of a fit's atoms in the field of its samples.

    A real fit on complex atoms puts each power on the two real columns
    [Re a_j, Im a_j] of their float view, and ``blocks`` is the (2L) x L
    indicator of each atom's pair (None for a fit in the atoms' field);
    ``assemble(q)`` is the fit's scatter sum_j q_j a_j a_j^H, real in the
    real fit.
    """
    split = np.iscomplexobj(atoms) and not samples.is_complex
    columns = np.ascontiguousarray(atoms).view(np.float64) if split else atoms
    columns_h = columns.conj().T

    def assemble(q):
        return hermitize((columns * (np.repeat(q, 2) if split else q)) @ columns_h)

    blocks = np.repeat(np.eye(atoms.shape[1]), 2, axis=0) if split else None
    return columns, blocks, assemble


def _run(atoms, samples, settings, init_powers, solve, vet, ridge=1.0) -> EstimatorResult:
    """MM over R = A diag(p) A^H with the paper's separable step p <- solve(w, d).

    ``solve`` maps the surrogate weights (w, d) to the minimizing powers.
    The circulant fits that the bounded Newton step of
    :func:`structcov.linear.inner_update` does not run take this step:
    banded fits, and fits with L > 2K - 1, whose atoms' outer products are
    dependent. The same point is the fallback of that Newton step and of
    a rank-one map's interior-point solve (:func:`_capped_solve`).
    The run restarts once with a ridge (:func:`_restarting`); the step then
    keeps q <- max(solve(w, d), eps), and R = A diag(q) A^H stays linear
    in q and positive definite.

    Real samples on a complex dictionary fit the real scatter
    R = Re(A diag(p) A^H) = sum_j p_j (Re a_j Re a_j^T + Im a_j Im a_j^T),
    assembled from the float view of A (:func:`_field_columns`);
    :func:`_weights` weighs it in real arithmetic.

    ``mm_drive`` extrapolates the powers; ``vet`` is its ``extrapolate``.
    Circulant fits refuse a trial with a power below 0.1 x2's
    (:func:`_refuse_below_floor`): a clip, which rank-one fits take
    (:func:`_clip_to_floor`), breaks the banded equality constraints,
    which an affine combination of feasible powers keeps, and saved
    Toeplitz fits no maps.
    """
    assemble = _field_columns(atoms, samples)[2]

    def fit(init, floor):
        return mm_drive(
            inner=lambda q, it: np.maximum(solve(*_weights(atoms, q, it)), floor),
            space=_Whitening(samples, assemble),
            init_params=init,
            settings=settings,
            extrapolate=vet,
        )

    return _restarting(fit, init_powers, ridge)


def _restarting(fit, init_powers, ridge=1.0) -> EstimatorResult:
    """``fit(init, floor)`` from ``init_powers``, restarted once with a ridge should it fail.

    If the run fails to converge (an iterate loses positive definiteness,
    or its scale when every power collapses to zero), it restarts once from
    ``init_powers`` in the effective powers q = p + eps, eps = 1e-10 * ridge,
    held at or above eps. The fit reports p = max(q - eps, 0), and
    ``details['epsilon']`` records the ridge used, 0 or 1e-10. ``ridge``
    scales the ridge per atom, for a dictionary whose identity spectrum is
    not all ones.
    """

    def run(eps):
        floor = eps * ridge
        result = fit(init_powers + floor, floor)
        result.params = np.maximum(result.params - floor, 0.0)
        result.details["epsilon"] = eps
        return result

    try:
        return run(0.0)
    except FailedToConvergeError:
        return run(_EPS_RESTART)
