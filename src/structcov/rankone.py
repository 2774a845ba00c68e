"""Scatter estimation for R = A diag(p) A^H with a known dictionary A.

The MM surrogate separates over the nonnegative powers p, so each outer
iteration has the closed-form update p_j = sqrt(d_j / w_j) with

    w = diag(A^H R_t^{-1} A),
    d = diag(P_t A^H R_t^{-1} M_t R_t^{-1} A P_t).

An optional small ridge ``epsilon`` replaces diag(p) by diag(p) + eps*I
inside R, which keeps every iterate strictly positive definite; the
estimate is practically unchanged for tiny eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    FailedToConvergeError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import as_field_array, hermitize
from .tyler import EstimatorResult, Iterate, MMSettings, SampleSet, _Whitening, mm_drive

_EPS_RESTART = 1e-10
_POWER_FLOOR = 0.1  # an extrapolated power may fall to this fraction of x2's
_SPARK_SUBSETS = 8  # random K-column subsets whose rank a dictionary's check tests


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
    if np.any(p < 0.0):
        raise InvalidInputError("powers must be nonnegative")
    if not np.any(p > 0.0):
        raise InvalidInputError("powers must not all be zero")
    return p


def _weights(A, p_eff, it):
    """(w, d) of the separable surrogate for atoms A at effective powers p_eff.

    ``it`` is the :class:`~structcov.tyler.Iterate` at R_t = L L^H. With
    G = L^{-1} A, one triangular solve, and the whitened weighted scatter
    S = L^{-1} M_t L^{-H} = (K/N) sum_i z_i z_i^H / q_i,

        w_j = ||g_j||^2 = a_j^H R_t^{-1} a_j,
        d_j = p_j^2 g_j^H S g_j = p_j^2 a_j^H R_t^{-1} M_t R_t^{-1} a_j,

    so neither R_t^{-1} nor M_t is formed.
    """
    G = it.solve(A)
    Z = it.whitened
    S = (Z * (it.ratio / it.quad)) @ Z.conj().T
    w = np.einsum("ij,ij->j", G.conj(), G).real
    d = (p_eff ** 2) * np.einsum("ij,ij->j", G.conj(), S @ G).real
    return w, np.maximum(d, 0.0)  # S is PSD; clip roundoff below zero


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


def _match_field(dictionary: RankOneDictionary, samples: SampleSet) -> SampleSet:
    if dictionary.is_complex and not samples.is_complex:
        return samples.to_complex()
    if samples.is_complex and not dictionary.is_complex:
        raise InvalidInputError("complex samples require a complex dictionary")
    return samples


def estimate_rank_one(
    dictionary: RankOneDictionary,
    samples: SampleSet,
    settings: MMSettings | None = None,
    epsilon: float = 0.0,
    init_powers=None,
) -> EstimatorResult:
    """Tyler-type scatter estimation over R = A diag(p) A^H, p >= 0.

    Parameters
    ----------
    epsilon : float
        Optional ridge added to every power inside the model (default 0).
        If an iterate loses positive definiteness with epsilon = 0, the
        run restarts once with epsilon = 1e-10.
    init_powers : ndarray, optional
        Strictly positive starting powers; defaults to all ones. The
        final scatter is empirically insensitive to this choice.

    Returns
    -------
    EstimatorResult
        ``params`` holds the power vector of the returned trace-one
        scatter; ``details['epsilon']`` records the ridge actually used.
    """
    samples = _match_field(dictionary, samples)
    samples.require_oversampled()
    if dictionary.k != samples.k:
        raise InvalidInputError(
            f"dictionary dimension {dictionary.k} does not match samples K={samples.k}"
        )
    if init_powers is None:
        init_powers = np.ones(dictionary.l)
    else:
        init_powers = check_powers(init_powers, dictionary.l)

    return _run(
        dictionary.atoms, samples, settings, epsilon, init_powers, power_update, _clip_to_floor
    )


def _run(atoms, samples, settings, epsilon, init_powers, solve, vet, ridge=1.0) -> EstimatorResult:
    """MM over R = A diag(p + eps) A^H with the inner step p <- max(solve(w, d) - eps, 0).

    ``solve`` maps the surrogate weights (w, d) to the minimizing
    effective powers. If the run fails to converge with epsilon = 0 (an
    iterate loses positive definiteness or every power collapses), it
    restarts once with epsilon = 1e-10; ``details['epsilon']`` records
    the ridge used. ``ridge`` scales the ridge per atom, eps = epsilon *
    ridge, for a dictionary whose identity spectrum is not all ones.

    Real samples on a complex dictionary fit the real scatter
    R = Re(A diag(p) A^H) = sum_j p_j (Re a_j Re a_j^T + Im a_j Im a_j^T).
    Its surrogate weights are the same w_j = ||L^{-1} a_j||^2 and
    d_j = p_j^2 Re(g_j^H S g_j), and S is real.

    ``mm_drive`` extrapolates the powers; ``vet`` is its ``extrapolate``.
    Rank-one fits clip a trial to 0.1 x2 per power (:func:`_clip_to_floor`):
    their many decaying powers leave a refused trial no room to move.
    Circulant fits refuse it (:func:`_refuse_below_floor`): a clip breaks
    the banded equality constraints, which an affine combination of
    feasible powers keeps, and saved Toeplitz fits no maps.
    """
    if epsilon < 0.0:
        raise InvalidInputError("epsilon must be nonnegative")
    # a real fit on complex atoms weighs each power on the two real columns
    # [Re a_j, Im a_j] of their float view
    split = np.iscomplexobj(atoms) and not samples.is_complex
    columns = np.ascontiguousarray(atoms).view(np.float64) if split else atoms

    def run(eps):
        ridged = eps * ridge

        def inner(p, it):
            w, d = _weights(atoms, np.asarray(p, dtype=float) + ridged, it)
            p_new = np.maximum(solve(w, d) - ridged, 0.0)
            if not np.any(p_new > 0.0):
                raise FailedToConvergeError("all powers collapsed to zero")
            return p_new

        # with a ridge, scaling R by c maps p to (p + eps) c - eps, clipped at 0
        rescale = (
            None if eps == 0.0 else lambda p, c: np.maximum((p + ridged) * c - ridged, 0.0)
        )
        result = mm_drive(
            inner=inner,
            space=_Whitening(
                samples,
                assemble=lambda p: _assemble(columns, np.repeat(p + ridged, 1 + split)),
                rescale=rescale,
            ),
            init_params=init_powers,
            settings=settings,
            extrapolate=vet,
        )
        result.details["epsilon"] = eps
        return result

    try:
        return run(epsilon)
    except FailedToConvergeError:
        if epsilon > 0.0:
            raise
        return run(_EPS_RESTART)
