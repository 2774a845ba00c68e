"""Spiked scatter estimation: R = sum_j p_j a_j a_j^H + sigma^2 I.

The directions are unknown but orthonormal and the spike count is
given. Each MM step minimizes log det(R) + Tr(R^{-1} M_t) over the
spiked set, whose global minimizer is closed-form in the
eigendecomposition of M_t: the top eigenvectors become the directions,
the noise variance is the mean of the trailing eigenvalues, and each
spike power is the corresponding eigenvalue minus the noise variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSpectrumWarning, InvalidInputError
from .linalg import hermitize, hermitian_eig
from .tyler import (
    EstimatorResult,
    MMSettings,
    SampleSet,
    _prepare,
    _Whitening,
    mm_drive,
)

_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SpikedModel:
    """Low-rank-plus-isotropic scatter with orthonormal spike directions."""

    directions: np.ndarray  # (K, L), orthonormal columns
    powers: np.ndarray      # (L,), nonnegative
    noise_var: float        # sigma^2 > 0
    degenerate: bool = False

    @property
    def k(self) -> int:
        return self.directions.shape[0]

    @property
    def l(self) -> int:
        return self.directions.shape[1]

    def assemble(self) -> np.ndarray:
        U = self.directions
        R = (U * self.powers) @ U.conj().T
        R = R + self.noise_var * np.eye(self.k, dtype=R.dtype)
        return hermitize(R)

    def scaled(self, c: float) -> "SpikedModel":
        return SpikedModel(
            directions=self.directions,
            powers=self.powers * c,
            noise_var=self.noise_var * c,
            degenerate=self.degenerate,
        )


def spiked_inner_update(M_t, n_spikes: int) -> SpikedModel:
    """Best spiked fit of M_t under log det(R) + Tr(R^{-1} M_t).

    A tie between the smallest retained and largest discarded eigenvalue
    makes the direction split non-unique; the model is then flagged
    ``degenerate`` and built from the eigensolver's deterministic
    ordering, and a DegenerateSpectrumWarning is emitted.
    """
    eig = hermitian_eig(M_t)
    lam = eig.values
    if not 1 <= n_spikes < len(lam):
        raise InvalidInputError(f"spike count must lie in [1, K-1], got {n_spikes}")
    if lam[-1] < -1e-12 * max(lam[0], 1.0):
        raise InvalidInputError("M_t must be positive semidefinite")
    noise_var = float(np.mean(lam[n_spikes:]))
    powers = np.maximum(lam[:n_spikes] - noise_var, 0.0)
    degenerate = (lam[n_spikes - 1] - lam[n_spikes]) <= _TIE_RTOL * max(lam[0], 1.0)
    if degenerate:
        warnings.warn(
            "eigenvalue tie at the spike split; the direction choice is arbitrary",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    return SpikedModel(
        directions=eig.vectors[:, :n_spikes].copy(),
        powers=powers,
        noise_var=noise_var,
        degenerate=degenerate,
    )


def estimate_spiked(
    samples: SampleSet,
    n_spikes: int,
    settings: MMSettings | None = None,
    init=None,
) -> EstimatorResult:
    """Tyler-type scatter estimation over the spiked covariance set.

    Returns a trace-one scatter whose trailing K - L eigenvalues are
    identical. ``details['model']`` holds the fitted SpikedModel and
    ``details['degenerate_spectrum']`` reports whether the last inner
    update hit an eigenvalue tie.
    """
    samples.require_oversampled()
    if not 1 <= n_spikes < samples.k:
        raise InvalidInputError(f"spike count must lie in [1, K-1], got {n_spikes}")

    last = {}

    def inner(params, it):
        last["model"] = spiked_inner_update(it.M, n_spikes)
        return last["model"].assemble()

    if init is None:
        init = np.eye(samples.k) / samples.k
    result = mm_drive(
        inner=inner,
        space=_Whitening(samples),
        init_params=_prepare(init, samples),
        settings=settings,
        # an affine combination of spiked matrices leaves the (non-convex) set
        extrapolate=None,
    )
    # the scatter is the last map's model scaled to unit trace, as mm_drive scales it
    model = last["model"]
    model = model.scaled(1.0 / float(np.trace(model.assemble()).real))
    result.params = np.concatenate([model.powers, [model.noise_var]])
    result.details["model"] = model
    result.details["degenerate_spectrum"] = model.degenerate
    return result


def project_spiked(R, n_spikes: int) -> np.ndarray:
    """Project a scatter matrix onto the spiked set (closed-form fit of R itself)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        model = spiked_inner_update(R, n_spikes)
    return model.assemble()
