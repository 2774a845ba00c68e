"""Synthetic data generation, error metrics, and the MUSIC pipeline.

Samples follow the compound-Gaussian model x = sqrt(tau) * u with
u ~ N(0, R0) (circular complex normal for complex R0) and tau an
independent chi-square texture per sample. The Gaussian draws and the
texture draws come from separate child streams of the seed, so two
texture laws on the same seed share Gaussian parts exactly; any
estimator built on normalized samples is provably insensitive to the
texture law, and tests exercise that equivalence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSpectrumWarning, InvalidInputError
from .linalg import check_hermitian, hermitize, hermitian_eig
from .tyler import SampleSet

# ---------------------------------------------------------------------------
# truth construction
# ---------------------------------------------------------------------------

def ar_cov(k: int, beta: float) -> np.ndarray:
    """Toeplitz matrix with entries beta^|i-j| (AR(1)-type correlation)."""
    if not -1.0 < beta < 1.0:
        raise InvalidInputError("beta must lie in (-1, 1)")
    idx = np.arange(k)
    return beta ** np.abs(np.subtract.outer(idx, idx))


def banded_ar_cov(k: int, beta: float, bandwidth: int) -> np.ndarray:
    """AR(1) correlation matrix with entries zeroed beyond ``bandwidth``."""
    R = ar_cov(k, beta)
    mask = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) <= bandwidth
    R = R * mask
    if np.linalg.eigvalsh(R)[0] <= 0.0:
        raise InvalidInputError(
            f"banding R({beta}) at bandwidth {bandwidth} is not positive definite"
        )
    return R


def steering_vector(k: int, angle_deg) -> np.ndarray:
    """Response of a K-element half-wavelength uniform linear array.

    For a 1-D array of angles, one response column per angle.
    """
    theta = np.deg2rad(angle_deg)
    return np.exp(np.multiply.outer(-1j * np.pi * np.arange(k), np.sin(theta)))


def ula_dictionary(k: int, step_deg: float) -> np.ndarray:
    """Steering atoms on the angle grid :func:`default_music_grid` of ``step_deg``."""
    return steering_vector(k, default_music_grid(step_deg))


def doa_cov(k: int, angles_deg, powers, noise_var: float) -> np.ndarray:
    """Array covariance of uncorrelated far-field sources in white noise."""
    angles_deg = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    if powers.shape != angles_deg.shape:
        raise InvalidInputError("one power per source angle is required")
    if noise_var <= 0:
        raise InvalidInputError("noise variance must be positive")
    R = noise_var * np.eye(k, dtype=complex)
    for a, p in zip(angles_deg, powers):
        v = steering_vector(k, a)
        R += p * np.outer(v, v.conj())
    return hermitize(R)


def spiked_cov(
    k: int,
    n_spikes: int,
    noise_var: float,
    power_range=(0.01, 1.0),
    rng=None,
) -> np.ndarray:
    """Random orthonormal spikes over an isotropic floor."""
    rng = np.random.default_rng(rng)
    if not 1 <= n_spikes < k:
        raise InvalidInputError("spike count must lie in [1, K-1]")
    Q, _ = np.linalg.qr(rng.standard_normal((k, n_spikes)))
    powers = rng.uniform(power_range[0], power_range[1], size=n_spikes)
    R = (Q * powers) @ Q.T + noise_var * np.eye(k)
    return hermitize(R)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_elliptical(R0, n: int, seed, tau_dof: float | None = 1.0) -> SampleSet:
    """Draw N heavy-tailed elliptical samples with scatter proportional to R0.

    Parameters
    ----------
    R0 : ndarray
        Positive definite scatter (real or complex Hermitian).
    seed : int or numpy.random.SeedSequence
        Source of randomness; fixed seed gives identical output.
    tau_dof : float or None
        Degrees of freedom of the chi-square texture. None disables the
        texture (plain Gaussian samples).
    """
    R0 = check_hermitian(R0, "R0")
    if n < 1:
        raise InvalidInputError("need at least one sample")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gauss_ss, tau_ss = ss.spawn(2)
    gauss_rng = np.random.default_rng(gauss_ss)
    k = R0.shape[0]
    try:
        L = np.linalg.cholesky(R0)
    except np.linalg.LinAlgError:
        raise InvalidInputError("R0 must be positive definite") from None
    # rows are samples: x = L v stored as a row means u = v_rows @ L.T
    if np.iscomplexobj(R0):
        z = gauss_rng.standard_normal((n, k)) + 1j * gauss_rng.standard_normal((n, k))
        u = (z / np.sqrt(2.0)) @ L.T
    else:
        u = gauss_rng.standard_normal((n, k)) @ L.T
    if tau_dof is not None:
        if tau_dof <= 0:
            raise InvalidInputError("tau_dof must be positive")
        tau = np.random.default_rng(tau_ss).chisquare(tau_dof, size=n)
        u = u * np.sqrt(tau)[:, None]
    return SampleSet.from_array(u)


def sample_cov(samples: SampleSet) -> np.ndarray:
    """Sample covariance about the known zero mean: (1/N) sum_i x_i x_i^H."""
    X = samples.data
    return hermitize((X.T @ X.conj()) / samples.n)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _trace_normalize(R) -> np.ndarray:
    R = np.asarray(R)
    tr = np.trace(R).real
    if tr <= 0:
        raise InvalidInputError("matrix has non-positive trace")
    return R / tr


def nmse(estimates, R0) -> float:
    """Mean of ||R_hat - R0||_F^2 / ||R0||_F^2 over trace-normalized matrices."""
    estimates = list(estimates)
    if not estimates:
        raise InvalidInputError("need at least one estimate")
    R0n = _trace_normalize(R0)
    denom = np.linalg.norm(R0n) ** 2
    errors = [np.linalg.norm(_trace_normalize(R) - R0n) ** 2 / denom for R in estimates]
    return float(np.mean(errors))


def _noise_projector(R, signal_dim: int):
    eig = hermitian_eig(R)
    k = R.shape[0]
    gap = eig.values[signal_dim - 1] - eig.values[signal_dim]
    tied = gap <= 1e-12 * max(eig.values[0], 1.0)
    E = eig.vectors[:, signal_dim:]
    return E @ E.conj().T, tied


def subspace_error(R_hat, R0, signal_dim: int) -> float:
    """Frobenius distance between the noise-subspace projectors of two scatters.

    Bounded by sqrt(2 * signal_dim). An eigenvalue tie at the split
    emits a DegenerateSpectrumWarning; the value is still returned.
    """
    R_hat = check_hermitian(R_hat, "R_hat")
    R0 = check_hermitian(R0, "R0")
    if not 1 <= signal_dim < R0.shape[0]:
        raise InvalidInputError("signal dimension must lie in [1, K-1]")
    P_hat, tied_hat = _noise_projector(R_hat, signal_dim)
    P0, tied_0 = _noise_projector(R0, signal_dim)
    if tied_hat or tied_0:
        warnings.warn(
            "eigenvalue tie at the noise-subspace split",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    return float(np.linalg.norm(P_hat - P0))


# ---------------------------------------------------------------------------
# MUSIC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MusicResult:
    """Pseudospectrum on an angle grid and its dominant peaks."""

    grid_deg: np.ndarray
    pseudospectrum: np.ndarray
    peak_angles_deg: np.ndarray  # top peaks, strongest first
    short_peak_list: bool        # fewer local maxima than requested sources


def default_music_grid(step_deg: float = 0.5) -> np.ndarray:
    """Angles from -90 to 90 degrees every ``step_deg``; the step must be positive and finite."""
    if not 0 < step_deg < np.inf:
        raise InvalidInputError("grid step must be positive and finite")
    return np.arange(-90.0, 90.0 + step_deg / 2, step_deg)


def music_spectrum(R_hat, n_sources: int, grid_deg=None) -> MusicResult:
    """MUSIC pseudospectrum 1 / ||E_noise^H a(theta)||^2 over an angle grid.

    Peaks are strict local maxima with the grid endpoints excluded,
    ranked by height; the top ``n_sources`` are reported. When fewer
    local maxima exist the result is flagged ``short_peak_list``.
    """
    R_hat = check_hermitian(R_hat, "R_hat")
    k = R_hat.shape[0]
    if not 1 <= n_sources < k:
        raise InvalidInputError("source count must lie in [1, K-1]")
    grid = default_music_grid() if grid_deg is None else np.asarray(grid_deg, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise InvalidInputError("angle grid needs at least three points")
    eig = hermitian_eig(R_hat.astype(complex))
    E = eig.vectors[:, n_sources:]  # noise subspace
    proj = E.conj().T @ steering_vector(k, grid)
    denom = np.einsum("ij,ij->j", proj.conj(), proj).real
    denom = np.maximum(denom, np.finfo(float).tiny)
    spectrum = 1.0 / denom

    interior = np.arange(1, grid.size - 1)
    is_peak = (spectrum[interior] > spectrum[interior - 1]) & (
        spectrum[interior] > spectrum[interior + 1]
    )
    peak_idx = interior[is_peak]
    order = np.argsort(spectrum[peak_idx])[::-1]
    top = peak_idx[order[:n_sources]]
    return MusicResult(
        grid_deg=grid,
        pseudospectrum=spectrum,
        peak_angles_deg=grid[top],
        short_peak_list=len(peak_idx) < n_sources,
    )


def angles_recovered(result: MusicResult, true_angles_deg, tol_deg: float) -> bool:
    """True when every true angle has a reported peak within ``tol_deg``."""
    true_angles_deg = np.atleast_1d(np.asarray(true_angles_deg, dtype=float))
    if result.peak_angles_deg.size == 0:
        return False
    for angle in true_angles_deg:
        if np.min(np.abs(result.peak_angles_deg - angle)) > tol_deg + 1e-9:
            return False
    return True
