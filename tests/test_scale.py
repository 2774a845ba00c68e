"""Fits of samples at any scale.

Every estimator is invariant to the scale of each sample. The fits scale
each sample whose largest entry lies outside [2^-64, 2^64] by a power of
two (``tyler._unit_rows``), which is exact, and add what that takes off
the cost back to it; samples in range are read as they are. So samples
scaled by 2^k, k anywhere in [-600, 600], give the maps of the unscaled
samples bit for bit.
"""

import math

import numpy as np
import pytest

from structcov import (
    InvalidInputError,
    KroneckerFactors,
    MMSettings,
    RankOneDictionary,
    SampleSet,
    ar_cov,
    estimate_banded_toeplitz,
    estimate_kronecker,
    estimate_linear,
    estimate_rank_one,
    estimate_spiked,
    estimate_toeplitz,
    kron_objective,
    sample_elliptical,
    toeplitz_basis,
    tyler_cost,
    tyler_unconstrained,
    ula_dictionary,
)
from structcov.cli import main
from structcov.fileio import read_array, write_array
from structcov.kronecker import ReshapedSamples
from structcov.tyler import Iterate

K, N = 6, 30
_DICTIONARY = RankOneDictionary.augment(ula_dictionary(K, 20.0))

FITS = {
    "tyler": lambda X, s: tyler_unconstrained(X, s),
    "toeplitz": lambda X, s: estimate_toeplitz(X, s),
    "banded": lambda X, s: estimate_banded_toeplitz(X, 2, s),
    "spiked": lambda X, s: estimate_spiked(X, 2, s),
    "rankone": lambda X, s: estimate_rank_one(_DICTIONARY, X, s),
    "linear": lambda X, s: estimate_linear(toeplitz_basis(K), X, s),
    "kron_mm": lambda X, s: estimate_kronecker(X, 2, 3, s, method="mm"),
    "kron_gs": lambda X, s: estimate_kronecker(X, 2, 3, s, method="gs"),
    "kron_toepb": lambda X, s: estimate_kronecker(X, 2, 3, s, b_structure=toeplitz_basis(3)),
}


def _samples(complex_, seed=5):
    R0 = ar_cov(K, 0.7)
    return sample_elliptical(R0.astype(complex) if complex_ else R0, N, seed=seed)


def _scaled(X, seed):
    """(X with sample i times 2^k_i, k_i uniform in [-600, 600]; (K/N) sum_i 2 k_i log 2)."""
    k = np.random.default_rng(seed).integers(-600, 601, size=X.n)
    shift = X.k / X.n * 2.0 * math.log(2.0) * float(k.sum())
    return SampleSet.from_array(X.data * np.ldexp(1.0, k)[:, None]), shift


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("name", list(FITS))
def test_maps_are_exact_at_any_scale(name, complex_):
    # three maps decide nothing on a cost: the iterates are the unscaled
    # fit's bit for bit, and each cost is shifted by the scales' own term
    X = _samples(complex_)
    Y, shift = _scaled(X, seed=11)
    settings = MMSettings(max_iter=3)
    want, got = FITS[name](X, settings), FITS[name](Y, settings)
    assert got.iterations == want.iterations == 3
    assert _same_bytes(got.scatter, want.scatter)
    for key in ("factor_a", "factor_b"):
        if key in want.details:
            assert _same_bytes(got.details[key], want.details[key])
    gap = got.objective_trace - (want.objective_trace + shift)
    assert np.abs(gap).max() <= 1e-12 * (1.0 + abs(shift))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("name", list(FITS))
def test_fits_agree_at_any_scale(name, complex_):
    # a whole fit also compares costs whose roundoff depends on the scale,
    # so a SQUAREM trial can be taken on one side and refused on the other
    # by 1e-15; the fits then stop at points within reach of the tolerance
    X = _samples(complex_)
    Y, _ = _scaled(X, seed=12)
    want, got = FITS[name](X, None), FITS[name](Y, None)
    assert got.termination == want.termination == "converged"
    assert np.abs(got.scatter - want.scatter).max() <= 1e-6


def test_costs_keep_their_definition_at_any_scale():
    X = _samples(False)
    Y, shift = _scaled(X, seed=13)
    R = ar_cov(K, 0.3)
    assert tyler_cost(R, Y) == pytest.approx(tyler_cost(R, X) + shift, rel=1e-13, abs=1e-12)
    factors = KroneckerFactors(ar_cov(2, 0.4), ar_cov(3, 0.5))
    want = kron_objective(factors, ReshapedSamples.from_samples(X, 2, 3)) + shift
    got = kron_objective(factors, ReshapedSamples.from_samples(Y, 2, 3))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e-310, 1e300])
def test_tiny_and_huge_samples_are_not_zero(scale):
    X = SampleSet.from_array(_samples(False).data * scale)
    assert X.n == N
    with pytest.raises(InvalidInputError, match="zero vector"):
        SampleSet.from_array(np.vstack([X.data, np.zeros(K)]))


def test_an_overflowing_quadratic_form_is_refused():
    # R = diag(1, 5e-324) is PD, but x^T R^{-1} x of x = (0, 1) overflows
    X = SampleSet.from_array(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="non-finite quadratic form"):
        Iterate.at(np.diag([1.0, 5e-324]), X)


@pytest.mark.parametrize("extra", [
    ["--structure", "unconstrained"],
    ["--structure", "toeplitz"],
    ["--structure", "linear", "--basis", "toeplitz"],
    ["--structure", "kronecker-mm", "--dims", "2,3"],
])
def test_cli_fits_samples_near_1e200_and_1e_minus_200(tmp_path, extra):
    # 2^664 is about 1.2e200; a power of two keeps the CSV's samples exact multiples
    X = _samples(False)
    paths = {}
    for tag, scale in (("unscaled", 1.0), ("up", 2.0 ** 664), ("down", 2.0 ** -664)):
        data, out = tmp_path / f"{tag}.csv", tmp_path / f"{tag}-scatter.csv"
        write_array(data, X.data * scale)
        assert main(["estimate", "--input", str(data), "--out", str(out)] + extra) == 0
        paths[tag] = out
    want = read_array(paths["unscaled"])
    for tag in ("up", "down"):
        assert np.abs(read_array(paths[tag]) - want).max() <= 1e-6
