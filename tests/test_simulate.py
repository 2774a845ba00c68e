import numpy as np
import pytest

from structcov import (
    DegenerateSpectrumWarning,
    InvalidInputError,
    angles_recovered,
    ar_cov,
    banded_ar_cov,
    default_music_grid,
    doa_cov,
    music_spectrum,
    nmse,
    sample_cov,
    sample_elliptical,
    spiked_cov,
    steering_vector,
    subspace_error,
    ula_dictionary,
)
from support import rand_pd


class TestTruths:
    def test_ar_cov_entries(self):
        R = ar_cov(4, 0.5)
        assert R[0, 0] == 1.0 and R[0, 3] == 0.125
        assert np.linalg.eigvalsh(R)[0] > 0

    def test_banded_ar_cov_pd_and_banded(self):
        R = banded_ar_cov(15, 0.4, 3)
        assert np.linalg.eigvalsh(R)[0] > 0
        assert R[0, 4] == 0.0 and R[0, 3] != 0.0

    def test_doa_cov_structure(self):
        R = doa_cov(6, [0.0], [2.0], 0.5)
        v = steering_vector(6, 0.0)
        expected = 2.0 * np.outer(v, v.conj()) + 0.5 * np.eye(6)
        assert np.allclose(R, expected)

    def test_spiked_cov_spectrum(self):
        R = spiked_cov(8, 3, 0.01, rng=0)
        ev = np.linalg.eigvalsh(R)
        assert np.allclose(ev[:5], 0.01, atol=1e-12)
        assert np.all(ev[5:] > 0.01)

    def test_ula_dictionary_shape(self):
        A = ula_dictionary(5, 5.0)
        assert A.shape == (5, 37)
        assert np.allclose(np.abs(A), 1.0)


class TestSampling:
    def test_determinism(self):
        R0 = ar_cov(3, 0.5)
        X1 = sample_elliptical(R0, 50, seed=5)
        X2 = sample_elliptical(R0, 50, seed=5)
        assert np.array_equal(X1.data, X2.data)

    def test_direction_second_moment(self):
        X = sample_elliptical(np.eye(3), 100_000, seed=6)
        M = sample_cov(X)
        M = M / np.trace(M)
        assert np.linalg.norm(M - np.eye(3) / 3) <= 0.02

    def test_heavy_tail_vs_gaussian_norms(self):
        R0 = ar_cov(4, 0.3)
        heavy = sample_elliptical(R0, 2000, seed=7, tau_dof=1.0)
        gauss = sample_elliptical(R0, 2000, seed=7, tau_dof=None)
        ratio = lambda X: np.max(np.linalg.norm(X.data, axis=1)) / np.median(
            np.linalg.norm(X.data, axis=1)
        )
        assert ratio(heavy) > ratio(gauss)

    def test_texture_law_only_scales_samples(self):
        # matched Gaussian streams: normalized samples agree across tau laws
        R0 = ar_cov(4, 0.6)
        a = sample_elliptical(R0, 300, seed=8, tau_dof=1.0)
        b = sample_elliptical(R0, 300, seed=8, tau_dof=3.0)
        na = a.data / np.linalg.norm(a.data, axis=1, keepdims=True)
        nb = b.data / np.linalg.norm(b.data, axis=1, keepdims=True)
        moment_a = na.T @ na / 300
        moment_b = nb.T @ nb / 300
        assert np.max(np.abs(moment_a - moment_b)) <= 1e-12

    def test_complex_second_moment(self):
        R0 = doa_cov(3, [10.0], [1.0], 0.2)
        X = sample_elliptical(R0, 100_000, seed=9, tau_dof=None)
        emp = sample_cov(X)
        assert np.linalg.norm(emp - R0) / np.linalg.norm(R0) <= 0.02

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            sample_elliptical(np.eye(2), 0, seed=0)
        with pytest.raises(InvalidInputError):
            sample_elliptical(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, seed=0)
        with pytest.raises(InvalidInputError):
            sample_elliptical(np.eye(2), 5, seed=0, tau_dof=-1.0)


class TestNmse:
    def test_exact_estimate_is_zero(self):
        R0 = ar_cov(4, 0.5)
        assert nmse([R0], R0) == 0.0

    def test_scale_invariance(self):
        R0 = ar_cov(4, 0.5)
        assert nmse([3.7 * R0], R0) == 0.0
        assert nmse([R0], 5.1 * R0) == 0.0

    def test_hand_computed_value(self):
        # both already trace-one; error is ||diff||^2 / ||R0||^2
        R0 = np.diag([0.75, 0.25])
        R1 = np.diag([0.5, 0.5])
        expected = (0.25 ** 2 + 0.25 ** 2) / (0.75 ** 2 + 0.25 ** 2)
        assert nmse([R1], R0) == pytest.approx(expected, rel=1e-12)
        # the mean over a list
        assert nmse([R1, R0], R0) == pytest.approx(expected / 2, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            nmse([], np.eye(2))


class TestSubspaceError:
    def test_exact_match_is_zero(self):
        R0 = spiked_cov(6, 2, 0.1, rng=1)
        assert subspace_error(R0, R0, 2) <= 1e-12

    def test_signal_block_rotation_invariance(self):
        # rotating within the signal subspace leaves the projector fixed
        U = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 5)))[0]
        vals = np.array([4.0, 3.0, 1.0, 1.0, 1.0])
        R0 = (U * vals) @ U.T
        theta = 0.7
        G = np.eye(5)
        G[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        R1 = (U @ G * vals) @ (U @ G).T
        assert subspace_error(R1, R0, 2) <= 1e-10

    def test_swapped_subspaces_hand_value(self):
        # K=3, L=1: noise spans swap two axes -> projector distance sqrt(2)
        R0 = np.diag([3.0, 2.0, 1.0])
        R1 = np.diag([1.0, 2.0, 3.0])
        # noise(R0) = span{e2,e3}, noise(R1) = span{e1,e2}
        assert subspace_error(R1, R0, 1) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        # K=4, L=2 with fully disjoint subspaces -> sqrt(2L) = 2
        R0 = np.diag([4.0, 3.0, 1.0, 1.0])
        R1 = np.diag([1.0, 1.0, 4.0, 3.0])
        assert subspace_error(R1, R0, 2) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_bound(self, seed):
        rng = np.random.default_rng(seed)
        L = 2
        a = rand_pd(6, rng)
        b = rand_pd(6, rng)
        assert subspace_error(a, b, L) <= np.sqrt(2 * L) + 1e-12

    def test_tie_warns(self):
        with pytest.warns(DegenerateSpectrumWarning):
            subspace_error(np.eye(4), np.diag([2.0, 1.0, 0.5, 0.25]), 1)


class TestMusic:
    def test_single_source_exact(self):
        R = doa_cov(8, [0.0], [1.0], 0.1)
        res = music_spectrum(R, 1)
        assert res.peak_angles_deg.shape == (1,)
        assert abs(res.peak_angles_deg[0]) <= 1e-9
        assert not res.short_peak_list

    def test_five_sources_exact_covariance(self):
        angles = [-10.0, 10.0, 15.0, 35.0, 40.0]
        R = doa_cov(15, angles, [1.0] * 5, 0.1)
        res = music_spectrum(R, 5)
        assert angles_recovered(res, angles, 0.25)

    def test_scm_misses_an_angle_at_small_n(self):
        angles = [-10.0, 10.0, 15.0, 35.0, 40.0]
        R0 = doa_cov(15, angles, [1.0] * 5, 0.1)
        X = sample_elliptical(R0, 20, seed=12)
        res = music_spectrum(sample_cov(X), 5)
        assert not angles_recovered(res, angles, 0.25)

    def test_grid_and_validation(self):
        grid = default_music_grid(1.0)
        assert grid[0] == -90.0 and grid[-1] == 90.0
        R = doa_cov(6, [0.0], [1.0], 0.1)
        with pytest.raises(InvalidInputError):
            music_spectrum(R, 6)
        with pytest.raises(InvalidInputError):
            music_spectrum(R, 1, grid_deg=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_one_grid_rejects_a_step_that_is_not_positive(self, step):
        # the dictionary grid and the pseudospectrum grid are the same grid
        with pytest.raises(InvalidInputError):
            default_music_grid(step)
        with pytest.raises(InvalidInputError):
            ula_dictionary(4, step)

    def test_short_peak_list_flag(self):
        # a grid window where the pseudospectrum is monotone has no
        # strict interior maximum, so fewer peaks than sources
        R = doa_cov(8, [0.0], [1.0], 0.1)
        res = music_spectrum(R, 1, grid_deg=np.array([-40.0, -39.5, -39.0]))
        assert res.short_peak_list
        assert res.peak_angles_deg.size == 0
