import math

import numpy as np
import pytest

from cooptrack.features import (DFT_WINDOW_SAMPLES, N_MOTION_FEATURES,
                                dft_features, feature_layout, feature_names,
                                gnss_poly_track, motion_feature_matrix,
                                moving_average, orthopoly_basis,
                                orthopoly_coeffs, transformed_signals,
                                yaw_rate)

from cooptrack import scene_sim

from oracles import (naive_dft_magnitudes, per_signal_motion_features,
                     polyfit_normal_equations)


def make_imu(t, gyr_z, n_cols=7):
    imu = np.zeros((len(t), n_cols))
    imu[:, 0] = t
    imu[:, 6] = gyr_z
    return imu


class TestYawRate:
    def test_constant_signal_passes_through(self):
        t = np.arange(0, 4, 0.02)
        out = yaw_rate(make_imu(t, np.full(len(t), 0.4)))
        np.testing.assert_allclose(out[:, 1], 0.4, atol=1e-12)
        np.testing.assert_allclose(out[:, 0], t)

    def test_nyquist_alternation_is_rejected(self):
        t = np.arange(0, 4, 0.02)
        sig = np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        out = yaw_rate(make_imu(t, sig))
        interior = out[20:-20, 1]
        assert np.abs(interior).max() < 0.08   # 1/13 at worst

    def test_one_hertz_attenuation_matches_analytic_gain(self):
        t = np.arange(0, 8, 0.02)
        out = yaw_rate(make_imu(t, np.sin(2 * math.pi * 1.0 * t)))
        n_taps, dt = 13, 0.02
        gain = abs(math.sin(math.pi * 1.0 * n_taps * dt)
                   / (n_taps * math.sin(math.pi * 1.0 * dt)))
        interior = out[50:-50, 1]
        assert interior.max() == pytest.approx(gain, abs=5e-3)

    def test_empty_stream(self):
        assert yaw_rate(np.empty((0, 7))).shape == (0, 2)


class TestMovingAverage:
    def test_finite_input_keeps_the_running_sum_bits(self):
        values = np.random.default_rng(4).normal(size=(300, 3))
        half = 25
        csum = np.concatenate([np.zeros((1, 3)), np.cumsum(values, axis=0)])
        lo = np.maximum(np.arange(300) - half, 0)
        hi = np.minimum(np.arange(300) + half, 299)
        expected = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]
        assert np.array_equal(moving_average(values, 1.0), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_spoils_only_its_windows(self, bad):
        values = np.ones(200)
        values[100] = bad
        out = moving_average(values, 1.0)
        holding = np.zeros(200, dtype=bool)
        holding[75:126] = True
        assert np.isnan(out[holding]).all()
        assert (out[~holding] == 1.0).all()


class TestDftFeatures:
    def test_zero_window(self):
        np.testing.assert_array_equal(dft_features(np.zeros(256)), np.zeros(6))

    def test_pure_cosine_concentrates_at_its_bin(self):
        j = np.arange(256)
        window = np.cos(2 * math.pi * 3 * j / 256)
        feats = dft_features(window)
        others = np.delete(feats, 3)
        assert feats[3] > 100 * others.max()

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(0)
        window = rng.normal(0, 1, 256)
        expected = naive_dft_magnitudes(window, 6) / np.sum(window ** 2)
        np.testing.assert_allclose(dft_features(window), expected, atol=1e-9)

    def test_scaling_inverts_feature_magnitude(self):
        rng = np.random.default_rng(1)
        window = rng.normal(0, 1, 256)
        c = 3.7
        np.testing.assert_allclose(dft_features(c * window),
                                   dft_features(window) / c, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            dft_features(np.zeros(255))


class TestOrthopoly:
    def test_basis_is_orthonormal(self):
        for n in (5, 13, 100, 256):
            B = orthopoly_basis(n, 3)
            np.testing.assert_allclose(B.T @ B, np.eye(4), atol=1e-10)

    def test_constant_window(self):
        coeffs = orthopoly_coeffs(np.full(20, 3.0), 3)
        B = orthopoly_basis(20, 3)
        np.testing.assert_allclose(B @ coeffs, 3.0, atol=1e-12)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_exact_cubic_reproduced(self):
        i = np.arange(30, dtype=float)
        window = 2.0 - 0.3 * i + 0.01 * i ** 2 + 1e-4 * i ** 3
        coeffs = orthopoly_coeffs(window, 3)
        recon = orthopoly_basis(30, 3) @ coeffs
        np.testing.assert_allclose(recon, window, atol=1e-9)

    def test_noisy_quadratic_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        i = np.arange(50, dtype=float)
        window = 1.0 + 0.5 * i - 0.02 * i ** 2 + rng.normal(0, 0.3, 50)
        recon = orthopoly_basis(50, 2) @ orthopoly_coeffs(window, 2)
        np.testing.assert_allclose(recon, polyfit_normal_equations(window, 2),
                                   atol=1e-8)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            orthopoly_coeffs(np.ones(3), 3)

    def test_cached_basis_is_read_only_and_equals_fresh_build(self):
        cached = orthopoly_basis(6, 3)
        assert orthopoly_basis(6, 3) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
        assert np.array_equal(cached, orthopoly_basis.__wrapped__(6, 3))


class TestFeatureMatrix:
    def test_layout_is_closed_and_versioned(self):
        layout = feature_layout(with_gnss=True)
        assert layout["version"] == "v1"
        assert len(layout["names"]) == N_MOTION_FEATURES + 4
        assert feature_names(False) == layout["names"][:N_MOTION_FEATURES]

    def test_motion_matrix_alignment(self):
        rng = np.random.default_rng(3)
        n = 400
        imu = rng.normal(0, 1, (n, 7))
        imu[:, 0] = np.arange(n) * 0.02
        mat = motion_feature_matrix(imu)
        assert mat.shape == (n - 255, N_MOTION_FEATURES)
        # last row's DFT block must equal the direct computation on the tail
        sig = transformed_signals(imu)
        tail = sig[-256:, 0]
        np.testing.assert_allclose(mat[-1, 8:14], dft_features(tail), atol=1e-12)
        # and the stat block matches a centered 1 s window (truncated at edge)
        centered = sig[n - 26:, 0]
        assert mat[-1, 0] == pytest.approx(centered.mean())
        assert mat[-1, 1] == pytest.approx(np.mean(centered ** 2))

    def test_short_stream_yields_no_rows(self):
        imu = np.zeros((100, 7))
        assert motion_feature_matrix(imu).shape == (0, N_MOTION_FEATURES)


def seeded_ride(seed=5, v_peak=4.0):
    """IMU of a simulated 14 s ride: 701 samples at 50 Hz."""
    spec = scene_sim.SceneSpec(kind=scene_sim.KIND_STARTING, seed=seed,
                               v_peak=v_peak, duration=14.0)
    gt = scene_sim.generate_ground_truth(spec)
    return scene_sim.synthesize_imu(gt, np.random.default_rng(seed + 1))


class TestFeatureMatrixOracle:
    """The one-pass feature matrix equals the per-signal, per-window
    definitions bit for bit; forest thresholds compare these values."""

    def test_seeded_ride(self):
        imu = seeded_ride()
        assert len(imu) == 701
        mat = motion_feature_matrix(imu)
        assert mat.shape == (701 - 255, N_MOTION_FEATURES)
        assert np.array_equal(mat, per_signal_motion_features(imu))

    def test_zero_energy_stretch(self):
        # the device lies still for 6 s: no horizontal rotation at all
        imu = seeded_ride(v_peak=0.0)
        imu[100:400, 4:6] = 0.0
        mat = motion_feature_matrix(imu)
        gyr_h_dft = mat[:, 8 + 2 * 6:8 + 3 * 6]
        still = slice(355 - 255, 400 - 255)     # windows ending in 355..399
        assert (gyr_h_dft[still] == 0.0).all()
        assert (gyr_h_dft[still.stop:] != 0.0).any(axis=1).all()
        assert np.array_equal(mat, per_signal_motion_features(imu))

    def test_window_holding_a_nan(self):
        # one NaN acc_x sample: each acc_h window that holds it gives six
        # NaN, as dft_features does; every other DFT entry stays finite
        imu = seeded_ride()
        imu[300, 1] = np.nan
        mat = motion_feature_matrix(imu)
        acc_h_dft = mat[:, 8:14]
        holding = np.zeros(len(mat), dtype=bool)
        holding[300 - 255:300 + 1] = True      # windows ending in 300..555
        assert np.isnan(acc_h_dft[holding]).all()
        assert np.isfinite(acc_h_dft[~holding]).all()
        assert np.isfinite(mat[:, 14:]).all()
        assert np.array_equal(mat, per_signal_motion_features(imu), equal_nan=True)

    def test_nan_sample_reaches_only_the_stat_windows_holding_it(self):
        # acc_x NaN at sample 300: the moving mean and energy of acc_h are
        # NaN in the rows whose centred 1 s window (samples 275..325) holds
        # it, rows 20..70, and every other stat stays finite
        imu = seeded_ride()
        imu[300, 1] = np.nan
        stats = motion_feature_matrix(imu)[:, :8]
        holding = np.zeros(len(stats), dtype=bool)
        holding[300 - 25 - 255:300 + 25 - 255 + 1] = True
        assert np.flatnonzero(holding).tolist() == list(range(20, 71))
        assert np.isnan(stats[holding, :2]).all()
        assert np.isfinite(stats[~holding, :2]).all()
        assert np.isfinite(stats[:, 2:]).all()
        # the finite rows keep the bits of the ride without the NaN
        clean = motion_feature_matrix(seeded_ride())[:, :8]
        assert np.array_equal(stats[:, 2:], clean[:, 2:])

    def test_one_window(self):
        imu = seeded_ride()[:256]
        mat = motion_feature_matrix(imu)
        assert mat.shape == (1, N_MOTION_FEATURES)
        assert np.array_equal(mat, per_signal_motion_features(imu))

    def test_one_sample_short_of_a_window(self):
        imu = seeded_ride()[:255]
        assert motion_feature_matrix(imu).shape == (0, N_MOTION_FEATURES)
        assert per_signal_motion_features(imu).shape == (0, N_MOTION_FEATURES)


class TestGnssPolyTrack:
    def test_zero_order_hold_and_age(self):
        times = np.arange(0, 10, 0.02)
        t_fix = np.arange(0.0, 10.0, 1.0)
        gnss = np.column_stack([t_fix, 2.0 + 0.1 * t_fix,
                                np.zeros(10), np.zeros(10)])
        coeffs, age = gnss_poly_track(times, gnss)
        # before five fixes exist the features are NaN
        assert np.isnan(coeffs[0]).all()
        # after warm-up, the coefficients are held between fixes
        i = int(6.5 / 0.02)
        j = int(6.9 / 0.02)
        np.testing.assert_allclose(coeffs[i], coeffs[j])
        assert age[i] == pytest.approx(0.5, abs=0.03)

    def test_no_gnss(self):
        coeffs, age = gnss_poly_track(np.arange(0, 5, 0.02), np.empty((0, 4)))
        assert np.isnan(coeffs).all()
        assert np.isinf(age).all()

    def test_linear_speed_recovered_by_first_coefficients(self):
        times = np.array([8.0])
        t_fix = np.arange(0.0, 8.5, 1.0)
        v = 1.0 + 0.5 * t_fix
        gnss = np.column_stack([t_fix, v, np.zeros_like(t_fix),
                                np.zeros_like(t_fix)])
        coeffs, age = gnss_poly_track(times, gnss)
        window = v[(t_fix > 8.0 - 5.0) & (t_fix <= 8.0)]   # half-open 5 s window
        expected = orthopoly_coeffs(window, 3)
        np.testing.assert_allclose(coeffs[0], expected, atol=1e-12)
