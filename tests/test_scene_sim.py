import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.errors import DataError
from cooptrack.scene_sim import (DEVICE, KIND_STARTING, KIND_TURNING, STREAMS, Scene,
                                 SceneSpec, aligned_occlusions, frame_count,
                                 generate_ground_truth, generate_scene,
                                 occlusion_mask_for,
                                 read_scene, simulate_sensors, stream_rows,
                                 synthesize_imu, with_occlusions, write_scene)

FRAME_DT = 0.02


def clean_spec(**kwargs):
    """A noise-free, dropout-free spec for exact checks."""
    kwargs.setdefault("sigma_detection", 1e-12)
    kwargs.setdefault("dropout_prob", 0.0)
    return SceneSpec(**kwargs)


class TestGroundTruth:
    def test_stationary_when_peak_speed_is_zero(self):
        gt = generate_ground_truth(SceneSpec(kind=KIND_STARTING, v_peak=0.0))
        assert np.abs(gt[:, 1:3]).max() == 0.0
        assert np.abs(gt[:, 5]).max() == 0.0

    def test_turn_integrates_to_quarter_turn_right(self):
        gt = generate_ground_truth(SceneSpec.turning_defaults(seed=1))
        assert gt[-1, 3] - gt[0, 3] == pytest.approx(-math.pi / 2, abs=1e-3)

    def test_path_length_matches_speed_integral(self):
        for spec in (SceneSpec(seed=2), SceneSpec.turning_defaults(seed=3)):
            gt = generate_ground_truth(spec)
            chords = np.hypot(np.diff(gt[:, 1]), np.diff(gt[:, 2])).sum()
            arc = np.trapezoid(gt[:, 5], gt[:, 0])
            assert chords == pytest.approx(arc, abs=1e-3)

    def test_frame_grid(self):
        gt = generate_ground_truth(SceneSpec(duration=14.0))
        assert len(gt) == 701
        assert gt[0, 0] == 0.0
        assert gt[-1, 0] == pytest.approx(14.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(gt[:, 0]), FRAME_DT, atol=1e-12)

    @pytest.mark.parametrize("duration", [14.0, 12.0, 0.004, 5.1, 7.0099, 7.0101, 9.99])
    def test_frame_count_is_ground_truth_rows(self, duration):
        spec = SceneSpec(duration=duration)
        assert frame_count(spec) == len(generate_ground_truth(spec))

    def test_kinematic_consistency(self):
        for spec in (SceneSpec(seed=4), SceneSpec.turning_defaults(seed=5)):
            gt = generate_ground_truth(spec)
            t, x, y, gamma = gt[:, 0], gt[:, 1], gt[:, 2], gt[:, 3]
            vx = np.gradient(x, t)
            vy = np.gradient(y, t)
            interior = slice(5, -5)
            np.testing.assert_allclose(np.hypot(vx, vy)[interior],
                                       gt[interior, 5], atol=1e-3)
            gdot = np.gradient(gamma, t)
            np.testing.assert_allclose(gdot[interior], gt[interior, 4], atol=1e-3)


class TestOcclusions:
    def test_window_arithmetic_at_50_hz(self):
        spec = clean_spec(duration=14.0, occlusions=((3.0, 2.0),))
        scene = generate_scene(spec)
        mask = occlusion_mask_for(scene.ground_truth[:, 0], scene.occlusion_windows())
        assert mask.sum() == 100
        masked_t = scene.ground_truth[mask, 0]
        # 100 consecutive frames ending 3 s before the scene end
        assert masked_t[0] == pytest.approx(9.0, abs=1e-9)
        assert masked_t[-1] == pytest.approx(10.98, abs=1e-9)
        det_t = set(np.round(scene.detections[:, 0] / FRAME_DT).astype(int))
        for t in masked_t:
            assert int(round(t / FRAME_DT)) not in det_t

    def test_aligned_occlusions_share_start_frame(self):
        occl = aligned_occlusions([1.0, 2.0], end_offset=3.0)
        spec = clean_spec(duration=14.0, occlusions=tuple(occl))
        scene = generate_scene(spec)
        starts = [w[0] for w in scene.occlusion_windows()]
        assert starts[0] == pytest.approx(starts[1], abs=1e-9)
        # the longest window still ends 3 s before the scene end
        assert max(w[1] for w in scene.occlusion_windows()) == pytest.approx(11.0)

    def test_occlusion_never_removes_device_or_gnss(self):
        spec = clean_spec(duration=14.0, occlusions=((3.0, 2.0),))
        scene = generate_scene(spec)
        assert len(scene.device) == len(scene.ground_truth)
        assert len(scene.gnss) == 15
        assert len(scene.detections) < len(scene.ground_truth)

    def test_windows_outside_scene_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(duration=10.0, occlusions=((9.5, 2.0),))

    def test_mask_helper_half_open(self):
        times = np.arange(0, 1.0, 0.02)
        mask = occlusion_mask_for(times, [(0.1, 0.2)])
        assert times[mask][0] == pytest.approx(0.10)
        assert times[mask][-1] == pytest.approx(0.18)


class TestDerivedVariants:
    """with_occlusions derives from the unoccluded scene exactly the scene
    generate_scene makes for the occluded spec."""

    @given(seed=st.integers(0, 2 ** 63 - 1), turning=st.booleans())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_variant_equals_generated_scene(self, seed, turning):
        plain = (SceneSpec.turning_defaults(seed=seed) if turning
                 else SceneSpec(seed=seed))
        base = generate_scene(plain, scene_id="base")
        aligned = tuple(aligned_occlusions([1.0, 2.0, 3.0, 4.0], 3.0))
        end = plain.duration
        cases = [(window,) for window in aligned] + [
            aligned,
            ((end - 2.0, 2.0),),        # from the first frame
            ((0.0, 2.0),),              # up to the last frame
            ((0.0, end),)]              # the whole scene
        for occlusions in cases:
            spec = replace(plain, occlusions=occlusions)
            variant = with_occlusions(base, occlusions, scene_id="variant")
            expected = generate_scene(spec, scene_id="variant")
            assert variant.spec == expected.spec
            assert variant.scene_id == "variant"
            for name in STREAMS:
                assert np.array_equal(getattr(variant, name),
                                      getattr(expected, name)), (occlusions, name)
            assert variant.occlusion_windows() == expected.occlusion_windows()
            assert occlusion_mask_for(variant.ground_truth[:, 0],
                                      variant.occlusion_windows()).any()
            for name in ("ground_truth", "device", "gnss"):
                assert getattr(variant, name) is getattr(base, name)

    def test_occlusions_add_to_the_base_spec(self):
        """A variant of a variant is the scene of both windows."""
        first, second = (3.0, 2.0), (8.0, 1.0)
        base = generate_scene(SceneSpec(seed=3))
        twice = with_occlusions(with_occlusions(base, [first]), [second], scene_id="v")
        expected = generate_scene(SceneSpec(seed=3, occlusions=(first, second)),
                                  scene_id="v")
        assert twice.spec == expected.spec
        for name in STREAMS:
            assert np.array_equal(getattr(twice, name), getattr(expected, name)), name


class TestSensors:
    def test_noise_free_detections_match_ground_truth(self):
        spec = SceneSpec(sigma_detection=1e-300, dropout_prob=0.0, seed=8)
        scene = generate_scene(spec)
        assert len(scene.detections) == len(scene.ground_truth)
        np.testing.assert_allclose(scene.detections[:, 1:],
                                   scene.ground_truth[:, 1:3], atol=1e-12)

    def test_detection_noise_standard_deviation(self):
        spec = SceneSpec(duration=14.0, dropout_prob=0.0, seed=9,
                         sigma_detection=0.15)
        rows = []
        rng = np.random.default_rng(10)
        for seed in rng.integers(0, 2 ** 32, size=20):
            s = SceneSpec(duration=14.0, dropout_prob=0.0, seed=int(seed))
            scene = generate_scene(s)
            rows.append(scene.detections[:, 1] - scene.ground_truth[:, 1])
        noise = np.concatenate(rows)
        assert len(noise) > 10 ** 4
        assert abs(noise.std() - 0.15) / 0.15 < 0.05

    def test_device_stream_carries_configured_delay(self):
        spec = clean_spec(kind=KIND_TURNING, duration=12.0,
                          sigma_device_gamma_dot=1e-300, sigma_device_v=1e-300,
                          device_bias_gamma_dot=0.0, device_bias_v=0.0,
                          device_delay=0.3)
        scene = generate_scene(spec)
        gt = scene.ground_truth
        i = 400   # mid-turn
        t_query = scene.device[i, 0] - 0.3
        expected = np.interp(t_query, gt[:, 0], gt[:, 4])
        assert scene.device[i, 1] == pytest.approx(expected, abs=1e-9)

    def test_zero_bias_leaves_delayed_truth_plus_white_noise(self):
        spec = SceneSpec(kind=KIND_TURNING, seed=31, device_bias_gamma_dot=0.0,
                         device_bias_v=0.0)
        scene = generate_scene(spec)
        gt = scene.ground_truth
        t = gt[:, 0]
        n = len(t)
        # the draws before the device noise: detection noise, then dropout
        rng = np.random.default_rng(spec.seed)
        rng.normal(0.0, spec.sigma_detection, size=(n, 2))
        rng.random(n)
        noise_gd = rng.normal(0.0, spec.sigma_device_gamma_dot, size=n)
        noise_v = rng.normal(0.0, spec.sigma_device_v, size=n)
        t_delayed = np.maximum(t - spec.device_delay, t[0])
        assert np.array_equal(scene.device[:, 1],
                              np.interp(t_delayed, t, gt[:, 4]) + noise_gd)
        assert np.array_equal(scene.device[:, 2],
                              np.interp(t_delayed, t, gt[:, 5]) + noise_v)
        # the OU shocks are drawn whatever the bias, so the GNSS stream
        # drawn after them is the one of the default biases
        biased = generate_scene(SceneSpec(kind=KIND_TURNING, seed=31))
        assert np.array_equal(scene.gnss, biased.gnss)

    def test_same_seed_bit_identical(self):
        spec = SceneSpec(seed=123, occlusions=((3.0, 1.0),))
        a = generate_scene(spec)
        b = generate_scene(spec)
        for field in ("ground_truth", "detections", "device", "gnss"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(seed=1))
        b = generate_scene(SceneSpec(seed=2))
        assert not np.array_equal(a.detections, b.detections)


class TestStreams:
    def test_scene_fields_are_the_streams(self):
        assert [f.name for f in fields(Scene)] == ["scene_id", "spec", *STREAMS]

    def test_stream_rows_put_named_columns_in_table_order(self):
        rows = stream_rows(DEVICE, sigma_v=[0.3], v=[2.0], t=[1.0], gamma_dot=[0.5])
        assert rows.tolist() == [[1.0, 0.5, 2.0, 0.3]]
        assert DEVICE._fields == ("t", "gamma_dot", "v", "sigma_v")


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(seed=55, occlusions=((3.0, 2.0),))
        scene = generate_scene(spec, scene_id="roundtrip")
        d = tmp_path / "scene"
        write_scene(scene, str(d))
        for name in ("ground_truth.csv", "detections.csv", "device.csv",
                     "gnss.csv", "scene.json"):
            assert (d / name).exists()
        loaded = read_scene(str(d))
        assert loaded.scene_id == "roundtrip"
        assert loaded.spec == scene.spec
        for field in STREAMS:
            assert len(getattr(scene, field)) > 0, field
            np.testing.assert_allclose(getattr(loaded, field), getattr(scene, field),
                                       atol=1e-6, err_msg=field)
        assert loaded.occlusion_windows() == pytest.approx(scene.occlusion_windows(),
                                                           abs=1e-6)

    def test_frame_step_off_whole_microseconds_reads(self, tmp_path):
        # at 30 Hz the six-decimal times step by 33333 or 33334 us
        scene = generate_scene(SceneSpec(seed=3))
        scene.ground_truth[:, 0] = np.arange(len(scene.ground_truth)) / 30.0
        write_scene(scene, str(tmp_path))
        assert len(read_scene(str(tmp_path)).ground_truth) == len(scene.ground_truth)

    def test_csv_headers(self, tmp_path):
        scene = generate_scene(SceneSpec(seed=3))
        write_scene(scene, str(tmp_path))
        first = (tmp_path / "ground_truth.csv").read_text().splitlines()[0]
        assert first == "t,x,y,gamma,gamma_dot,v"

    def test_malformed_csv_error_names_file_and_line(self, tmp_path):
        scene = generate_scene(SceneSpec(seed=3))
        write_scene(scene, str(tmp_path))
        det = tmp_path / "detections.csv"
        lines = det.read_text().splitlines()
        lines[5] = "1.0,2.0"   # physical line 6: header + 5 data rows
        det.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"detections\.csv line 6"):
            read_scene(str(tmp_path))

    def test_bad_header_rejected(self, tmp_path):
        scene = generate_scene(SceneSpec(seed=3))
        write_scene(scene, str(tmp_path))
        gnss = tmp_path / "gnss.csv"
        lines = gnss.read_text().splitlines()
        lines[0] = "time,speed,x,y"
        gnss.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"gnss\.csv line 1"):
            read_scene(str(tmp_path))

    # undecodable bytes; a field past the csv module's size limit
    @pytest.mark.parametrize("content", [b"t,x,y\n\xff\xfe,1,2\n",
                                         b"t,x,y\n" + b"1" * 200000 + b",2,3\n"])
    def test_unreadable_csv_rejected(self, tmp_path, content):
        write_scene(generate_scene(SceneSpec(seed=3)), str(tmp_path))
        (tmp_path / "detections.csv").write_bytes(content)
        with pytest.raises(DataError, match=r"detections\.csv"):
            read_scene(str(tmp_path))

    def test_missing_metadata_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_scene(str(tmp_path))


class TestImuSynthesis:
    def test_shape_and_determinism(self):
        gt = generate_ground_truth(SceneSpec(seed=6))
        imu_a = synthesize_imu(gt, np.random.default_rng(42))
        imu_b = synthesize_imu(gt, np.random.default_rng(42))
        assert imu_a.shape == (len(gt), 7)
        assert np.array_equal(imu_a, imu_b)

    def test_stationary_ride_is_quiet(self):
        gt = generate_ground_truth(SceneSpec(v_peak=0.0, seed=6))
        imu = synthesize_imu(gt, np.random.default_rng(0))
        # only sensor noise remains when there is no pedaling
        assert np.abs(imu[:, 1:]).max() < 1.0
        assert imu[:, 6].std() < 0.1
