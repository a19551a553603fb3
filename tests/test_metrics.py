import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.errors import UndefinedMetricError
from cooptrack.metrics import (FrameRecord, MetricConfig, frame_counts,
                               frames_from_tracks, metric_report, mota, motap,
                               motp, pairwise_report)
from oracles import (frame_counts_of_records, frame_records_from_tracks,
                     mota_of_records, motp_of_records)

CFG = MetricConfig()


def frames_from_deltas(deltas, tau=1.0):
    """deltas: per-frame distance or None for a trackless frame."""
    return [FrameRecord.from_distance(0.02 * i, d, tau)
            for i, d in enumerate(deltas)]


class TestFrameRecord:
    def test_flags_are_mutually_exclusive(self):
        for delta in (None, 0.0, 0.5, 1.0, 1.5, 100.0):
            f = FrameRecord.from_distance(0.0, delta, tau=1.0)
            assert f.dm + f.lm <= 1
            assert f.dm == (1 if delta is None else 0)
            if delta is not None:
                assert f.c == (1 if delta <= 1.0 else 0)
                assert f.d == (delta if delta <= 1.0 else 0.0)

    def test_distance_exactly_at_tau_counts_as_match(self):
        f = FrameRecord.from_distance(0.0, 1.0, tau=1.0)
        assert f.c == 1 and f.lm == 0 and f.d == 1.0


class TestMotp:
    def test_zero_distance_everywhere(self):
        assert motp(frames_from_deltas([0.0] * 10), CFG) == 0.0

    def test_all_localization_misses_cap_at_tau(self):
        assert motp(frames_from_deltas([5.0] * 7), CFG) == CFG.tau

    def test_hand_computed_example(self):
        frames = frames_from_deltas([0.2, 0.3, 1.5, 0.4, None])
        assert motp(frames, CFG) == pytest.approx(0.475, abs=1e-12)

    def test_undefined_without_tracks(self):
        with pytest.raises(UndefinedMetricError):
            motp(frames_from_deltas([None, None]), CFG)

    def test_bounded_by_tau(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            deltas = [None if rng.random() < 0.2 else rng.uniform(0, 3)
                      for _ in range(50)]
            if all(d is None for d in deltas):
                continue
            assert 0.0 <= motp(frames_from_deltas(deltas), CFG) <= CFG.tau

    def test_shifting_all_deltas_past_tau_drives_motp_to_tau(self):
        deltas = [0.1, 0.4, 0.9, 0.2]
        shifted = frames_from_deltas([d + CFG.tau for d in deltas])
        assert all(f.lm == 1 for f in shifted)
        assert motp(shifted, CFG) == CFG.tau


class TestMota:
    def test_perfect_tracking(self):
        assert mota(frames_from_deltas([0.0] * 10)) == 1.0

    def test_all_trackless_gives_zero(self):
        assert mota(frames_from_deltas([None] * 10)) == 0.0

    def test_hand_computed_example(self):
        frames = frames_from_deltas([0.2, 0.3, 1.5, 0.4, None])
        assert mota(frames) == pytest.approx(0.4, abs=1e-12)

    def test_can_be_negative(self):
        assert mota(frames_from_deltas([5.0] * 4)) == pytest.approx(-1.0)

    def test_undefined_without_ground_truth(self):
        with pytest.raises(UndefinedMetricError):
            mota([])


class TestMotap:
    def test_identical_pairs_draw(self):
        pair = (0.9, 0.1)
        assert motap(pair, pair, CFG) == 0
        assert motap(pair, pair, CFG) == 0

    def test_accuracy_condition(self):
        a = (0.9 + 2 * CFG.alpha, 0.10)
        b = (0.9, 0.10)
        assert motap(a, b, CFG) == 1
        assert motap(b, a, CFG) == 0

    def test_precision_condition(self):
        a = (0.9, 0.10 - 2 * CFG.beta)
        b = (0.9, 0.10)
        assert motap(a, b, CFG) == 1
        assert motap(b, a, CFG) == 0

    def test_mutual_exclusion_over_random_pairs(self):
        rng = np.random.default_rng(7)
        motas = rng.uniform(-1, 1, size=(10 ** 5, 2))
        motps = rng.uniform(0, 1, size=(10 ** 5, 2))
        for (ma, mb), (pa, pb) in zip(motas, motps):
            assert (motap((ma, pa), (mb, pb), CFG)
                    + motap((mb, pb), (ma, pa), CFG)) <= 1

    @given(ma=st.floats(-1, 1), mb=st.floats(-1, 1),
           pa=st.floats(0, 1), pb=st.floats(0, 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mutual_exclusion_property(self, ma, mb, pa, pb):
        assert motap((ma, pa), (mb, pb), CFG) + motap((mb, pb), (ma, pa), CFG) <= 1


class TestFramesFromTracks:
    def test_nearest_valid_track_is_evaluated(self):
        gt = [(0.0, 0.0), (1.0, 0.0)]
        frames = frames_from_tracks(gt, [0, 0, 1],
                                    [(0.3, 0.0), (5.0, 5.0), (1.2, 0.0)], CFG)
        assert frames.delta[0] == pytest.approx(0.3)
        assert frames.delta[1] == pytest.approx(0.2)

    def test_missing_frames_are_detection_misses(self):
        frames = frames_from_tracks([(0, 0), (0, 0)], [], [], CFG)
        assert all(frames.dm == 1)

    def test_distances_use_xy_plane_only(self):
        frames = frames_from_tracks([(3.0, 4.0)], [0], [(0.0, 0.0)], CFG)
        assert frames.delta[0] == pytest.approx(5.0)


class TestBulkScoring:
    """frames_from_tracks and the metrics over its table equal the per-frame
    FrameRecord loop, bit for bit."""

    def test_equals_per_frame_records(self):
        rng = np.random.default_rng(66)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            times = 0.02 * np.arange(n)
            # whole-metre ground truth, so the offsets below are exact
            gt = rng.integers(-5, 5, size=(n, 2)).astype(float)
            frame_idx, xy = [], []
            for i in range(n):
                for _ in range(int(rng.choice([0, 0, 1, 1, 2, 3]))):
                    offset = ([CFG.tau, 0.0], [0.0, -CFG.tau], [0.6, 0.8],
                              rng.uniform(-2, 2, 2))[int(rng.integers(4))]
                    frame_idx.append(i)
                    xy.append(gt[i] + offset)
            # rows of one frame need not be adjacent
            order = rng.permutation(len(frame_idx))
            frame_idx = np.array(frame_idx, dtype=int)[order]
            xy = np.array(xy).reshape(-1, 2)[order]
            by_frame = {}
            for i, p in zip(frame_idx, xy):
                by_frame.setdefault(int(i), []).append(p)
            records = frame_records_from_tracks(times, gt, by_frame, CFG.tau)
            bulk = frames_from_tracks(gt, frame_idx, xy, CFG)
            expected = [np.nan if f.delta is None else f.delta for f in records]
            np.testing.assert_array_equal(bulk.delta, expected)
            assert frame_counts(bulk) == frame_counts_of_records(records)
            assert mota(bulk) == mota_of_records(records)
            if any(f.c or f.lm for f in records):
                assert motp(bulk, CFG) == motp_of_records(records, CFG.tau)

    def test_distance_equal_to_tau_is_a_match(self):
        frames = frames_from_tracks([(0.0, 0.0), (1.0, 1.0)], [0, 1],
                                    [(CFG.tau, 0.0), (1.0, 1.0 + 2 * CFG.tau)], CFG)
        assert frame_counts(frames) == {"matches": 1, "dm": 0, "lm": 1}
        assert motp(frames, CFG) == CFG.tau


class TestReports:
    def test_metric_report_shape(self):
        frames = frames_from_deltas([0.2, 0.3, 1.5, 0.4, None])
        report = metric_report("scene-1", "P", frames, CFG)
        assert report == {
            "scene_id": "scene-1", "model_id": "P",
            "motp": pytest.approx(0.475), "mota": pytest.approx(0.4),
            "frame_counts": {"matches": 3, "dm": 1, "lm": 1},
        }

    def test_pairwise_report(self):
        frames_a = frames_from_deltas([0.1] * 10)
        frames_b = frames_from_deltas([0.1] * 8 + [None, 5.0])
        rep_a = metric_report("s", "C", frames_a, CFG)
        rep_b = metric_report("s", "P", frames_b, CFG)
        pair = pairwise_report(rep_a, rep_b, CFG)
        assert pair["motap_ab"] == 1
        assert pair["motap_ba"] == 0

    def test_frame_counts(self):
        frames = frames_from_deltas([0.2, None, 3.0])
        assert frame_counts(frames) == {"matches": 1, "dm": 1, "lm": 1}


class TestConfigValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            MetricConfig(tau=0.0)
        with pytest.raises(ValueError):
            MetricConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            MetricConfig(beta=0.0)
