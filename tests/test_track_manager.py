import math

import numpy as np
import pytest

from cooptrack.ekf import (BikeState, MeasurementNoiseParams,
                           ProcessNoiseParams, StateEstimate, ekf_predict)
from cooptrack.association import gated_cost_matrix, munkres_solve
from cooptrack.errors import DataError
from cooptrack.track_manager import (ManagerConfig, TrackManager, TrackStatus,
                                     TrackTable, step_lanes)

T = 0.02


def coop_manager(**overrides):
    cfg = ManagerConfig.coop_defaults()
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return TrackManager(cfg, process=ProcessNoiseParams(),
                        noise=MeasurementNoiseParams())


def pixel_manager():
    return TrackManager(ManagerConfig.pixel_defaults())


def run_frames(manager, frames):
    """frames: list of (detections, device) starting at t=0, spaced by T."""
    logs = []
    for i, (dets, dev) in enumerate(frames):
        logs.append(manager.step(dets, i * T, device=dev))
    return logs


class TestDefaults:
    def test_pixel_thresholds(self):
        cfg = ManagerConfig.pixel_defaults()
        assert (cfg.gate_distance, cfg.miss_ratio_max, cfg.update_timeout,
                cfg.min_valid_age) == (40.0, 0.30, 1.0, 4)

    def test_coop_thresholds(self):
        cfg = ManagerConfig.coop_defaults()
        assert (cfg.gate_distance, cfg.miss_ratio_max, cfg.update_timeout,
                cfg.min_valid_age) == (2.0, 0.50, 2.0, 4)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ManagerConfig(gate_distance=0.0, miss_ratio_max=0.3,
                          update_timeout=1.0, min_valid_age=4)
        with pytest.raises(ValueError):
            ManagerConfig(gate_distance=2.0, miss_ratio_max=1.0,
                          update_timeout=1.0, min_valid_age=4)


class TestLifecycle:
    def test_first_detection_spawns_tentative_track(self):
        manager = coop_manager()
        log = manager.step([(3.0, 4.0)], 0.0)
        assert len(manager.tracks) == 1
        track = manager.tracks[0]
        assert track.status is TrackStatus.TENTATIVE
        assert track.age == 1
        assert track.position() == (3.0, 4.0)
        assert [(r.track_id, r.detection_id) for r in log] == [(0, 0)]

    def test_promotion_at_min_valid_age(self):
        manager = coop_manager()
        for i in range(4):
            manager.step([(0.1 * i, 0.0)], i * T)
            expected = TrackStatus.VALID if i >= 3 else TrackStatus.TENTATIVE
            assert manager.tracks[0].status is expected

    def test_timeout_removes_track(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        t, steps = T, 0
        while manager.tracks and steps < 300:
            manager.step([], t)
            t += T
            steps += 1
        # miss ratio trips first here; the track must be gone well before 300
        assert not manager.tracks

    def test_timeout_rule_alone(self):
        # keep the miss ratio low with a huge max, so only the timeout fires
        manager = coop_manager(miss_ratio_max=0.999)
        manager.step([(0.0, 0.0)], 0.0)
        n_gap = int(round(2.0 / T))
        for i in range(1, n_gap + 1):
            manager.step([], i * T)
            assert manager.tracks, f"track dropped too early at step {i}"
        # first step where the gap exceeds the 2 s timeout
        manager.step([], (n_gap + 1) * T)
        assert not manager.tracks

    def test_miss_ratio_rule(self):
        manager = coop_manager()
        for i in range(8):
            manager.step([(0.0, 0.0)], i * T)
        track = manager.tracks[0]
        # 8 hits; alternate misses until the 50 % ratio trips
        t = 8 * T
        while manager.tracks:
            manager.step([], t)
            t += T
            assert t < 1.0
        assert track.status is TrackStatus.LOST

    def test_device_updates_do_not_reset_position_timeout(self):
        manager = coop_manager(miss_ratio_max=0.99)
        for i in range(6):
            manager.step([(2.0 * i * T, 0.0)], i * T)
        assert manager.tracks[0].status is TrackStatus.VALID
        # only device data from now on: the filter keeps updating but the
        # position timeout must still remove the track
        t = 6 * T
        while manager.tracks:
            manager.step([], t, device=(0.0, 2.0, 0.3))
            t += T
            assert t < 6 * T + 2.5
        assert t > 2.0   # survived right up to the timeout

    def test_out_of_order_timestamps_rejected(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        with pytest.raises(DataError):
            manager.step([(0.0, 0.0)], 0.0)


class TestAssignment:
    def test_unambiguous_nearest_neighbor_matching(self):
        manager = coop_manager()
        positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
        manager.step(positions, 0.0)
        ids = {tuple(np.round(tr.position(), 6)): tr.id for tr in manager.tracks}
        # slightly moved detections must bind to their nearest tracks
        moved = [(0.1, 0.0), (10.1, 0.0), (0.1, 10.0)]
        log = manager.step(moved, T)
        by_track = {r.track_id: r.detection_id for r in log}
        assert by_track[ids[(0.0, 0.0)]] == 0
        assert by_track[ids[(10.0, 0.0)]] == 1
        assert by_track[ids[(0.0, 10.0)]] == 2

    def test_matching_is_one_to_one(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0), (1.0, 0.0)], 0.0)
        log = manager.step([(0.2, 0.0), (0.9, 0.0), (5.0, 5.0)], T)
        det_ids = [r.detection_id for r in log if r.detection_id is not None]
        track_ids = [r.track_id for r in log if r.detection_id is not None]
        assert len(det_ids) == len(set(det_ids))
        assert len(track_ids) == len(set(track_ids))

    def test_gated_detection_never_updates_far_track(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        log = manager.step([(5.0, 0.0)], T)   # 5 m > 2 m gate
        by_track = {r.track_id: r.detection_id for r in log}
        assert by_track[0] is None    # old track missed
        assert by_track[1] == 0       # new track spawned on the detection
        assert len(manager.tracks) == 2

    def test_device_binds_only_to_valid_tracks(self):
        manager = coop_manager()
        log = manager.step([(0.0, 0.0)], 0.0, device=(0.0, 0.0, 0.3))
        assert all(not r.device_bound for r in log)
        for i in range(1, 5):
            log = manager.step([(0.0, 0.0)], i * T, device=(0.0, 0.0, 0.3))
        assert manager.tracks[0].status is TrackStatus.VALID
        assert any(r.device_bound for r in log)


class TestBatchedAssignment:
    """Detection assignment over a table of many lanes equals Munkres on each
    lane's gated cost matrix alone."""

    def test_matches_munkres_lane_by_lane(self):
        rng = np.random.default_rng(606)
        cfg = ManagerConfig.coop_defaults()
        # half-metre grid: many equal distances, and many exactly at the
        # 2 m gate (which is allowed)
        grid = np.arange(0.0, 3.01, 0.5)
        reached = set()
        for _ in range(200):
            n_lanes = int(rng.integers(1, 9))
            tracks = [grid[rng.integers(len(grid), size=(int(rng.integers(4)), 2))]
                      for _ in range(n_lanes)]
            dets = [grid[rng.integers(len(grid), size=(int(rng.integers(4)), 2))]
                    for _ in range(n_lanes)]
            table = TrackTable(n_lanes, cfg)
            lanes = np.arange(n_lanes)
            # frame 0 spawns each lane's tracks at rest; frame 1 predicts
            # them in place and assigns the detections
            no_device = (np.zeros((n_lanes, 3)), np.zeros(n_lanes, dtype=bool))
            step_lanes(table, np.zeros(n_lanes),
                       np.repeat(lanes, [len(t) for t in tracks]),
                       np.concatenate(tracks), *no_device)
            log = step_lanes(table, np.full(n_lanes, T),
                             np.repeat(lanes, [len(d) for d in dets]),
                             np.concatenate(dets), *no_device)
            # the log's first entries are the stepped tracks, in table order
            stepped = log.lane[:sum(len(t) for t in tracks)]
            for lane in range(n_lanes):
                in_lane = np.flatnonzero(stepped == lane)
                got = [(i, d) for i, d in enumerate(log.detection_id[in_lane].tolist())
                       if d >= 0]
                expected = munkres_solve(gated_cost_matrix(tracks[lane], dets[lane],
                                                           cfg.gate_distance))
                assert got == expected
                reached.add((min(len(tracks[lane]), 2), min(len(dets[lane]), 2)))
        assert reached == {(a, b) for a in range(3) for b in range(3)}


class TestHeadingInit:
    def test_init_fires_once_displacement_clears_noise_floor(self):
        manager = coop_manager()
        floor = 3.0 * math.hypot(0.15, 0.15)
        for i in range(12):
            manager.step([(4.0 * i * T, 0.0)], i * T)
            s = manager.tracks[0].estimate.state
            if 4.0 * i * T <= floor:
                assert manager.tracks[0].first_fix is not None
        assert manager.tracks[0].first_fix is None
        assert s.v == pytest.approx(4.0, abs=0.5)
        assert abs(s.gamma) < 0.2

    def test_stationary_track_keeps_neutral_heading(self):
        manager = coop_manager()
        for i in range(20):
            manager.step([(0.01 * (i % 2), 0.0)], i * T)
        assert manager.tracks[0].first_fix is not None
        assert manager.tracks[0].estimate.state.v == pytest.approx(0.0, abs=0.3)

    def test_noise_free_straight_run_converges_tightly(self):
        manager = coop_manager()
        v = 3.0
        for i in range(100):
            manager.step([(v * i * T, 0.0)], i * T)
        s = manager.tracks[0].estimate.state
        assert s.x == pytest.approx(v * 99 * T, abs=0.01)
        assert s.v == pytest.approx(v, abs=0.05)


class TestCoast:
    """A step without detections or device reading coasts each track on
    prediction alone."""

    def test_straight_line_coast_advances_position(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        track = manager.tracks[0]
        track.x = BikeState(0.0, 0.0, 0.0, 0.0, 2.0).as_array()
        manager.step([], 1.0)
        assert track.estimate.state.x == pytest.approx(2.0, abs=1e-9)
        assert track.estimate.state.y == pytest.approx(0.0, abs=1e-12)

    def test_turning_coast_matches_chained_single_steps(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        track = manager.tracks[0]
        start = StateEstimate(BikeState(0.0, 0.0, 0.3, 0.6, 3.0),
                              track.estimate.covariance.copy())
        track.x = start.state.as_array()
        manager.step([], 2.0)
        chained = start
        p = ProcessNoiseParams()
        for _ in range(100):
            chained = ekf_predict(chained, p)
        assert track.estimate.state.x == pytest.approx(chained.state.x, abs=1e-9)
        assert track.estimate.state.y == pytest.approx(chained.state.y, abs=1e-9)


class TestPixelMode:
    """The pixel stage's pinned thresholds drive the same lifecycle."""

    def test_pixel_track_lifecycle(self):
        manager = pixel_manager()
        for i in range(4):
            manager.step([(100.0 + i, 200.0)], i * T)
        assert manager.tracks[0].status is TrackStatus.VALID
        # the pixel stage's one-second timeout
        t, steps = 4 * T, 0
        manager.config.miss_ratio_max = 0.99
        while manager.tracks and steps < 60:
            manager.step([], t)
            t += T
            steps += 1
        assert not manager.tracks
        assert steps == pytest.approx(1.0 / T + 1, abs=1)

    def test_pixel_gate_is_forty_pixels(self):
        manager = pixel_manager()
        manager.step([(100.0, 100.0)], 0.0)
        log = manager.step([(100.0 + 41.0, 100.0)], T)
        by_track = {r.track_id: r.detection_id for r in log}
        assert by_track[0] is None   # 41 px exceeds the 40 px gate
        assert by_track[1] == 0      # the detection starts a new track
        # the missed newborn trips the 30 % miss ratio and is pruned
        assert [tr.id for tr in manager.tracks] == [1]
