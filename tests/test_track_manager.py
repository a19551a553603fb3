import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack.ekf import (BikeState, MeasurementNoiseParams,
                           ProcessNoiseParams, StateEstimate, ekf_predict,
                           measurement_noise_variances)
from cooptrack.association import assign_device, gated_cost_matrix, munkres_solve
from cooptrack.errors import DataError
from cooptrack.track_manager import (ManagerConfig, StepLog, TrackManager,
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


def detection_of_track(log):
    """{track id: index of its detection, -1 for none} of a StepLog."""
    return dict(zip(log.track_id.tolist(), log.detection_id.tolist()))


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
        table = manager.table
        assert table.id.tolist() == [0]
        assert not table.valid[0]
        assert table.age[0] == 1
        assert table.x[0, :2].tolist() == [3.0, 4.0]
        assert detection_of_track(log) == {0: 0}

    def test_promotion_at_min_valid_age(self):
        manager = coop_manager()
        for i in range(4):
            manager.step([(0.1 * i, 0.0)], i * T)
            assert manager.table.valid.tolist() == [i >= 3]

    def test_timeout_removes_track(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        t, steps = T, 0
        while len(manager.table.id) and steps < 300:
            manager.step([], t)
            t += T
            steps += 1
        # miss ratio trips first here; the track must be gone well before 300
        assert not len(manager.table.id)

    def test_timeout_rule_alone(self):
        # keep the miss ratio low with a huge max, so only the timeout fires
        manager = coop_manager(miss_ratio_max=0.999)
        manager.step([(0.0, 0.0)], 0.0)
        n_gap = int(round(2.0 / T))
        for i in range(1, n_gap + 1):
            manager.step([], i * T)
            assert len(manager.table.id), f"track dropped too early at step {i}"
            assert manager.table.last_update[0] == 0.0
        # first step where the gap exceeds the 2 s timeout
        manager.step([], (n_gap + 1) * T)
        assert not len(manager.table.id)

    def test_miss_ratio_rule(self):
        manager = coop_manager()
        for i in range(8):
            manager.step([(0.0, 0.0)], i * T)
        # 8 hits, then misses until the 50 % ratio trips: the ninth miss
        # makes 9 of 17 frames
        t, misses = 8 * T, 0
        while len(manager.table.id):
            assert manager.table.misses[0] == misses
            manager.step([], t)
            t += T
            misses += 1
        assert misses == 9

    def test_device_updates_do_not_reset_position_timeout(self):
        manager = coop_manager(miss_ratio_max=0.99)
        for i in range(6):
            manager.step([(2.0 * i * T, 0.0)], i * T)
        assert manager.table.valid.tolist() == [True]
        # only device data from now on: the filter keeps updating but the
        # position timeout must still remove the track
        t = 6 * T
        while len(manager.table.id):
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
        table = manager.table
        ids = {tuple(np.round(xy, 6).tolist()): i
               for xy, i in zip(table.x[:, :2], table.id.tolist())}
        # slightly moved detections must bind to their nearest tracks
        moved = [(0.1, 0.0), (10.1, 0.0), (0.1, 10.0)]
        by_track = detection_of_track(manager.step(moved, T))
        assert by_track[ids[(0.0, 0.0)]] == 0
        assert by_track[ids[(10.0, 0.0)]] == 1
        assert by_track[ids[(0.0, 10.0)]] == 2

    def test_matching_is_one_to_one(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0), (1.0, 0.0)], 0.0)
        log = manager.step([(0.2, 0.0), (0.9, 0.0), (5.0, 5.0)], T)
        matched = log.detection_id >= 0
        det_ids = log.detection_id[matched].tolist()
        track_ids = log.track_id[matched].tolist()
        assert len(det_ids) == len(set(det_ids))
        assert len(track_ids) == len(set(track_ids))

    def test_gated_detection_never_updates_far_track(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        log = manager.step([(5.0, 0.0)], T)   # 5 m > 2 m gate
        # the old track missed; a new one spawned on the detection
        assert detection_of_track(log) == {0: -1, 1: 0}
        assert manager.table.id.tolist() == [0, 1]

    def test_device_binds_only_to_valid_tracks(self):
        manager = coop_manager()
        log = manager.step([(0.0, 0.0)], 0.0, device=(0.0, 0.0, 0.3))
        assert not log.device_bound.any()
        for i in range(1, 5):
            log = manager.step([(0.0, 0.0)], i * T, device=(0.0, 0.0, 0.3))
            # bound from the step after the one that promotes the track
            assert log.device_bound.tolist() == [i == 4]
        assert manager.table.valid.tolist() == [True]


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
            no_device = (np.zeros((n_lanes, 4)), np.zeros(n_lanes, dtype=bool))
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


class TestDeviceBinding:
    """A lane with two valid tracks, beside a lane with one, binds its device
    reading as assign_device binds it on the same predicted states."""

    @pytest.mark.parametrize("speeds,v,expected", [
        ((2.0, 3.0), 2.2, 0),
        ((2.0, 3.0), 2.8, 1),
        # an exact tie goes to the lower row
        ((2.0, 2.0), 2.5, 0),
        # beyond the gate of both
        ((2.0, 3.0), 200.0, None),
    ])
    def test_two_valid_tracks_bind_as_assign_device(self, speeds, v, expected):
        dt = 2.0 ** -6      # exact, so the binding step predicts once by dt
        table = TrackTable(2, ManagerConfig.coop_defaults())
        lanes = np.array([0, 0, 1])
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        no_device = (np.zeros((2, 4)), np.zeros(2, dtype=bool))
        for i in range(4):
            step_lanes(table, np.full(2, i * dt), lanes, xy, *no_device)
        assert table.valid.all() and table.lane.tolist() == [0, 0, 1]
        table.x[:2, 3:] = [(0.0, speed) for speed in speeds]
        table.P[1] = table.P[0]
        noise, process, sigma_v = MeasurementNoiseParams(), ProcessNoiseParams(), 0.3
        predicted = [ekf_predict(StateEstimate(BikeState.from_array(table.x[row]),
                                               table.P[row]), ProcessNoiseParams(T=dt))
                     for row in range(3)]
        r = measurement_noise_variances(noise, process, sigma_v)[2:]
        # lane 1's reading sits on its one track
        devices = np.array([[0.0, v, *r], [*table.x[2, 3:], *r]])
        log = step_lanes(table, np.full(2, 4 * dt), np.zeros(0, dtype=np.int64),
                         np.zeros((0, 2)), devices, np.ones(2, dtype=bool))
        assert assign_device(0.0, v, sigma_v, predicted[:2], noise, process,
                             table.device_gate) == expected
        assert assign_device(*devices[1, :2], sigma_v, predicted[2:], noise, process,
                             table.device_gate) == 0
        assert log.device_bound.tolist() == [expected == 0, expected == 1, True]


class TestEmptyAndDuplicateDetections:
    """Frames with no detection, or with one detection repeated, in random
    lanes of a table: no exception, finite states, and every lane gets the
    log and states it gets run alone through TrackManager.step."""

    @given(data=st.data(), n_lanes=st.integers(1, 4), n_frames=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lanes_match_lanes_run_alone(self, data, n_lanes, n_frames, seed):
        # per lane and frame: how many copies of the cyclist's detection
        # (0: an empty frame) and whether a device reading comes with it
        frames = data.draw(st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                     min_size=n_lanes, max_size=n_lanes),
            min_size=n_frames, max_size=n_frames))
        rng = np.random.default_rng(seed)
        start = rng.uniform(-20.0, 20.0, size=(n_lanes, 2))
        velocity = rng.uniform(-6.0, 6.0, size=(n_lanes, 2))
        speed = np.hypot(*velocity.T)
        table = TrackTable(n_lanes, ManagerConfig.coop_defaults())
        managers = [coop_manager() for _ in range(n_lanes)]
        lanes = np.arange(n_lanes)
        for i, frame in enumerate(frames):
            t = i * T
            counts = [count for count, _ in frame]
            has_device = np.array([dev for _, dev in frame])
            xy = start + velocity * t + rng.normal(0.0, 0.1, size=(n_lanes, 2))
            dets = [np.repeat(xy[lane][None], count, axis=0)
                    for lane, count in enumerate(counts)]
            devices = np.column_stack([np.zeros(n_lanes), speed,
                                       np.full(n_lanes, 0.3)])
            # step_lanes takes each reading with its noise variances
            r = measurement_noise_variances(MeasurementNoiseParams(),
                                            ProcessNoiseParams(), devices[:, 2])
            log = step_lanes(table, np.full(n_lanes, t), np.repeat(lanes, counts),
                             np.concatenate(dets),
                             np.column_stack([devices[:, :2], r[:, 2:]]), has_device)
            assert np.isfinite(table.x).all() and np.isfinite(table.P).all()
            for lane, manager in enumerate(managers):
                alone_log = manager.step(dets[lane], t, device=tuple(devices[lane])
                                         if has_device[lane] else None)
                in_lane = log.lane == lane
                assert not alone_log.lane.any()
                for got, alone in zip(log[1:], alone_log[1:]):
                    assert np.array_equal(got[in_lane], alone)
                rows = table.lane == lane
                alone = manager.table
                assert np.array_equal(table.id[rows], alone.id)
                assert np.array_equal(table.valid[rows], alone.valid)
                assert np.array_equal(table.x[rows], alone.x)
                assert np.array_equal(table.P[rows], alone.P)


def _two_cyclists(n_frames, seed):
    """Per frame, the first cyclist's detection (None when it drops out, 5 %
    of frames) and the other detections: a second cyclist from frame 10 on
    and, at frame 40, a far clutter detection whose track dies at 42."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_frames):
        t = i * T
        noise = rng.normal(0.0, 0.1, size=(2, 2))
        first = (np.array([3.0 * t, 1.0 * t]) + noise[0]
                 if rng.random() > 0.05 else None)
        others = [np.array([8.0 - t, -4.0 + 2.0 * t]) + noise[1]] if i >= 10 else []
        if i == 40:
            others.append(np.array([50.0, 50.0]))
        frames.append((first, others))
    return frames


class TestCopyLane:
    """A lane that idles until some frame and then starts as a copy of
    another lane's tracks steps on exactly as a lane run alone from frame 0
    on the same input: the source's input before the copy, its own after."""

    @pytest.mark.parametrize("fork,held", [
        (1, 1), (10, 1),     # the copy's first step spawns the second track
        (11, 2),             # the source holds two tracks, one just spawned
        (41, 3), (70, 2)])
    def test_copy_equals_lane_run_alone(self, fork, held):
        frames = _two_cyclists(100, seed=17)
        cfg = ManagerConfig.coop_defaults()
        r = measurement_noise_variances(MeasurementNoiseParams(),
                                        ProcessNoiseParams(), 0.3)[2:]
        devices = np.tile([0.0, math.hypot(3.0, 1.0), *r], (2, 1))
        table = TrackTable(2, cfg)
        alone = TrackTable(1, cfg)
        for i, (first, others) in enumerate(frames):
            source = ([] if first is None else [first]) + others
            # the copy's input loses the first cyclist for 30 frames from
            # the fork on
            copy = others if fork <= i < fork + 30 else source
            started = i >= fork
            if i == fork:
                assert np.count_nonzero(table.lane == 0) == held
                table.copy_lane(0, 1)
            dets = source + (copy if started else [])
            step_lanes(table, np.array([i * T, i * T if started else np.nan]),
                       np.repeat([0, 1], [len(source), len(copy) if started else 0]),
                       np.reshape(dets, (-1, 2)), devices, np.array([True, started]))
            step_lanes(alone, np.array([i * T]), np.zeros(len(copy), dtype=np.int64),
                       np.reshape(copy, (-1, 2)), devices[:1], np.ones(1, dtype=bool))
            if started:
                rows = table.lane == 1
                for name in ("x", "P", "id", "valid", "age", "misses"):
                    assert np.array_equal(getattr(table, name)[rows],
                                          getattr(alone, name)), (i, name)
            if i == fork and fork == 10:
                assert np.count_nonzero(table.lane == 1) == 2
        # the occlusion made the copy's tracks differ from the source's
        assert not np.array_equal(table.x[table.lane == 0], table.x[table.lane == 1])

    def test_step_without_log_moves_no_state(self):
        frames = _two_cyclists(60, seed=5)
        with_log, without = (TrackTable(1, ManagerConfig.coop_defaults())
                             for _ in range(2))
        no_device = (np.zeros((1, 4)), np.zeros(1, dtype=bool))
        for i, (first, others) in enumerate(frames):
            dets = np.reshape(([] if first is None else [first]) + others, (-1, 2))
            lanes = np.zeros(len(dets), dtype=np.int64)
            assert isinstance(step_lanes(with_log, np.array([i * T]), lanes, dets,
                                         *no_device), StepLog)
            assert step_lanes(without, np.array([i * T]), lanes, dets, *no_device,
                              log=False) is None
            for name in TrackTable.ROW_FIELDS:
                assert np.array_equal(getattr(with_log, name), getattr(without, name))


class TestHeadingInit:
    def test_init_fires_once_displacement_clears_noise_floor(self):
        manager = coop_manager()
        floor = 3.0 * math.hypot(0.15, 0.15)
        table = manager.table
        for i in range(12):
            manager.step([(4.0 * i * T, 0.0)], i * T)
            if 4.0 * i * T <= floor:
                assert table.has_fix[0]
                assert table.first_fix[0].tolist() == [0.0, 0.0, 0.0]
        assert not table.has_fix[0]
        assert table.x[0, 4] == pytest.approx(4.0, abs=0.5)     # v
        assert abs(table.x[0, 2]) < 0.2                         # gamma

    def test_stationary_track_keeps_neutral_heading(self):
        manager = coop_manager()
        for i in range(20):
            manager.step([(0.01 * (i % 2), 0.0)], i * T)
        assert manager.table.has_fix[0]
        assert manager.table.x[0, 4] == pytest.approx(0.0, abs=0.3)

    def test_noise_free_straight_run_converges_tightly(self):
        manager = coop_manager()
        v = 3.0
        for i in range(100):
            manager.step([(v * i * T, 0.0)], i * T)
        x = manager.table.x[0]
        assert x[0] == pytest.approx(v * 99 * T, abs=0.01)
        assert x[4] == pytest.approx(v, abs=0.05)


class TestCoast:
    """A step without detections or device reading coasts each track on
    prediction alone."""

    def test_straight_line_coast_advances_position(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        table = manager.table
        table.x[0] = BikeState(0.0, 0.0, 0.0, 0.0, 2.0).as_array()
        manager.step([], 1.0)
        assert table.x[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert table.x[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_turning_coast_matches_chained_single_steps(self):
        manager = coop_manager()
        manager.step([(0.0, 0.0)], 0.0)
        table = manager.table
        start = StateEstimate(BikeState(0.0, 0.0, 0.3, 0.6, 3.0), table.P[0].copy())
        table.x[0] = start.state.as_array()
        manager.step([], 2.0)
        chained = start
        p = ProcessNoiseParams()
        for _ in range(100):
            chained = ekf_predict(chained, p)
        assert table.x[0, 0] == pytest.approx(chained.state.x, abs=1e-9)
        assert table.x[0, 1] == pytest.approx(chained.state.y, abs=1e-9)


class TestPixelMode:
    """The pixel stage's pinned thresholds drive the same lifecycle."""

    def test_pixel_track_lifecycle(self):
        manager = pixel_manager()
        for i in range(4):
            manager.step([(100.0 + i, 200.0)], i * T)
        assert manager.table.valid.tolist() == [True]
        # the pixel stage's one-second timeout
        t, steps = 4 * T, 0
        manager.table.config.miss_ratio_max = 0.99
        while len(manager.table.id) and steps < 60:
            manager.step([], t)
            t += T
            steps += 1
        assert not len(manager.table.id)
        assert steps == pytest.approx(1.0 / T + 1, abs=1)

    def test_pixel_gate_is_forty_pixels(self):
        manager = pixel_manager()
        manager.step([(100.0, 100.0)], 0.0)
        log = manager.step([(100.0 + 41.0, 100.0)], T)
        # 41 px exceeds the 40 px gate: the detection starts a new track
        assert detection_of_track(log) == {0: -1, 1: 0}
        # the missed newborn trips the 30 % miss ratio and is pruned
        assert manager.table.id.tolist() == [1]
