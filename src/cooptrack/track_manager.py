"""Track lifecycle with memory functionality for the metric-space stage.

Each track carries a bike-model EKF state.  Tracks coast on prediction alone
through detection gaps and are dropped once the miss ratio or the
position-update timeout trips; the thresholds come from a ManagerConfig
(2 m gate, 50 % miss ratio, 2 s timeout by default).

step_lanes advances several managers ("lanes", e.g. one per scene and
model) by one frame together: the filter work of all their tracks runs as
one batched EKF predict, one batched device-binding distance computation
and at most one batched EKF update per measurement kind.  TrackManager.step
is its one-lane case.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ekf
# assign_device binds one reading; step_lanes binds the readings of all
# lanes at once (_bind_devices).  It stays importable from this module for
# callers that look it up here.
from .association import (DEVICE_GATE, assign_device, device_residuals,  # noqa: F401
                          gated_cost_matrix, munkres_solve, nearest_within_gate,
                          penalized_mahalanobis_batch)
from .errors import DataError


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    VALID = "valid"
    LOST = "lost"


@dataclass
class ManagerConfig:
    gate_distance: float          # m (px for the pixel stage)
    miss_ratio_max: float
    update_timeout: float         # s
    min_valid_age: int            # frames

    def __post_init__(self):
        if not self.gate_distance > 0:
            raise ValueError("gate_distance must be positive")
        if not 0 < self.miss_ratio_max < 1:
            raise ValueError("miss_ratio_max must be in (0, 1)")
        if not self.update_timeout > 0:
            raise ValueError("update_timeout must be positive")
        if self.min_valid_age < 1:
            raise ValueError("min_valid_age must be >= 1")

    @classmethod
    def pixel_defaults(cls):
        """The 2D pixel pre-tracking stage's thresholds (40 px gate, 30 %
        miss ratio, 1 s timeout)."""
        return cls(gate_distance=40.0, miss_ratio_max=0.30, update_timeout=1.0,
                   min_valid_age=4)

    @classmethod
    def coop_defaults(cls):
        return cls(gate_distance=2.0, miss_ratio_max=0.50, update_timeout=2.0,
                   min_valid_age=4)


@dataclass
class Track:
    id: int
    x: np.ndarray                 # bike state [x, y, gamma, gamma_dot, v]
    P: np.ndarray                 # covariance of x
    age: int
    miss_count: int
    last_position_update: float
    status: TrackStatus
    # spawning fix; used once to initialize heading/speed from the first
    # above-noise displacement
    first_fix: tuple | None = None
    heading_initialized: bool = False

    @property
    def estimate(self) -> ekf.StateEstimate:
        """The track state as a StateEstimate."""
        return ekf.StateEstimate(ekf.BikeState.from_array(self.x), self.P)

    @estimate.setter
    def estimate(self, e: ekf.StateEstimate):
        self.x = e.state.as_array()
        self.P = np.asarray(e.covariance, dtype=float)

    def position(self):
        return float(self.x[0]), float(self.x[1])


@dataclass
class AssignmentRecord:
    """One log row per live track per step."""

    t: float
    track_id: int
    detection_id: int | None
    device_bound: bool


class TrackManager:
    """Owns the track list of one scene; single-threaded per instance."""

    def __init__(self, config: ManagerConfig,
                 process: ekf.ProcessNoiseParams | None = None,
                 noise: ekf.MeasurementNoiseParams | None = None,
                 device_gate: float = DEVICE_GATE):
        self.config = config
        self.process = process or ekf.ProcessNoiseParams()
        self.noise = noise or ekf.MeasurementNoiseParams()
        self.device_gate = device_gate
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_t = None

    def coast(self, track: Track, t_now: float) -> Track:
        """Prediction-only propagation of one track to t_now."""
        if track.status is TrackStatus.LOST:
            raise ValueError("cannot coast a lost track")
        base = self._last_t if self._last_t is not None else t_now
        dt = t_now - base
        if dt > 0:
            _predict([(self, track, dt)])
        return track

    def _spawn(self, position, t_now):
        px, py = float(position[0]), float(position[1])
        track = Track(id=self._next_id, x=np.array([px, py, 0.0, 0.0, 0.0]),
                      P=ekf.newborn_covariance(self.noise), age=1, miss_count=0,
                      last_position_update=t_now, status=TrackStatus.TENTATIVE,
                      first_fix=(t_now, px, py))
        self._next_id += 1
        self.tracks.append(track)
        return track

    def _maybe_init_heading(self, track: Track, position, t_now):
        """Set gamma and v from the displacement since the first fix.

        gamma and v are unobservable from one fix, and a 20 ms baseline is
        buried in detection noise, so the init waits for the first assigned
        detection whose displacement from the spawning fix clears the noise
        floor; that baseline pins the heading sign (a wrong sign leaves the
        filter in the mirrored gamma+pi, -v basin).
        """
        if track.heading_initialized or track.first_fix is None:
            return
        t_first, x_first, y_first = track.first_fix
        dt = t_now - t_first
        if dt <= 0:
            return
        dx, dy = position[0] - x_first, position[1] - y_first
        noise_floor = 3.0 * math.hypot(self.noise.sigma_x, self.noise.sigma_y)
        if math.hypot(dx, dy) <= noise_floor:
            return
        x = track.x.copy()
        x[2] = math.atan2(dy, dx)
        x[4] = math.hypot(dx, dy) / dt
        track.x = x
        track.heading_initialized = True

    def step(self, detections, t_now, device=None):
        """Advance one frame.

        detections: array-like of (x, y);
        device: optional (gamma_dot, v, sigma_v) tuple.
        Returns the list of AssignmentRecords for this step.
        """
        return step_lanes([self], [detections], [t_now], [device])[0]

    def valid_tracks(self):
        return [tr for tr in self.tracks if tr.status is TrackStatus.VALID]


def _sub_steps(dt, T):
    """Step lengths covering dt: whole filter steps T, then the remainder."""
    steps = []
    remaining = dt
    while remaining > T + 1e-9:
        steps.append(T)
        remaining -= T
    if remaining > 1e-9:
        steps.append(remaining)
    return steps


def _stack(tracks):
    """States (N, d) and covariances (N, d, d) of tracks."""
    return np.array([tr.x for tr in tracks]), np.array([tr.P for tr in tracks])


def _predict(items):
    """Advance each (manager, track, dt) by one batched EKF predict per
    round of sub-steps."""
    items = [(manager, track, _sub_steps(dt, manager.process.T))
             for manager, track, dt in items]
    for i in range(max((len(steps) for _, _, steps in items), default=0)):
        live = [(manager, track, steps[i]) for manager, track, steps in items
                if len(steps) > i]
        x, P = ekf.ekf_predict_batch(
            *_stack([track for _, track, _ in live]),
            np.array([step for _, _, step in live]),
            np.array([ekf.process_noise_variances(manager.process)
                      for manager, _, _ in live]))
        for (_, track, _), x_k, P_k in zip(live, x, P):
            track.x, track.P = x_k, P_k


def _bind_devices(managers, devices):
    """Per lane, the id of the valid track its device reading binds to, or
    None: the nearest by penalized Mahalanobis distance within the lane's
    gate, computed for every lane in one batch."""
    rows = []                     # (lane, track, reading, noise variances)
    for lane, (manager, device) in enumerate(zip(managers, devices)):
        valid = manager.valid_tracks() if device is not None else []
        if valid:
            r = ekf.measurement_noise_variances(
                ekf.MeasurementKind.DEVICE_ONLY, manager.noise, manager.process,
                device[2])
            rows += [(lane, track, device[:2], r) for track in valid]
    bound = [None] * len(managers)
    if not rows:
        return bound
    y, S = device_residuals(np.array([z for _, _, z, _ in rows], dtype=float),
                            *_stack([track for _, track, _, _ in rows]),
                            np.array([r for _, _, _, r in rows]))
    distances = penalized_mahalanobis_batch(y, S).tolist()
    for lane, group in itertools.groupby(range(len(rows)), lambda i: rows[i][0]):
        group = list(group)
        idx = nearest_within_gate([distances[i] for i in group],
                                  managers[lane].device_gate)
        if idx is not None:
            bound[lane] = rows[group[idx]][1].id
    return bound


def _update(items):
    """Apply each (manager, track, detection or None, device or None, t) by
    one batched EKF update per measurement kind."""
    groups = {}
    for manager, track, detection, device, t_now in items:
        z = []
        if detection is not None:
            manager._maybe_init_heading(track, detection, t_now)
            z += [detection[0], detection[1]]
        if device is not None:
            z += [device[0], device[1]]
        if not z:
            continue
        if detection is None:
            kind = ekf.MeasurementKind.DEVICE_ONLY
        elif device is None:
            kind = ekf.MeasurementKind.POSITION_ONLY
        else:
            kind = ekf.MeasurementKind.POSITION_AND_DEVICE
        r = ekf.measurement_noise_variances(
            kind, manager.noise, manager.process,
            None if device is None else device[2])
        groups.setdefault(kind, []).append((track, z, r))
    for kind, group in groups.items():
        x, P = ekf.ekf_update_batch(
            *_stack([track for track, _, _ in group]),
            np.array([z for _, z, _ in group], dtype=float),
            np.array([r for _, _, r in group]), kind)
        for (track, _, _), x_k, P_k in zip(group, x, P):
            track.x, track.P = x_k, P_k


def step_lanes(managers, detections, times, devices):
    """Advance every manager ("lane") by one frame, all in lockstep.

    detections[k], times[k] and devices[k] are the arguments of
    TrackManager.step for managers[k].  Returns the list of
    AssignmentRecords of each lane.  Lanes are independent: each gets the
    records and track states it would get stepped alone.
    """
    for manager, t_now in zip(managers, times):
        if manager._last_t is not None and not t_now > manager._last_t:
            raise DataError(f"timestamps must be strictly increasing "
                            f"({t_now} after {manager._last_t})")
    dets_by_lane = [np.asarray(d, dtype=float).reshape(-1, 2) for d in detections]

    _predict([(manager, track, t_now - manager._last_t)
              for manager, t_now in zip(managers, times)
              if manager._last_t is not None for track in manager.tracks])

    # detection-to-track assignment on predicted positions, lane by lane
    matches = []
    for manager, dets in zip(managers, dets_by_lane):
        pairs = {}
        if manager.tracks and len(dets):
            cm = gated_cost_matrix([track.x[:2] for track in manager.tracks],
                                   dets, manager.config.gate_distance)
            pairs = dict(munkres_solve(cm))
        matches.append(pairs)

    # device-to-track binding on predicted states (valid tracks only)
    bound = _bind_devices(managers, devices)

    logs = []
    updates = []
    for manager, dets, t_now, device, pairs, bound_id in zip(
            managers, dets_by_lane, times, devices, matches, bound):
        log = []
        for ti, track in enumerate(manager.tracks):
            det_idx = pairs.get(ti)
            dev = device if bound_id == track.id else None
            track.age += 1
            updates.append((manager, track,
                            None if det_idx is None else dets[det_idx], dev, t_now))
            if det_idx is not None:
                track.last_position_update = t_now
            else:
                track.miss_count += 1
            log.append(AssignmentRecord(t_now, track.id, det_idx, dev is not None))
        logs.append(log)
    _update(updates)

    for manager, dets, t_now, pairs, log in zip(managers, dets_by_lane, times,
                                               matches, logs):
        assigned = set(pairs.values())
        for det_idx in range(len(dets)):
            if det_idx not in assigned:
                track = manager._spawn(dets[det_idx], t_now)
                log.append(AssignmentRecord(t_now, track.id, det_idx, False))

        # prune, then promote; the timeout comparison tolerates grid-time
        # rounding so a gap of nominally exactly `update_timeout` survives
        survivors = []
        for track in manager.tracks:
            timed_out = ((t_now - track.last_position_update)
                         > manager.config.update_timeout + 1e-9)
            missed_out = track.miss_count / track.age > manager.config.miss_ratio_max
            if timed_out or missed_out:
                track.status = TrackStatus.LOST
            else:
                if (track.status is TrackStatus.TENTATIVE
                        and track.age >= manager.config.min_valid_age):
                    track.status = TrackStatus.VALID
                survivors.append(track)
        manager.tracks = survivors
        manager._last_t = t_now
    return logs
