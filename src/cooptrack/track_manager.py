"""Track lifecycle with memory functionality.

One manager implementation serves both stages: the 2D pixel stage
(constant-velocity filter, 40 px gate, 30 % miss ratio, 1 s timeout) and the
3D cooperative stage (bike-model EKF, 2 m gate, 50 % miss ratio, 2 s
timeout).  Tracks coast on prediction alone through detection gaps and are
dropped once the miss ratio or the position-update timeout trips.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ekf
from . import pixel_track
from .association import (DEVICE_GATE, assign_device, gated_cost_matrix,
                          munkres_solve)
from .errors import DataError


class Mode(Enum):
    PIXEL_2D = "pixel2d"
    COOP_3D = "coop3d"


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    VALID = "valid"
    LOST = "lost"


@dataclass
class ManagerConfig:
    gate_distance: float          # px or m
    miss_ratio_max: float
    update_timeout: float         # s
    min_valid_age: int            # frames
    mode: Mode

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
        return cls(gate_distance=40.0, miss_ratio_max=0.30, update_timeout=1.0,
                   min_valid_age=4, mode=Mode.PIXEL_2D)

    @classmethod
    def coop_defaults(cls):
        return cls(gate_distance=2.0, miss_ratio_max=0.50, update_timeout=2.0,
                   min_valid_age=4, mode=Mode.COOP_3D)


@dataclass
class PixelFilterParams:
    """Noise defaults for the pixel stage (plausible for 1080p at 50 fps)."""

    q_px: float = 200.0           # px^2/s^3
    r_px: float = 2.0             # px
    init_vel_std: float = 100.0   # px/s


@dataclass
class Track:
    id: int
    estimate: object              # StateEstimate (coop) or PixelState (pixel)
    age: int
    miss_count: int
    last_position_update: float
    status: TrackStatus
    # spawning fix; used once to initialize heading/speed from the first
    # above-noise displacement (coop mode only)
    first_fix: tuple | None = None
    heading_initialized: bool = False

    def position(self):
        if isinstance(self.estimate, ekf.StateEstimate):
            return self.estimate.state.x, self.estimate.state.y
        return self.estimate.position()


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
                 pixel_params: PixelFilterParams | None = None,
                 device_gate: float = DEVICE_GATE):
        self.config = config
        self.process = process or ekf.ProcessNoiseParams()
        self.noise = noise or ekf.MeasurementNoiseParams()
        self.pixel_params = pixel_params or PixelFilterParams()
        self.device_gate = device_gate
        self.tracks: list[Track] = []
        self._next_id = 0
        self._last_t = None

    # -- prediction -------------------------------------------------------

    def _advance_estimate(self, estimate, dt):
        if self.config.mode is Mode.COOP_3D:
            T = self.process.T
            remaining = dt
            while remaining > T + 1e-9:
                estimate = ekf.ekf_predict(estimate, self.process)
                remaining -= T
            if remaining > 1e-9:
                step = ekf.ProcessNoiseParams(self.process.sigma_w_gamma_dot,
                                              self.process.sigma_w_v_dot, remaining)
                estimate = ekf.ekf_predict(estimate, step)
            return estimate
        return pixel_track.cv_predict(estimate, dt, self.pixel_params.q_px)

    def coast(self, track: Track, t_now: float) -> Track:
        """Prediction-only propagation of one track to t_now."""
        if track.status is TrackStatus.LOST:
            raise ValueError("cannot coast a lost track")
        base = self._last_t if self._last_t is not None else t_now
        dt = t_now - base
        if dt > 0:
            track.estimate = self._advance_estimate(track.estimate, dt)
        return track

    # -- spawning / updating ----------------------------------------------

    def _spawn(self, position, t_now):
        if self.config.mode is Mode.COOP_3D:
            state = ekf.BikeState(float(position[0]), float(position[1]), 0.0, 0.0, 0.0)
            estimate = ekf.StateEstimate(state, ekf.newborn_covariance(self.noise))
        else:
            pp = self.pixel_params
            P0 = np.diag([pp.r_px ** 2, pp.r_px ** 2,
                          pp.init_vel_std ** 2, pp.init_vel_std ** 2])
            estimate = pixel_track.PixelState(float(position[0]), float(position[1]),
                                              0.0, 0.0, P0)
        track = Track(id=self._next_id, estimate=estimate, age=1, miss_count=0,
                      last_position_update=t_now, status=TrackStatus.TENTATIVE,
                      first_fix=(t_now, float(position[0]), float(position[1])))
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
        s = track.estimate.state
        new_state = ekf.BikeState(s.x, s.y, math.atan2(dy, dx),
                                  s.gamma_dot, math.hypot(dx, dy) / dt)
        track.estimate = ekf.StateEstimate(new_state, track.estimate.covariance)
        track.heading_initialized = True

    def _apply_update(self, track: Track, detection, device, t_now):
        if self.config.mode is Mode.PIXEL_2D:
            if detection is not None:
                track.estimate = pixel_track.cv_update(track.estimate, detection,
                                                       self.pixel_params.r_px)
            return
        if detection is not None:
            self._maybe_init_heading(track, detection, t_now)
            if device is not None:
                m = ekf.Measurement.position_and_device(
                    detection[0], detection[1], device[0], device[1], device[2],
                    timestamp=t_now)
            else:
                m = ekf.Measurement.position_only(detection[0], detection[1],
                                                  timestamp=t_now)
        elif device is not None:
            m = ekf.Measurement.device_only(device[0], device[1], device[2],
                                            timestamp=t_now)
        else:
            return
        track.estimate = ekf.ekf_update(track.estimate, m, self.noise, self.process)

    # -- the per-frame step -----------------------------------------------

    def step(self, detections, t_now, device=None):
        """Advance one frame.

        detections: array-like of (x, y) (or (u, v) in pixel mode);
        device: optional (gamma_dot, v, sigma_v) tuple, coop mode only.
        Returns the list of AssignmentRecords for this step.
        """
        if self._last_t is not None and not t_now > self._last_t:
            raise DataError(f"timestamps must be strictly increasing "
                            f"({t_now} after {self._last_t})")
        if device is not None and self.config.mode is not Mode.COOP_3D:
            raise ValueError("device measurements require coop mode")
        dets = np.asarray(detections, dtype=float).reshape(-1, 2)

        if self._last_t is not None:
            dt = t_now - self._last_t
            for track in self.tracks:
                track.estimate = self._advance_estimate(track.estimate, dt)

        # detection-to-track assignment on predicted positions
        matches = {}
        if self.tracks and len(dets):
            cm = gated_cost_matrix([tr.position() for tr in self.tracks], dets,
                                   self.config.gate_distance)
            matches = dict(munkres_solve(cm))

        # device-to-track binding on predicted states (valid tracks only)
        bound_id = None
        if device is not None:
            valid = [tr for tr in self.tracks if tr.status is TrackStatus.VALID]
            idx = assign_device(device[0], device[1], device[2],
                                [tr.estimate for tr in valid],
                                self.noise, self.process, gate=self.device_gate)
            if idx is not None:
                bound_id = valid[idx].id

        log = []
        for ti, track in enumerate(self.tracks):
            det_idx = matches.get(ti)
            dev = device if bound_id == track.id else None
            track.age += 1
            self._apply_update(track, dets[det_idx] if det_idx is not None else None,
                               dev, t_now)
            if det_idx is not None:
                track.last_position_update = t_now
            else:
                track.miss_count += 1
            log.append(AssignmentRecord(t_now, track.id, det_idx, dev is not None))

        assigned = set(matches.values())
        for det_idx in range(len(dets)):
            if det_idx not in assigned:
                track = self._spawn(dets[det_idx], t_now)
                log.append(AssignmentRecord(t_now, track.id, det_idx, False))

        # prune, then promote; the timeout comparison tolerates grid-time
        # rounding so a gap of nominally exactly `update_timeout` survives
        survivors = []
        for track in self.tracks:
            timed_out = ((t_now - track.last_position_update)
                         > self.config.update_timeout + 1e-9)
            missed_out = track.miss_count / track.age > self.config.miss_ratio_max
            if timed_out or missed_out:
                track.status = TrackStatus.LOST
            else:
                if (track.status is TrackStatus.TENTATIVE
                        and track.age >= self.config.min_valid_age):
                    track.status = TrackStatus.VALID
                survivors.append(track)
        self.tracks = survivors

        self._last_t = t_now
        return log

    def valid_tracks(self):
        return [tr for tr in self.tracks if tr.status is TrackStatus.VALID]
