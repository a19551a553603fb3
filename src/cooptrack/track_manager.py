"""Track lifecycle with memory functionality for the metric-space stage.

Each track carries a bike-model EKF state.  Tracks coast on prediction alone
through detection gaps and are dropped once the miss ratio or the
position-update timeout trips; the thresholds come from a ManagerConfig
(2 m gate, 50 % miss ratio, 2 s timeout by default).

A TrackTable holds every track of a group of "lanes" (e.g. one per scene and
model of a compare chunk) as one set of arrays, one row per track.
step_lanes advances all lanes of a table by one frame together; each stage
is a mask operation over the rows: one batched EKF predict per round of
sub-steps, detection assignment by a masked argmin (Munkres only for a lane
with at least two tracks and two detections), one batched device-binding
distance computation, at most one batched EKF update per measurement kind,
then heading init, spawn, prune and promote.  TrackManager is the one-lane
case: it owns a one-lane table and its step calls step_lanes.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import ekf
# assign_device binds one reading; step_lanes binds the readings of all
# lanes at once (_bind_devices).  It stays importable from this module for
# callers that look it up here.
from .association import (DEVICE_GATE, assign_device, device_residuals,  # noqa: F401
                          gated_cost_matrix, munkres_solve, nearest_allowed,
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


class TrackTable:
    """Every track of n_lanes lanes as one struct of arrays, one row per
    track.

    Row r is track id[r] of lane lane[r], with bike state x[r] = [x, y,
    gamma, gamma_dot, v] and covariance P[r]; valid[r] tells VALID from
    TENTATIVE (a LOST track's row is deleted).  age, misses and last_update
    count frames stepped, frames without a detection and the time of the
    last detection.  first_fix[r] = (t, x, y) is the spawning fix, kept
    while has_fix[r] until it initializes heading and speed.  Within a lane
    rows are in id order, which is spawn order; lanes may interleave.  All
    lanes share one ManagerConfig, process and measurement noise and device
    gate; the config is read on every step.
    """

    ROW_FIELDS = ("lane", "id", "x", "P", "valid", "age", "misses",
                  "last_update", "first_fix", "has_fix")

    def __init__(self, n_lanes, config: ManagerConfig,
                 process: ekf.ProcessNoiseParams | None = None,
                 noise: ekf.MeasurementNoiseParams | None = None,
                 device_gate: float = DEVICE_GATE):
        self.config = config
        self.process = process or ekf.ProcessNoiseParams()
        self.noise = noise or ekf.MeasurementNoiseParams()
        self.device_gate = device_gate
        self.n_lanes = n_lanes
        self.next_id = np.zeros(n_lanes, dtype=np.int64)
        self.last_t = np.full(n_lanes, np.nan)    # NaN: never stepped
        self.lane = np.zeros(0, dtype=np.int64)
        self.id = np.zeros(0, dtype=np.int64)
        self.x = np.zeros((0, ekf.STATE_DIM))
        self.P = np.zeros((0, ekf.STATE_DIM, ekf.STATE_DIM))
        self.valid = np.zeros(0, dtype=bool)
        self.age = np.zeros(0, dtype=np.int64)
        self.misses = np.zeros(0, dtype=np.int64)
        self.last_update = np.zeros(0)
        self.first_fix = np.zeros((0, 3))
        self.has_fix = np.zeros(0, dtype=bool)
        # per-table constants of the filter
        self._q = np.array([ekf.process_noise_variances(self.process)])
        self._r_position = ekf.measurement_noise_variances(
            ekf.MeasurementKind.POSITION_ONLY, self.noise, self.process)[None]
        self._newborn_P = ekf.newborn_covariance(self.noise)
        self._noise_floor = 3.0 * math.hypot(self.noise.sigma_x, self.noise.sigma_y)

    def keep_rows(self, keep):
        """Keep only the rows selected by a mask or index array, in order."""
        for name in self.ROW_FIELDS:
            setattr(self, name, getattr(self, name)[keep])

    def _append(self, **rows):
        for name in self.ROW_FIELDS:
            setattr(self, name, np.concatenate([getattr(self, name), rows[name]]))


class StepLog(NamedTuple):
    """The assignment log of one step_lanes call, one entry per track that
    stepped (in table order), then one per track spawned: its lane, track
    id, the index of its detection within the lane's detections (-1 for
    none) and whether the lane's device reading bound to it."""

    lane: np.ndarray
    track_id: np.ndarray
    detection_id: np.ndarray
    device_bound: np.ndarray


def _predict(table, dt):
    """Advance every row by its dt: whole filter steps T, then the
    remainder, each round of sub-steps one batched EKF predict over the
    rows that still have a step to take."""
    T = table.process.T
    remaining = dt
    while True:
        whole = remaining > T + 1e-9
        live = whole | (remaining > 1e-9)
        step = np.where(whole, T, remaining)
        if live.all():
            table.x, table.P = ekf.ekf_predict_batch(table.x, table.P, step, table._q)
        elif live.any():
            table.x[live], table.P[live] = ekf.ekf_predict_batch(
                table.x[live], table.P[live], step[live], table._q)
        if not whole.any():
            return
        remaining = remaining - T


def _assign_detections(table, det_lane, det_xy):
    """Per row, the index into det_xy of the detection assigned to it, or -1.

    Per lane this is munkres_solve(gated_cost_matrix(...)) over the lane's
    tracks and detections.  A lane with one track takes its nearest
    allowed detection, a lane with one detection its nearest allowed
    track, the lowest index on ties, as the solver does; only a lane with
    at least two of each runs the solver.
    """
    if not len(table.lane) or not len(det_lane):
        return np.full(len(table.lane), -1)
    gate = table.config.gate_distance
    diff = table.x[:, None, :2] - det_xy[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    allowed = (table.lane[:, None] == det_lane[None, :]) & ~(cost > gate)
    if not np.isfinite(cost[allowed]).all():
        raise ValueError("allowed costs must be finite")
    det_of_row, found = nearest_allowed(cost, allowed, axis=1)
    match = np.where(found, det_of_row, -1)
    n_rows = np.bincount(table.lane, minlength=table.n_lanes)
    if n_rows.max() == 1:
        return match
    # lanes with several tracks: one detection goes to its nearest track,
    # several go through the solver
    n_dets = np.bincount(det_lane, minlength=table.n_lanes)
    match[(n_rows > 1)[table.lane]] = -1
    row_of_det, found = nearest_allowed(cost, allowed, axis=0)
    pick = found & ((n_dets == 1) & (n_rows > 1))[det_lane]
    match[row_of_det[pick]] = np.flatnonzero(pick)
    for lane in np.flatnonzero((n_rows > 1) & (n_dets > 1)).tolist():
        rows = np.flatnonzero(table.lane == lane)
        dets = np.flatnonzero(det_lane == lane)
        pairs = munkres_solve(gated_cost_matrix(table.x[rows, :2], det_xy[dets], gate))
        for r, c in pairs:
            match[rows[r]] = dets[c]
    return match


def _bind_devices(table, devices, has_device):
    """Where each lane's device reading binds: per reading, the valid track
    of its lane nearest by penalized Mahalanobis distance, the lowest index
    on ties, unless that distance is beyond the device gate; one batch over
    every lane.

    Returns the bound rows and the POSITION_AND_DEVICE noise variances of
    each, the diagonal of R.
    """
    rows = (table.valid & has_device[table.lane]).nonzero()[0]
    if not len(rows):
        return rows, np.zeros((0, 4))
    lanes = table.lane[rows]
    reading = devices[lanes]
    r = ekf.measurement_noise_variances(ekf.MeasurementKind.POSITION_AND_DEVICE,
                                        table.noise, table.process, reading[:, 2])
    y, S = device_residuals(reading[:, :2], table.x[rows], table.P[rows], r[:, 2:])
    distance = np.full((table.n_lanes, len(rows)), np.inf)
    distance[lanes, np.arange(len(rows))] = penalized_mahalanobis_batch(y, S)
    best, found = nearest_allowed(distance, distance <= table.device_gate)
    best = best[found]
    return rows[best], r[best]


def _update(table, kind, rows, z, r):
    """One batched EKF update of the given rows by measurements of a kind."""
    if len(rows):
        table.x[rows], table.P[rows] = ekf.ekf_update_batch(
            table.x[rows], table.P[rows], z, r, kind)


def _init_heading(table, rows, det_xy, t_now):
    """Set gamma and v of each row from the displacement of its detection
    since the first fix.

    gamma and v are unobservable from one fix, and a 20 ms baseline is
    buried in detection noise, so the init waits for the first assigned
    detection whose displacement from the spawning fix clears the noise
    floor; that baseline pins the heading sign (a wrong sign leaves the
    filter in the mirrored gamma+pi, -v basin).  Few rows wait at a time;
    they go one by one through math.hypot and math.atan2, whose roundings
    numpy's hypot and arctan2 need not share.
    """
    for row, (px, py), t in zip(rows.tolist(), det_xy.tolist(), t_now.tolist()):
        t_first, x_first, y_first = table.first_fix[row].tolist()
        dt = t - t_first
        if dt <= 0:
            continue
        dx, dy = px - x_first, py - y_first
        if math.hypot(dx, dy) <= table._noise_floor:
            continue
        table.x[row, 2] = math.atan2(dy, dx)
        table.x[row, 4] = math.hypot(dx, dy) / dt
        table.has_fix[row] = False


def _spawn(table, det_lane, det_xy, det_id, t_lane):
    """A new TENTATIVE track on each given detection, appended in
    detection order; ids continue each lane's count."""
    n = len(det_lane)
    first = np.searchsorted(det_lane, det_lane)     # det_lane is ascending
    ids = table.next_id[det_lane] + np.arange(n) - first
    table.next_id += np.bincount(det_lane, minlength=table.n_lanes)
    t = t_lane[det_lane]
    table._append(
        lane=det_lane, id=ids,
        x=np.column_stack([det_xy, np.zeros((n, ekf.STATE_DIM - 2))]),
        P=np.broadcast_to(table._newborn_P, (n, ekf.STATE_DIM, ekf.STATE_DIM)),
        valid=np.zeros(n, dtype=bool), age=np.ones(n, dtype=np.int64),
        misses=np.zeros(n, dtype=np.int64), last_update=t,
        first_fix=np.column_stack([t, det_xy]), has_fix=np.ones(n, dtype=bool))
    return StepLog(det_lane, ids, det_id, np.zeros(n, dtype=bool))


def step_lanes(table, times, det_lane, det_xy, devices, has_device):
    """Advance every lane of `table` by one frame, all in lockstep.

    times (n_lanes,): each lane's frame time, NaN for a lane that does not
    step this frame; such a lane must hold no tracks and get no input.
    det_lane (D,) and det_xy (D, 2): the frame's detections with their
    lanes, in ascending lane order; a detection's index among its lane's
    detections is its detection id.  devices (n_lanes, 3): each lane's
    device reading (gamma_dot, v, sigma_v) where has_device (n_lanes,).
    Returns the StepLog.  Lanes are independent: each gets the log entries
    and track states it would get stepped alone.
    """
    late = times <= table.last_t        # NaN on either side compares False
    if late.any():
        k = late.argmax()
        raise DataError(f"timestamps must be strictly increasing "
                        f"({times[k]} after {table.last_t[k]})")
    t_row = times[table.lane]
    if np.isnan(t_row).any() or np.isnan(times[det_lane]).any():
        raise ValueError("a lane that does not step holds tracks or detections")
    if len(t_row):
        _predict(table, t_row - table.last_t[table.lane])

    # detection assignment and device binding on the predicted states
    match = _assign_detections(table, det_lane, det_xy)
    has_det = match >= 0
    det_id = np.arange(len(det_lane)) - np.searchsorted(det_lane, det_lane)
    bound = np.zeros(len(t_row), dtype=bool)
    bound_rows, r_device = _bind_devices(table, devices, has_device)
    bound[bound_rows] = True
    row_det_id = match.copy()
    row_det_id[has_det] = det_id[match[has_det]]
    stepped = StepLog(table.lane, table.id, row_det_id, bound)
    table.age += 1
    table.misses += ~has_det
    table.last_update = np.where(has_det, t_row, table.last_update)
    waiting = (has_det & table.has_fix).nonzero()[0]
    if len(waiting):
        _init_heading(table, waiting, det_xy[match[waiting]], t_row[waiting])

    # one batched update per measurement kind
    position_only = has_det
    if len(bound_rows):
        with_det = has_det[bound_rows]
        dev = devices[table.lane[bound_rows], :2]
        rows = bound_rows[with_det]
        _update(table, ekf.MeasurementKind.POSITION_AND_DEVICE, rows,
                np.concatenate((det_xy[match[rows]], dev[with_det]), axis=1),
                r_device[with_det])
        without = ~with_det
        _update(table, ekf.MeasurementKind.DEVICE_ONLY, bound_rows[without],
                dev[without], r_device[without, 2:])
        position_only = has_det & ~bound
    rows = position_only.nonzero()[0]
    _update(table, ekf.MeasurementKind.POSITION_ONLY, rows, det_xy[match[rows]],
            table._r_position)

    log = stepped
    assigned = match[has_det]
    if len(assigned) < len(det_lane):
        unassigned = np.ones(len(det_lane), dtype=bool)
        unassigned[assigned] = False
        spawned = _spawn(table, det_lane[unassigned], det_xy[unassigned],
                         det_id[unassigned], times)
        log = StepLog(*(np.concatenate(pair) for pair in zip(stepped, spawned)))
        t_row = times[table.lane]

    # prune, then promote; the timeout comparison tolerates grid-time
    # rounding so a gap of nominally exactly `update_timeout` survives
    cfg = table.config
    lost = (((t_row - table.last_update) > cfg.update_timeout + 1e-9)
            | (table.misses / table.age > cfg.miss_ratio_max))
    if lost.any():
        table.keep_rows(~lost)
    table.valid |= table.age >= cfg.min_valid_age
    table.last_t = np.fmax(table.last_t, times)
    return log


@dataclass
class AssignmentRecord:
    """One log row per live track per step."""

    t: float
    track_id: int
    detection_id: int | None
    device_bound: bool


class Track:
    """One track of a TrackManager, read from and written to its row of the
    manager's table.  Once the track is dropped its status reads LOST and
    its state can no longer be read."""

    def __init__(self, table: TrackTable, track_id: int):
        self._table = table
        self.id = track_id

    def _rows(self):
        return np.flatnonzero(self._table.id == self.id)

    def _row(self):
        rows = self._rows()
        if not len(rows):
            raise LookupError(f"track {self.id} has been dropped")
        return rows[0]

    @property
    def status(self) -> TrackStatus:
        rows = self._rows()
        if not len(rows):
            return TrackStatus.LOST
        return TrackStatus.VALID if self._table.valid[rows[0]] else TrackStatus.TENTATIVE

    @property
    def x(self) -> np.ndarray:
        """Bike state [x, y, gamma, gamma_dot, v] (a copy)."""
        return self._table.x[self._row()].copy()

    @x.setter
    def x(self, value):
        self._table.x[self._row()] = value

    @property
    def P(self) -> np.ndarray:
        """Covariance of x (a copy)."""
        return self._table.P[self._row()].copy()

    @property
    def age(self) -> int:
        return int(self._table.age[self._row()])

    @property
    def miss_count(self) -> int:
        return int(self._table.misses[self._row()])

    @property
    def last_position_update(self) -> float:
        return float(self._table.last_update[self._row()])

    @property
    def first_fix(self) -> tuple | None:
        """The spawning fix (t, x, y) until it has initialized heading and
        speed, then None."""
        row = self._row()
        if not self._table.has_fix[row]:
            return None
        return tuple(self._table.first_fix[row].tolist())

    @property
    def estimate(self) -> ekf.StateEstimate:
        """The track state as a StateEstimate."""
        return ekf.StateEstimate(ekf.BikeState.from_array(self.x), self.P)

    def position(self):
        x = self.x
        return float(x[0]), float(x[1])


class TrackManager:
    """The tracks of one scene, a one-lane TrackTable; single-threaded per
    instance."""

    def __init__(self, config: ManagerConfig,
                 process: ekf.ProcessNoiseParams | None = None,
                 noise: ekf.MeasurementNoiseParams | None = None,
                 device_gate: float = DEVICE_GATE):
        self.table = TrackTable(1, config, process, noise, device_gate)

    @property
    def config(self) -> ManagerConfig:
        return self.table.config

    @property
    def tracks(self) -> list[Track]:
        return [Track(self.table, i) for i in self.table.id.tolist()]

    def step(self, detections, t_now, device=None):
        """Advance one frame.

        detections: array-like of (x, y);
        device: optional (gamma_dot, v, sigma_v) tuple.
        Returns the list of AssignmentRecords for this step.
        """
        if not math.isfinite(t_now):
            raise DataError(f"timestamp {t_now} is not finite")
        dets = np.asarray(detections, dtype=float).reshape(-1, 2)
        reading = np.asarray([(0.0, 0.0, 0.0) if device is None else device],
                             dtype=float)
        log = step_lanes(self.table, np.array([t_now], dtype=float),
                         np.zeros(len(dets), dtype=np.int64), dets, reading,
                         np.array([device is not None]))
        return [AssignmentRecord(t_now, track_id, None if det < 0 else det, bound)
                for track_id, det, bound in zip(log.track_id.tolist(),
                                                log.detection_id.tolist(),
                                                log.device_bound.tolist())]
