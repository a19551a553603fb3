"""Track lifecycle with memory functionality for the metric-space stage.

Each track carries a bike-model EKF state.  Tracks coast on prediction alone
through detection gaps and are dropped once the miss ratio or the
position-update timeout trips; the thresholds come from a ManagerConfig
(2 m gate, 50 % miss ratio, 2 s timeout by default).

A TrackTable holds every track of a group of "lanes" (e.g. one per scene and
model of a compare chunk) as one set of arrays, one row per track.
step_lanes advances all lanes of a table by one frame together; each stage
is a mask operation over the rows: one batched EKF predict of the whole
table per round of sub-steps (a row whose lane has no step left in a round
is kept by mask), detection assignment by a masked argmin (Munkres for a
lane with at least two tracks and a detection), one batched
device-binding distance computation, heading init, one masked EKF update
of the whole table, then spawn, prune and promote.  TrackManager is the
one-lane case: it owns a one-lane table and its step calls step_lanes.  No
command runs it (track and compare step lanes through
pipeline._track_lanes); it stays because perfbench/tracing.py wraps
TrackManager.step.  Call overhead is most of a step's cost, so per-frame
masks are tested with np.count_nonzero, a third the cost of ndarray.any or
.all.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ekf
# assign_device, which step_lanes never calls, is imported because
# perfbench/tracing.py wraps it at this module
from .association import (DEVICE_GATE, CostMatrix, assign_device,  # noqa: F401
                          device_distances, gated_cost_matrix, munkres_solve,
                          nearest_allowed)
from .errors import DataError


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
        # the position slots of R
        self._r_position = np.array([self.noise.position_variances])
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
    remainder, each round of sub-steps one batched EKF predict of the whole
    table.  A row with nothing left to step is stepped by T and then kept
    as it was by mask, so its x and P stay exact."""
    T = table.process.T
    remaining = dt
    while True:
        whole = remaining > T + 1e-9
        live = remaining > 1e-9
        x, P = ekf.ekf_predict_batch(table.x, table.P,
                                     np.where(live & ~whole, remaining, T), table._q)
        table.x = np.where(live[:, None], x, table.x)
        table.P = np.where(live[:, None, None], P, table.P)
        if not np.count_nonzero(whole):
            return
        remaining = remaining - T


def _assign_detections(table, det_lane, det_xy):
    """Per row, the index into det_xy of the detection assigned to it, or -1.

    A lane with one track takes its nearest allowed detection in the frame's
    one gated_cost_matrix, the lowest index on ties, as the solver does; a
    lane with two or more tracks goes through munkres_solve on its block.
    """
    if not len(table.lane) or not len(det_lane):
        return np.full(len(table.lane), -1)
    costs = gated_cost_matrix(table.x[:, :2], det_xy, table.config.gate_distance)
    allowed = (table.lane[:, None] == det_lane[None, :]) & ~costs.forbidden
    det_of_row, found = nearest_allowed(costs.cost, allowed, axis=1)
    match = np.where(found, det_of_row, -1)
    n_rows = np.bincount(table.lane, minlength=table.n_lanes)
    if not np.count_nonzero(n_rows > 1):
        return match
    match[(n_rows > 1)[table.lane]] = -1
    n_dets = np.bincount(det_lane, minlength=table.n_lanes)
    for lane in np.flatnonzero((n_rows > 1) & (n_dets > 0)).tolist():
        rows = np.flatnonzero(table.lane == lane)
        dets = np.flatnonzero(det_lane == lane)
        block = np.ix_(rows, dets)
        for r, c in munkres_solve(CostMatrix(costs.cost[block], costs.forbidden[block])):
            match[rows[r]] = dets[c]
    return match


def _bind_devices(table, devices, has_device):
    """The rows bound to a device reading: per lane's reading, the valid
    track of its lane nearest by penalized Mahalanobis distance, the lowest
    index on ties, unless that distance is beyond the device gate; one batch
    over every lane."""
    rows = (table.valid & has_device[table.lane]).nonzero()[0]
    if not len(rows):
        return rows
    lanes = table.lane[rows]
    reading = devices[lanes]
    distance = device_distances(reading[:, :2], table.x[rows], table.P[rows],
                                reading[:, 2:])
    by_lane = np.full((table.n_lanes, len(rows)), np.inf)
    by_lane[lanes, np.arange(len(rows))] = distance
    best, found = nearest_allowed(by_lane, by_lane <= table.device_gate)
    return rows[best[found]]


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
    detections is its detection id.  devices (n_lanes, 4): each lane's
    device reading (gamma_dot, v) and its noise variances, the (gamma_dot,
    v) entries of ekf.measurement_noise_variances, where has_device
    (n_lanes,).
    Returns the StepLog.  Lanes are independent: each gets the log entries
    and track states it would get stepped alone.
    """
    late = times <= table.last_t        # NaN on either side compares False
    if np.count_nonzero(late):
        k = late.argmax()
        raise DataError(f"timestamps must be strictly increasing "
                        f"({times[k]} after {table.last_t[k]})")
    t_row = times[table.lane]
    idle = np.isnan(times)
    if np.count_nonzero(idle[table.lane]) or np.count_nonzero(idle[det_lane]):
        raise ValueError("a lane that does not step holds tracks or detections")
    if len(t_row):
        _predict(table, t_row - table.last_t[table.lane])

    # detection assignment and device binding on the predicted states
    match = _assign_detections(table, det_lane, det_xy)
    has_det = match >= 0
    det_id = np.arange(len(det_lane)) - det_lane.searchsorted(det_lane)
    bound = np.zeros(len(t_row), dtype=bool)
    bound[_bind_devices(table, devices, has_device)] = True
    row_det_id = match.copy()
    row_det_id[has_det] = det_id[match[has_det]]
    stepped = StepLog(table.lane, table.id, row_det_id, bound)
    table.age += 1
    table.misses += ~has_det
    table.last_update = np.where(has_det, t_row, table.last_update)
    waiting = (has_det & table.has_fix).nonzero()[0]
    if len(waiting):
        _init_heading(table, waiting, det_xy[match[waiting]], t_row[waiting])

    # one masked update of the whole table: slots (x, y) from the detection,
    # (gamma_dot, v) from the device; a row with neither gets K = 0 and
    # keeps its x and P
    if np.count_nonzero(has_det) or np.count_nonzero(bound):
        observed = np.array([has_det, has_det, bound, bound]).T
        # absent slots may hold anything: the update ignores them
        det = det_xy[match] if len(det_xy) else np.zeros((len(t_row), 2))
        device = devices[table.lane]
        z = np.concatenate((det, device[:, :2]), axis=1)
        r = np.concatenate((table._r_position.repeat(len(t_row), axis=0),
                            device[:, 2:]), axis=1)
        table.x, table.P = ekf.ekf_update_masked(table.x, table.P, z, r, observed)

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
    if np.count_nonzero(lost):
        table.keep_rows(~lost)
    table.valid |= table.age >= cfg.min_valid_age
    table.last_t = np.fmax(table.last_t, times)
    return log


class TrackManager:
    """The tracks of one scene, a one-lane TrackTable; single-threaded per
    instance."""

    def __init__(self, config: ManagerConfig,
                 process: ekf.ProcessNoiseParams | None = None,
                 noise: ekf.MeasurementNoiseParams | None = None,
                 device_gate: float = DEVICE_GATE):
        self.table = TrackTable(1, config, process, noise, device_gate)

    def step(self, detections, t_now, device=None) -> StepLog:
        """Advance one frame.

        detections: array-like of (x, y);
        device: optional (gamma_dot, v, sigma_v) tuple.
        Returns the step's StepLog (every entry in lane 0).
        """
        if not math.isfinite(t_now):
            raise DataError(f"timestamp {t_now} is not finite")
        dets = np.asarray(detections, dtype=float).reshape(-1, 2)
        reading = np.zeros((1, 4))
        if device is not None:
            gamma_dot, v, sigma_v = device
            reading[0] = gamma_dot, v, *ekf.measurement_noise_variances(
                self.table.noise, self.table.process, sigma_v)[2:]
        return step_lanes(self.table, np.array([t_now], dtype=float),
                          np.zeros(len(dets), dtype=np.int64), dets, reading,
                          np.array([device is not None]))
