"""Scene-level pipeline: run a tracking model over a scene, persist the
per-frame track output and the assignment log, and evaluate metrics;
`compare` tracks and scores a batch of scenes without keeping their rows.
Both iterate the frames of one lockstep run, _track_lanes."""

import itertools
import os

import numpy as np

from . import ekf
from . import fileio
from . import metrics as metrics_mod
from . import scene_sim
from .config import MODELS, RunConfig
from .errors import DataError
from .scene_sim import DETECTIONS, DEVICE, GROUND_TRUTH
from .track_manager import TrackTable, step_lanes

TRACK_HEADER = ("t", "track_id", *ekf.STATE_NAMES, "valid")
TRACK_TYPES = (float, int, *[float] * ekf.STATE_DIM, int)
ASSIGN_HEADER = ("t", "track_id", "detection_id", "device_bound")

# the position columns of the ground truth, the detections and a track row,
# and a device row's reading (the columns ekf.device_readings takes)
_GT_XY = [GROUND_TRUTH.x, GROUND_TRUTH.y]
_DETECTION_XY = [DETECTIONS.x, DETECTIONS.y]
_TRACK_XY = [TRACK_HEADER.index("x"), TRACK_HEADER.index("y")]
_READING = [DEVICE.gamma_dot, DEVICE.v, DEVICE.sigma_v]

MODEL_POSITION_ONLY, MODEL_COOPERATIVE = MODELS


def _by_frame(parts):
    """(frame, lane, values) of per-lane row groups, stably sorted by frame
    and then lane, so each lane keeps its rows' order within a frame."""
    frame = np.concatenate([idx for idx, _, _ in parts])
    lane = np.concatenate([np.full(len(idx), k) for idx, k, _ in parts])
    values = np.concatenate([v for _, _, v in parts])
    order = np.lexsort((lane, frame))
    return frame[order], lane[order], values[order]


def _track_lanes(lanes, cfg: RunConfig, log=True, starts=None):
    """Step several (scene, model) lanes in lockstep, frame by frame, on one
    TrackTable; a generator.

    After the step of frame i it yields (i, table, log): the table and the
    frame's StepLog (None without `log`); table.last_t then holds each
    stepped lane's time of frame i.  Lanes may differ in length; a lane's
    tracks leave the table when the loop resumes after its last frame.  Each
    cooperative lane's device readings get their noise variances in one
    call before frame 0.  starts, from _shared_prefixes, holds per lane
    (start, source): a lane with a source is idle before frame `start`, and
    then begins as a copy of its source's tracks.
    """
    for _, model in lanes:
        if model not in MODELS:
            raise ValueError(f"unknown model: {model}")
    if not lanes:
        return
    starts = starts or [(0, None)] * len(lanes)
    table = TrackTable(len(lanes), cfg.manager_coop, process=cfg.process,
                       noise=cfg.measurement, device_gate=cfg.device_gate)
    n_frames = np.array([len(scene.ground_truth) for scene, _ in lanes], dtype=np.int64)
    shape = (int(n_frames.max(initial=0)), len(lanes))
    times = np.full(shape, np.nan)
    devices = np.zeros(shape + (4,))
    has_device = np.zeros(shape, dtype=bool)
    det_parts = []
    copies = {}
    for k, ((scene, model), (start, source)) in enumerate(zip(lanes, starts)):
        frame_times = scene.ground_truth[:, GROUND_TRUTH.t]
        times[start:len(frame_times), k] = frame_times[start:]
        idx = _frame_indices(scene.detections[:, DETECTIONS.t], frame_times,
                             f"{scene.scene_id}: detection")
        live = idx >= start
        det_parts.append((idx[live], k, scene.detections[live][:, _DETECTION_XY]))
        if model == MODEL_COOPERATIVE:
            idx = _frame_indices(scene.device[:, DEVICE.t], frame_times,
                                 f"{scene.scene_id}: device row")
            if len(np.unique(idx)) < len(idx):
                raise DataError(f"{scene.scene_id}: two device rows in one frame")
            live = idx >= start
            devices[idx[live], k] = ekf.device_readings(
                cfg.measurement, cfg.process, scene.device[live][:, _READING])
            has_device[idx[live], k] = True
        if source is not None and start < len(frame_times):
            copies.setdefault(start, []).append((source, k))
    det_frame, det_lane, det_xy = _by_frame(det_parts)
    det_at = np.searchsorted(det_frame, np.arange(len(times) + 1))

    last_frames = set(n_frames.tolist())
    for i, t in enumerate(times):
        for source, k in copies.get(i, ()):
            table.copy_lane(source, k)
        entries = step_lanes(table, t, det_lane[det_at[i]:det_at[i + 1]],
                             det_xy[det_at[i]:det_at[i + 1]], devices[i],
                             has_device[i], log=log)
        yield i, table, entries
        if i + 1 in last_frames:
            table.keep_rows(n_frames[table.lane] > i + 1)


def _shared_prefixes(lanes):
    """Per lane, (start, source).  The source is the earlier lane of the
    same model whose scene shares the lane's ground-truth and device arrays
    and whose detections agree with the lane's longest (the lowest such
    lane on ties).  Before frame `start` both lanes get the same input, so
    they hold the same tracks; start is the lane's frame count when their
    inputs never differ.  A lane with no such lane, or whose input differs
    from frame 0 on, gets (0, None).

    A source starts before its copies: were lane k's source s still idle
    at k's start, s's own source would agree with k at least as long and
    come earlier, so k would have taken it.
    """
    starts = []
    earlier = {}
    for k, (scene, model) in enumerate(lanes):
        start, source = 0, None
        key = (id(scene.ground_truth), id(scene.device), model)
        for j in earlier.get(key, ()):
            agree = _first_difference(scene, lanes[j][0])
            if agree > start:
                start, source = agree, j
        earlier.setdefault(key, []).append(k)
        starts.append((start, source))
    return starts


def _first_difference(a, b):
    """The first frame in which scenes a and b, which share their frames,
    may differ in detections: the earliest frame of any row from the first
    row on where their detection arrays differ bit for bit.  a's frame
    count when they do not differ."""
    rows_a = np.ascontiguousarray(a.detections, dtype=float).view(np.int64)
    rows_b = np.ascontiguousarray(b.detections, dtype=float).view(np.int64)
    n = min(len(rows_a), len(rows_b))
    unequal = np.flatnonzero((rows_a[:n] != rows_b[:n]).any(axis=1))
    first = unequal[0] if len(unequal) else n
    rest = np.concatenate((a.detections[first:], b.detections[first:]))[:, DETECTIONS.t]
    times = a.ground_truth[:, GROUND_TRUTH.t]
    if not len(rest):
        return len(times)
    return int(np.clip(_nearest_frames(rest, times).min(), 0, len(times)))


def run_tracking(scene: scene_sim.Scene, model: str, cfg: RunConfig):
    """Run one model over a scene.

    Returns (track_rows, assignment_rows): per-frame state rows for every
    live track and the assignment log.  Model P never looks at the device
    stream; model C binds it via the penalized Mahalanobis distance.
    """
    track_rows, assign_rows = [], []
    for _, table, log in _track_lanes([(scene, model)], cfg):
        t = table.last_t.item()
        track_rows.extend(zip(itertools.repeat(t), table.id.tolist(), *table.x.T.tolist(),
                              table.valid.astype(int).tolist()))
        assign_rows.extend(zip(itertools.repeat(t), log.track_id.tolist(),
                               ["NONE" if d < 0 else d for d in log.detection_id.tolist()],
                               log.device_bound.astype(int).tolist()))
    return track_rows, assign_rows


def _nearest_frames(t, times):
    """Index of the nearest frame in `times` for each timestamp in t (ties
    to even), as floats; may fall outside the frames."""
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return np.rint((np.asarray(t, dtype=float) - times[0]) / dt)


def _frame_indices(t, times, what):
    """Index of the nearest frame in `times` for each timestamp in t (ties
    to even), as an int array.  A timestamp that falls outside the frames
    is a DataError."""
    t = np.asarray(t, dtype=float)
    idx = _nearest_frames(t, times)
    outside = ~((idx >= 0) & (idx < len(times)))
    if outside.any():
        raise DataError(f"{what} at t={t[outside][0]:g} lies outside the "
                        f"scene's frames [{times[0]:g}, {times[-1]:g}]")
    return idx.astype(np.int64)


# -- persistence -------------------------------------------------------------

def write_track_output(directory, model, track_rows, assign_rows, cfg: RunConfig,
                       scene_id):
    comment = f"{cfg.provenance()} scene={scene_id} model={model}"
    track_path = os.path.join(directory, f"tracks_{model}.csv")
    fileio.write_csv(track_path, TRACK_HEADER, track_rows, comment)
    fileio.write_csv(os.path.join(directory, f"assignments_{model}.csv"),
                     ASSIGN_HEADER, assign_rows, comment)
    return track_path


def read_track_output(path):
    """Track rows from a tracks CSV; returns a list of tuples."""
    return fileio.read_csv(path, TRACK_HEADER, TRACK_TYPES)


# -- evaluation ---------------------------------------------------------------

def evaluate_rows(scene: scene_sim.Scene, track_rows, cfg: RunConfig, model: str):
    """Per-scene metric report for a model's track rows: a sequence of
    TRACK_HEADER rows or an (N, len(TRACK_HEADER)) array of them."""
    times = scene.ground_truth[:, GROUND_TRUTH.t]
    rows = np.asarray(track_rows, dtype=float).reshape(-1, len(TRACK_HEADER))
    valid = rows[rows[:, TRACK_HEADER.index("valid")] != 0]
    frames = metrics_mod.frames_from_tracks(
        scene.ground_truth[:, _GT_XY],
        _frame_indices(valid[:, TRACK_HEADER.index("t")], times,
                       f"{scene.scene_id}: track row"),
        valid[:, _TRACK_XY], cfg.metric)
    return metrics_mod.metric_report(scene.scene_id, model, frames, cfg.metric)


def track_and_evaluate(scenes, cfg: RunConfig):
    """Run every configured model over each scene, all (scene, model) lanes
    in one lockstep batch; returns one {model: report} dict per scene, each
    report equal to evaluate_rows over run_tracking's rows.

    No track rows are kept: after each frame, each lane's distance from its
    ground truth to its nearest valid track, and whether it has one, go
    into (frames x lanes) arrays, and each lane is scored from its column.
    A lane that shares its input with an earlier lane up to some frame
    (_shared_prefixes, as the occlusion variants of one simulated scene do)
    is stepped only from that frame on, and its column up to there is
    copied from that lane's.
    """
    lanes = [(scene, model) for scene in scenes for model in cfg.models]
    n_frames = [len(scene.ground_truth) for scene, _ in lanes]
    shape = (max(n_frames, default=0), len(lanes))
    gt_xy = np.full(shape + (2,), np.nan)
    for k, (scene, _) in enumerate(lanes):
        gt_xy[:n_frames[k], k] = scene.ground_truth[:, _GT_XY]
    delta = np.full(shape, np.inf)
    has_track = np.zeros(shape, dtype=bool)
    starts = _shared_prefixes(lanes)
    for i, table, _ in _track_lanes(lanes, cfg, log=False, starts=starts):
        valid = table.valid
        delta[i], has_track[i] = metrics_mod.nearest_track_distances(
            gt_xy[i], table.lane[valid], table.x[valid, ekf.POSITION])
    # a source's column is complete before its copies' (it is earlier)
    for k, (start, source) in enumerate(starts):
        if source is not None:
            delta[:start, k] = delta[:start, source]
            has_track[:start, k] = has_track[:start, source]
    reports = (metrics_mod.metric_report(
        scene.scene_id, model, metrics_mod.FrameTable.from_distances(
            delta[:n, k], has_track[:n, k], cfg.metric.tau),
        cfg.metric) for k, ((scene, model), n) in enumerate(zip(lanes, n_frames)))
    return [{model: next(reports) for model in cfg.models} for _ in scenes]


def aggregate(reports):
    """min/max/mean of MOTP and MOTA over a list of per-scene reports."""
    motps = np.array([r["motp"] for r in reports])
    motas = np.array([r["mota"] for r in reports])
    return {
        "motp": {"min": float(motps.min()), "max": float(motps.max()),
                 "mean": float(motps.mean())},
        "mota": {"min": float(motas.min()), "max": float(motas.max()),
                 "mean": float(motas.mean())},
    }
