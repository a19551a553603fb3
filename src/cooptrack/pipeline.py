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
from .config import RunConfig
from .errors import DataError
from .track_manager import TrackTable, step_lanes

TRACK_HEADER = ("t", "track_id", "x", "y", "gamma", "gamma_dot", "v", "valid")
TRACK_TYPES = (float, int, float, float, float, float, float, int)
ASSIGN_HEADER = ("t", "track_id", "detection_id", "device_bound")

MODEL_POSITION_ONLY = "P"
MODEL_COOPERATIVE = "C"


def _by_frame(parts):
    """(frame, lane, values) of per-lane row groups, stably sorted by frame
    and then lane, so each lane keeps its rows' order within a frame."""
    frame = np.concatenate([idx for idx, _, _ in parts])
    lane = np.concatenate([np.full(len(idx), k) for idx, k, _ in parts])
    values = np.concatenate([v for _, _, v in parts])
    order = np.lexsort((lane, frame))
    return frame[order], lane[order], values[order]


def _track_lanes(lanes, cfg: RunConfig):
    """Step several (scene, model) lanes in lockstep, frame by frame, on one
    TrackTable; a generator.

    After the step of frame i it yields (i, table, log): the table and the
    frame's StepLog; table.last_t then holds each stepped lane's time of
    frame i.  Lanes may differ in length; a lane's tracks leave the table
    when the loop resumes after its last frame.  Each cooperative lane's
    device readings get their noise variances in one call before frame 0.
    """
    for _, model in lanes:
        if model not in (MODEL_POSITION_ONLY, MODEL_COOPERATIVE):
            raise ValueError(f"unknown model: {model}")
    if not lanes:
        return
    table = TrackTable(len(lanes), cfg.manager_coop, process=cfg.process,
                       noise=cfg.measurement, device_gate=cfg.device_gate)
    n_frames = np.array([len(scene.ground_truth) for scene, _ in lanes], dtype=np.int64)
    shape = (int(n_frames.max(initial=0)), len(lanes))
    times = np.full(shape, np.nan)
    devices = np.zeros(shape + (4,))
    has_device = np.zeros(shape, dtype=bool)
    det_parts = []
    for k, (scene, model) in enumerate(lanes):
        frame_times = scene.ground_truth[:, 0]
        times[:len(frame_times), k] = frame_times
        det_parts.append((_frame_indices(scene.detections[:, 0], frame_times,
                                         f"{scene.scene_id}: detection"),
                          k, scene.detections[:, 1:3]))
        if model == MODEL_COOPERATIVE:
            idx = _frame_indices(scene.device[:, 0], frame_times,
                                 f"{scene.scene_id}: device row")
            if len(np.unique(idx)) < len(idx):
                raise DataError(f"{scene.scene_id}: two device rows in one frame")
            devices[idx, k, :2] = scene.device[:, 1:3]
            devices[idx, k, 2:] = ekf.measurement_noise_variances(
                cfg.measurement, cfg.process, scene.device[:, 3])[:, 2:]
            has_device[idx, k] = True
    det_frame, det_lane, det_xy = _by_frame(det_parts)
    det_at = np.searchsorted(det_frame, np.arange(len(times) + 1))

    last_frames = set(n_frames.tolist())
    for i, t in enumerate(times):
        log = step_lanes(table, t, det_lane[det_at[i]:det_at[i + 1]],
                         det_xy[det_at[i]:det_at[i + 1]], devices[i], has_device[i])
        yield i, table, log
        if i + 1 in last_frames:
            table.keep_rows(n_frames[table.lane] > i + 1)


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


def _frame_indices(t, times, what):
    """Index of the nearest frame in `times` for each timestamp in t (ties
    to even), as an int array.  A timestamp that falls outside the frames
    is a DataError."""
    t = np.asarray(t, dtype=float)
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    idx = np.rint((t - times[0]) / dt)
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
    TRACK_HEADER rows or an (N, 8) array of them."""
    times = scene.ground_truth[:, 0]
    rows = np.asarray(track_rows, dtype=float).reshape(-1, len(TRACK_HEADER))
    valid = rows[rows[:, 7] != 0]
    frames = metrics_mod.frames_from_tracks(
        scene.ground_truth[:, 1:3],
        _frame_indices(valid[:, 0], times, f"{scene.scene_id}: track row"),
        valid[:, 2:4], cfg.metric)
    return metrics_mod.metric_report(scene.scene_id, model, frames, cfg.metric)


def track_and_evaluate(scenes, cfg: RunConfig):
    """Run every configured model over each scene, all (scene, model) lanes
    in one lockstep batch; returns one {model: report} dict per scene, each
    report equal to evaluate_rows over run_tracking's rows.

    No track rows are kept: after each frame, each lane's distance from its
    ground truth to its nearest valid track, and whether it has one, go
    into (frames x lanes) arrays, and each lane is scored from its column.
    """
    lanes = [(scene, model) for scene in scenes for model in cfg.models]
    n_frames = [len(scene.ground_truth) for scene, _ in lanes]
    shape = (max(n_frames, default=0), len(lanes))
    gt_xy = np.full(shape + (2,), np.nan)
    for k, (scene, _) in enumerate(lanes):
        gt_xy[:n_frames[k], k] = scene.ground_truth[:, 1:3]
    delta = np.full(shape, np.inf)
    has_track = np.zeros(shape, dtype=bool)
    for i, table, _ in _track_lanes(lanes, cfg):
        valid = table.valid
        delta[i], has_track[i] = metrics_mod.nearest_track_distances(
            gt_xy[i], table.lane[valid], table.x[valid, :2])
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
