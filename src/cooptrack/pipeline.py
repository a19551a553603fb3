"""Scene-level pipeline: run a tracking model over a scene, persist the
per-frame track output and the assignment log, and evaluate metrics."""

import os

import numpy as np

from . import fileio
from . import metrics as metrics_mod
from . import scene_sim
from .config import RunConfig
from .errors import DataError
from .track_manager import TrackManager, TrackStatus, step_lanes

TRACK_HEADER = ("t", "track_id", "x", "y", "gamma", "gamma_dot", "v", "valid")
TRACK_TYPES = (float, int, float, float, float, float, float, int)
ASSIGN_HEADER = ("t", "track_id", "detection_id", "device_bound")

MODEL_POSITION_ONLY = "P"
MODEL_COOPERATIVE = "C"


def run_tracking_batch(lanes, cfg: RunConfig):
    """Run several (scene, model) lanes in lockstep, frame by frame.

    Returns (track_rows, assignment_rows) per lane, in lane order, each the
    same as run_tracking gives for that lane alone.  Lanes may differ in
    length; a lane stops stepping after its last frame.
    """
    for _, model in lanes:
        if model not in (MODEL_POSITION_ONLY, MODEL_COOPERATIVE):
            raise ValueError(f"unknown model: {model}")
    managers, times, dets, devs = [], [], [], []
    for scene, model in lanes:
        managers.append(TrackManager(cfg.manager_coop, process=cfg.process,
                                     noise=cfg.measurement,
                                     device_gate=cfg.device_gate))
        frame_times = scene.ground_truth[:, 0]
        det_by_frame = {}
        for i, xy in zip(_frame_indices(scene.detections[:, 0], frame_times,
                                        f"{scene.scene_id}: detection"),
                         scene.detections[:, 1:3]):
            det_by_frame.setdefault(i, []).append(xy)
        dev_by_frame = {}
        if model == MODEL_COOPERATIVE:
            idx = _frame_indices(scene.device[:, 0], frame_times,
                                 f"{scene.scene_id}: device row")
            if len(set(idx)) < len(idx):
                raise DataError(f"{scene.scene_id}: two device rows in one frame")
            dev_by_frame = dict(zip(idx, map(tuple, scene.device[:, 1:4])))
        times.append(frame_times)
        dets.append(det_by_frame)
        devs.append(dev_by_frame)

    outputs = [([], []) for _ in lanes]
    for i in range(max(map(len, times), default=0)):
        active = [k for k, frame_times in enumerate(times) if i < len(frame_times)]
        t_now = [float(times[k][i]) for k in active]
        logs = step_lanes([managers[k] for k in active],
                          [dets[k].get(i, []) for k in active], t_now,
                          [devs[k].get(i) for k in active])
        for k, t, log in zip(active, t_now, logs):
            track_rows, assign_rows = outputs[k]
            for rec in log:
                det_id = "NONE" if rec.detection_id is None else rec.detection_id
                assign_rows.append((rec.t, rec.track_id, det_id,
                                    int(rec.device_bound)))
            for track in managers[k].tracks:
                track_rows.append((t, track.id, *track.x.tolist(),
                                   int(track.status is TrackStatus.VALID)))
    return outputs


def run_tracking(scene: scene_sim.Scene, model: str, cfg: RunConfig):
    """Run one model over a scene.

    Returns (track_rows, assignment_rows): per-frame state rows for every
    live track and the assignment log.  Model P never looks at the device
    stream; model C binds it via the penalized Mahalanobis distance.
    """
    return run_tracking_batch([(scene, model)], cfg)[0]


def _frame_indices(t, times, what):
    """Index of the nearest frame in `times` for each timestamp in t (ties
    to even), as a list of ints.  A timestamp that falls outside the frames
    is a DataError."""
    t = np.asarray(t, dtype=float)
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    idx = np.rint((t - times[0]) / dt)
    outside = ~((idx >= 0) & (idx < len(times)))
    if outside.any():
        raise DataError(f"{what} at t={t[outside][0]:g} lies outside the "
                        f"scene's frames [{times[0]:g}, {times[-1]:g}]")
    return idx.astype(int).tolist()


# -- persistence -------------------------------------------------------------

def write_track_output(directory, model, track_rows, assign_rows, cfg: RunConfig,
                       scene_id):
    os.makedirs(directory, exist_ok=True)
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
    """Per-scene metric report for a model's track rows."""
    times = scene.ground_truth[:, 0]
    valid = [row for row in track_rows if row[7]]
    by_frame = {}
    for i, row in zip(_frame_indices([row[0] for row in valid], times,
                                     f"{scene.scene_id}: track row"), valid):
        by_frame.setdefault(i, []).append((row[2], row[3]))
    frames = metrics_mod.frames_from_tracks(times, scene.ground_truth[:, 1:3],
                                            by_frame, cfg.metric)
    return metrics_mod.metric_report(scene.scene_id, model, frames, cfg.metric)


def track_and_evaluate(scene: scene_sim.Scene, cfg: RunConfig, out_dir=None):
    """Run every configured model over a scene; returns reports by model."""
    reports = {}
    lanes = [(scene, model) for model in cfg.models]
    for model, (track_rows, assign_rows) in zip(cfg.models,
                                                run_tracking_batch(lanes, cfg)):
        if out_dir is not None:
            write_track_output(out_dir, model, track_rows, assign_rows, cfg,
                               scene.scene_id)
        reports[model] = evaluate_rows(scene, track_rows, cfg, model)
    return reports


def aggregate(reports):
    """min/max/mean of MOTP and MOTA over a list of per-scene reports."""
    motps = np.array([r["motp"] for r in reports])
    motas = np.array([r["mota"] for r in reports])
    return {
        "n_scenes": len(reports),
        "motp": {"min": float(motps.min()), "max": float(motps.max()),
                 "mean": float(motps.mean())},
        "mota": {"min": float(motas.min()), "max": float(motas.max()),
                 "mean": float(motas.mean())},
    }
