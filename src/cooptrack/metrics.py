"""Single-object tracking metrics: MOTP, MOTA and the pairwise MOTAP verdict.

Per ground-truth frame the evaluated track is the nearest valid track in the
x-y plane.  A frame with no valid track is a detection miss (dm); a frame
whose nearest track is farther than tau is a localization miss (lm) and
contributes tau to the precision numerator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError


@dataclass(frozen=True)
class MetricConfig:
    tau: float = 1.0       # miss threshold, m
    alpha: float = 0.025   # MOTA significance
    beta: float = 0.01     # MOTP significance, m

    def __post_init__(self):
        if not (self.tau > 0 and self.alpha > 0 and self.beta > 0):
            raise ValueError("tau, alpha and beta must be strictly positive")


@dataclass(frozen=True)
class FrameRecord:
    t: float
    g: int                 # ground truth exists
    delta: float | None    # distance to nearest valid track, None if no track
    dm: int                # detection miss
    lm: int                # localization miss
    c: int                 # match
    d: float               # capped distance (delta if matched, else 0)

    @classmethod
    def from_distance(cls, t, delta, tau):
        """Build the record for a frame with ground truth present."""
        if delta is None:
            return cls(t=t, g=1, delta=None, dm=1, lm=0, c=0, d=0.0)
        matched = delta <= tau
        return cls(t=t, g=1, delta=float(delta), dm=0,
                   lm=0 if matched else 1, c=1 if matched else 0,
                   d=float(delta) if matched else 0.0)


@dataclass(frozen=True, eq=False)
class FrameTable:
    """The FrameRecords of a scene as columns, one entry per frame (delta
    NaN where no valid track exists)."""

    t: np.ndarray
    g: np.ndarray
    delta: np.ndarray
    dm: np.ndarray
    lm: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @classmethod
    def from_distances(cls, t, delta, has_track, tau):
        """Frames with ground truth present, each with the distance delta to
        its nearest valid track where has_track; FrameRecord.from_distance
        per frame."""
        has_track = np.asarray(has_track, dtype=bool)
        delta = np.where(has_track, delta, np.nan)
        matched = has_track & (delta <= tau)
        return cls(t=np.asarray(t, dtype=float),
                   g=np.ones(len(has_track), dtype=np.int64), delta=delta,
                   dm=(~has_track).astype(np.int64),
                   lm=(has_track & ~matched).astype(np.int64),
                   c=matched.astype(np.int64), d=np.where(matched, delta, 0.0))

    @classmethod
    def from_records(cls, frames):
        """The table of a sequence of FrameRecords."""
        def column(name, dtype):
            return np.array([getattr(f, name) for f in frames], dtype=dtype)
        return cls(t=column("t", float), g=column("g", np.int64),
                   delta=np.array([np.nan if f.delta is None else f.delta
                                   for f in frames], dtype=float),
                   dm=column("dm", np.int64), lm=column("lm", np.int64),
                   c=column("c", np.int64), d=column("d", float))


def _table(frames) -> FrameTable:
    return frames if isinstance(frames, FrameTable) else FrameTable.from_records(frames)


def motp(frames, cfg: MetricConfig) -> float:
    """Capped mean distance over frames where a track exists; in [0, tau].

    frames is a FrameTable or a sequence of FrameRecords; the distances
    are summed in frame order.
    """
    f = _table(frames)
    lm = int(f.lm.sum())
    num = sum(f.d.tolist()) + cfg.tau * lm
    den = int(f.c.sum()) + lm
    if den == 0:
        raise UndefinedMetricError("MOTP undefined: no matched or localization-miss frames")
    return num / den


def mota(frames) -> float:
    """1 minus the weighted miss rate; localization misses count double."""
    f = _table(frames)
    g_total = int(f.g.sum())
    if g_total == 0:
        raise UndefinedMetricError("MOTA undefined: no ground truth frames")
    return 1.0 - int((f.dm + 2 * f.lm).sum()) / g_total


def motap(a, b, cfg: MetricConfig) -> int:
    """1 iff tracker A performed significantly better than B on one scene.

    a and b are (MOTA, MOTP) pairs.  A wins with a clear MOTA advantage and
    no meaningful MOTP loss, or with a clear MOTP advantage and no meaningful
    MOTA loss.
    """
    mota_a, motp_a = a
    mota_b, motp_b = b
    cond_accuracy = mota_a > mota_b + cfg.alpha and motp_a < motp_b + cfg.beta
    cond_precision = mota_a > mota_b - cfg.alpha and motp_a < motp_b - cfg.beta
    return 1 if (cond_accuracy or cond_precision) else 0


def nearest_track_distances(gt_xy, slot, track_xy):
    """Per ground-truth position gt_xy[s] (S, 2), the distance to the
    nearest of the tracks at track_xy (K, 2) whose slot (K,) is s, inf
    where there is none, and whether slot s has a track."""
    offset = track_xy - gt_xy[slot]
    delta = np.full(len(gt_xy), np.inf)
    np.minimum.at(delta, slot, np.hypot(offset[:, 0], offset[:, 1]))
    has_track = np.zeros(len(gt_xy), dtype=bool)
    has_track[slot] = True
    return delta, has_track


def frames_from_tracks(gt_times, gt_xy, track_frames, track_xy,
                       cfg: MetricConfig) -> FrameTable:
    """The FrameTable of a scene.

    gt_times/gt_xy: ground truth timestamps and (N, 2) positions;
    track_frames (K,) and track_xy (K, 2): the frame index and position of
    every valid track row.  A frame's delta is the distance to its nearest
    valid track.
    """
    delta, has_track = nearest_track_distances(
        np.asarray(gt_xy, dtype=float).reshape(-1, 2),
        np.asarray(track_frames, dtype=np.intp),
        np.asarray(track_xy, dtype=float).reshape(-1, 2))
    return FrameTable.from_distances(gt_times, delta, has_track, cfg.tau)


def frame_counts(frames):
    f = _table(frames)
    return {
        "matches": int(f.c.sum()),
        "dm": int(f.dm.sum()),
        "lm": int(f.lm.sum()),
    }


def metric_report(scene_id, model_id, frames, cfg: MetricConfig) -> dict:
    """JSON-ready per-scene report.  An undefined metric is an
    UndefinedMetricError naming the scene and the model."""
    try:
        return {
            "scene_id": scene_id,
            "model_id": model_id,
            "motp": motp(frames, cfg),
            "mota": mota(frames),
            "frame_counts": frame_counts(frames),
        }
    except UndefinedMetricError as exc:
        raise UndefinedMetricError(f"scene {scene_id}, model {model_id}: {exc}") from exc


def pairwise_report(report_a, report_b, cfg: MetricConfig) -> dict:
    """Adds both MOTAP directions for a pair of per-scene reports."""
    a = (report_a["mota"], report_a["motp"])
    b = (report_b["mota"], report_b["motp"])
    return {
        "scene_id": report_a["scene_id"],
        "model_a": report_a["model_id"],
        "model_b": report_b["model_id"],
        "motap_ab": motap(a, b, cfg),
        "motap_ba": motap(b, a, cfg),
    }
