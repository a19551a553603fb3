"""Spans around cooptrack's public functions, and the per-layer metrics
computed from them.

While a traced pass runs, each wrapped function is replaced at the name its
callers look up (a module attribute, or a method on its class) by a wrapper
that records a span: name, start, end, parent span and pass id.  Counts are
taken at the same boundaries from the call's arguments and result.  Spans
stay in memory and are written out when the run ends.  Only the process and
thread that installed the wrappers record.
"""

import collections
import contextlib
import functools
import json
import os
import statistics
import threading
import time

from measure import self_time


def _count_frames(counts, args, result):
    counts["pipeline.frames"] += len(args[0].ground_truth)


def _count_records(counts, args, result):
    counts["track_manager.records"] += len(result)


def _count_update_kind(counts, args, result):
    counts[f"ekf.ekf_update.calls.{args[1].kind.value}"] += 1


def _count_bound(counts, args, result):
    counts["association.device_bound"] += result is not None


def _count_rows(counts, args, result):
    counts["forest.predict.rows"] += len(result[0])


def _count_gnss_rows(counts, args, result):
    counts["velocity.rows"] += len(result)
    counts["velocity.gnss_rows"] += float(result[:, 3].sum())


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function."""
    from cooptrack import (cli, ekf, features, forest, metrics, pipeline,
                           pixel_track, scene_sim, track_manager, velocity)
    manager = track_manager.TrackManager
    rf = forest.RegressionForest
    return [
        (cli, "main", "cli.main", None),
        (cli, "cmd_compare", "cli.compare", None),
        (cli, "cmd_train_velocity", "cli.train_velocity", None),
        (cli, "load_velocity_model", "cli.load_velocity_model", None),
        (scene_sim, "generate_scene", "scene_sim.generate_scene", None),
        (pipeline, "track_and_evaluate", "pipeline.track_and_evaluate", None),
        (pipeline, "run_tracking", "pipeline.run_tracking", _count_frames),
        (pipeline, "evaluate_rows", "pipeline.evaluate_rows", None),
        (pipeline, "aggregate", "pipeline.aggregate", None),
        (manager, "step", "track_manager.step", _count_records),
        (ekf, "ekf_predict", "ekf.ekf_predict", None),
        (ekf, "ekf_update", "ekf.ekf_update", _count_update_kind),
        (track_manager, "gated_cost_matrix", "association.gated_cost_matrix", None),
        (track_manager, "munkres_solve", "association.munkres_solve", None),
        (track_manager, "assign_device", "association.assign_device", _count_bound),
        (metrics, "frames_from_tracks", "metrics.frames_from_tracks", None),
        (metrics, "metric_report", "metrics.metric_report", None),
        (features, "motion_feature_matrix", "features.motion_feature_matrix", None),
        (features, "gnss_poly_track", "features.gnss_poly_track", None),
        (rf, "fit", "forest.fit", None),
        (rf, "predict", "forest.predict", _count_rows),
        (rf, "to_json", "forest.to_json", None),
        (rf, "from_json", "forest.from_json", None),
        (velocity, "build_training_set", "velocity.build_training_set", None),
        (velocity, "train_velocity_model", "velocity.train_velocity_model", None),
        (velocity, "estimate_velocity", "velocity.estimate_velocity", _count_gnss_rows),
        (pixel_track, "cv_predict", "pixel_track.cv_predict", None),
        (pixel_track, "cv_update", "pixel_track.cv_update", None),
    ]


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans = []              # (name, start_ns, end_ns, parent, pass_id)
        self.counts = collections.defaultdict(collections.Counter)
        self.pass_id = None
        self._stack = []
        self._owner = None

    def _active(self):
        return (self.pass_id is not None
                and self._owner == (os.getpid(), threading.get_ident()))

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.pass_id)
            if count is not None:
                count(tracer.counts[tracer.pass_id], args, result)
            return result
        return traced

    @contextlib.contextmanager
    def tracing(self, pass_id):
        """Wrap every target for the duration of one pass."""
        undo = []
        for owner, attr, name, count in _targets():
            raw = vars(owner).get(attr, getattr(owner, attr))
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, count))
            else:
                patched = self.wrap(name, raw, count)
            undo.append((owner, attr, raw))
            setattr(owner, attr, patched)
        self._owner = (os.getpid(), threading.get_ident())
        self.pass_id = pass_id
        try:
            yield
        finally:
            self.pass_id = None
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "pass"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}},
                      fh)


def span_totals(spans):
    """Per pass and span name: calls, inclusive ns and self ns."""
    children = collections.defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = collections.defaultdict(
        lambda: collections.defaultdict(lambda: [0, 0, 0]))
    for index, (name, start, end, _, pass_id) in enumerate(spans):
        entry = totals[pass_id][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_time(start, end, children.get(index, ()))
    return totals


# Per-layer metrics: name -> (unit, better).  Times are per call unless the
# name says otherwise; counts are per pass.  A layer a workload does not
# reach reads 0.
PER_LAYER = {
    "cli.import.scipy_optimize_s": ("s", "lower"),
    "cli.compare.self_s": ("s", "lower"),
    "scene_sim.generate_scene.calls": ("count", "lower"),
    "scene_sim.generate_scene.ms": ("ms", "lower"),
    "pipeline.run_tracking.calls": ("count", "lower"),
    "pipeline.run_tracking.self_ms": ("ms", "lower"),
    "pipeline.frames_per_run": ("count", "lower"),
    "pipeline.evaluate_rows.ms": ("ms", "lower"),
    "track_manager.step.calls": ("count", "lower"),
    "track_manager.step.self_us": ("us", "lower"),
    "track_manager.records_per_call": ("count", "lower"),
    "ekf.ekf_predict.calls": ("count", "lower"),
    "ekf.ekf_predict.us": ("us", "lower"),
    "ekf.predicts_per_step": ("count", "lower"),
    "ekf.ekf_update.us": ("us", "lower"),
    "ekf.ekf_update.calls.position_and_device": ("count", "lower"),
    "ekf.ekf_update.calls.device_only": ("count", "lower"),
    "ekf.ekf_update.calls.position_only": ("count", "lower"),
    "association.gated_cost_matrix.us": ("us", "lower"),
    "association.munkres_solve.calls": ("count", "lower"),
    "association.munkres_solve.us": ("us", "lower"),
    "association.assign_device.calls": ("count", "lower"),
    "association.assign_device.us": ("us", "lower"),
    "association.device_bind_ratio": ("ratio", "higher"),
    "metrics.frames_from_tracks.ms": ("ms", "lower"),
    "metrics.metric_report.ms": ("ms", "lower"),
    "features.motion_feature_matrix.ms": ("ms", "lower"),
    "features.gnss_poly_track.ms": ("ms", "lower"),
    "forest.fit.calls": ("count", "lower"),
    "forest.fit.s": ("s", "lower"),
    "forest.predict.rows": ("count", "higher"),
    "forest.predict.ms": ("ms", "lower"),
    "forest.to_json.ms": ("ms", "lower"),
    "forest.from_json.ms": ("ms", "lower"),
    "velocity.build_training_set.s": ("s", "lower"),
    "velocity.estimate_velocity.ms": ("ms", "lower"),
    "velocity.gnss_row_ratio": ("ratio", "higher"),
    "pixel_track.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_s_traced": ("s", "lower"),
    "trace.wall_s_untraced": ("s", "lower"),
}

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def _pass_metrics(totals, counts):
    """Per-layer values of one traced pass (those computed from spans)."""
    def calls(name):
        return totals[name][0] if name in totals else 0

    def per_call(name, unit, which=1):
        n = calls(name)
        return totals[name][which] * _SCALE[unit] / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.compare.self_s": (totals["cli.compare"][2] * 1e-9
                               if "cli.compare" in totals else 0.0),
        "pipeline.run_tracking.self_ms": per_call("pipeline.run_tracking", "ms", 2),
        "pipeline.frames_per_run": ratio(counts["pipeline.frames"],
                                         calls("pipeline.run_tracking")),
        "track_manager.step.self_us": per_call("track_manager.step", "us", 2),
        "track_manager.records_per_call": ratio(counts["track_manager.records"],
                                                calls("track_manager.step")),
        "ekf.predicts_per_step": ratio(calls("ekf.ekf_predict"),
                                       calls("track_manager.step")),
        "association.device_bind_ratio": ratio(counts["association.device_bound"],
                                               calls("association.assign_device")),
        "forest.predict.rows": counts["forest.predict.rows"],
        "velocity.gnss_row_ratio": ratio(counts["velocity.gnss_rows"],
                                         counts["velocity.rows"]),
        "pixel_track.calls": (calls("pixel_track.cv_predict")
                              + calls("pixel_track.cv_update")),
    }
    for kind in ("position_and_device", "device_only", "position_only"):
        key = f"ekf.ekf_update.calls.{kind}"
        out[key] = counts[key]
    for metric in PER_LAYER:
        if metric in out:
            continue
        span, _, unit = metric.rpartition(".")
        if unit == "calls" and span:
            out[metric] = calls(span)
        elif unit in _SCALE:
            out[metric] = per_call(span, unit)
    return out


def layer_metrics(tracer):
    """Median over the traced passes of each span-derived metric."""
    totals = span_totals(tracer.spans)
    passes = sorted(set(totals) | set(tracer.counts))
    per_pass = [_pass_metrics(totals[p], tracer.counts[p]) for p in passes]
    if not per_pass:
        return {}
    return {name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}
