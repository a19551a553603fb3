"""Every function defined in src/cooptrack is called by some CLI command, or
is on a short allow-list that says what keeps it.

A fresh interpreter starts sys.setprofile before `import cooptrack`, so that
import-time calls count, then runs simulate, track (P and C), evaluate with
a second track file, compare --jobs 1 and a small train-velocity in
process.  Every function the profiler never saw entered must be on
ALLOWED; a new function that no command reaches fails this test until it
is wired in, deleted, or listed with its pin.
"""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "cooptrack")
PERFBENCH = os.path.join(ROOT, "perfbench")

PROBE = r"""
import contextlib, json, os, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
from cooptrack import cli

work = sys.argv[1]
config = os.path.join(work, "config.json")


def run(*argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["--config", config, *argv])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")


scenes = os.path.join(work, "scenes")
scene = os.path.join(scenes, "turning_0000")
tracks = os.path.join(work, "tracks")
run("simulate", "--out", scenes)
run("track", scene, "--model", "P", "--out", tracks)
run("track", scene, "--model", "C", "--out", tracks)
run("evaluate", scene, "--tracks", os.path.join(tracks, "tracks_P.csv"),
    "--tracks-b", os.path.join(tracks, "tracks_C.csv"))
run("compare", "--jobs", "1", "--out", os.path.join(work, "compare"))
run("train-velocity", "--out", os.path.join(work, "velocity"))
sys.setprofile(None)
with open(os.path.join(work, "entered.json"), "w") as fh:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in entered}), fh)
"""

CONFIG = {
    "scenes": {"n_starting": 1, "n_turning": 1, "occlusion_durations": [2.0]},
    "velocity": {"training_scenes": 8, "n_trees": 6},
}

# Functions no CLI command calls, each with what keeps it in src.
_TRACED = "perfbench/tracing.py wraps it"
_TRACED_ARG = "perfbench/tracing.py wraps ekf_update, which takes a Measurement"
_WORKLOAD = "the velocity_train workload loads the forests and runs the model"
_MUNKRES = "a lane with two tracks and a detection (no lane of the test run)"
ALLOWED = {
    "association.munkres_solve": "acceptance criterion 3; " + _TRACED + "; " + _MUNKRES,
    "association.penalized_mahalanobis": "acceptance criterion 3",
    "association.assign_device": _TRACED,
    "cli.load_velocity_model": _TRACED + "; " + _WORKLOAD,
    "cli.load_velocity_model._read": _WORKLOAD,
    "ekf.BikeState.as_array": "acceptance criteria 1 and 2, through predict_state",
    "ekf.BikeState.from_array": "acceptance criteria 1 and 2, through predict_state",
    "ekf.Measurement.__post_init__": _TRACED_ARG,
    "ekf.Measurement.kind": _TRACED_ARG,
    "ekf._one": "acceptance criteria 1 and 2, through predict_state",
    "ekf.predict_state": "acceptance criteria 1 and 2",
    "ekf.jacobian_f": "acceptance criterion 1",
    "ekf.noise_gain": "acceptance criterion 1",
    "ekf.ekf_predict": _TRACED,
    "ekf.ekf_update": _TRACED,
    "features.yaw_rate": _WORKLOAD + ", through VelocityModel.run",
    "features.dft_features": "acceptance criterion 8",
    "forest.RegressionForest.from_json": _TRACED + "; " + _WORKLOAD,
    "forest.RegressionForest.tree_predictions": "acceptance criterion 8",
    "forest._checked_tree": _WORKLOAD + ", through from_json",
    "metrics.FrameRecord.from_distance": "acceptance criterion 4",
    "metrics.FrameTable.from_records": "acceptance criterion 4, through mota and motp",
    "metrics.FrameTable.from_records.column": "acceptance criterion 4",
    "pixel_track.PixelState.as_array": _TRACED + ", through cv_predict and cv_update",
    "pixel_track._require_finite": _TRACED + ", through cv_predict and cv_update",
    "pixel_track.cv_predict": _TRACED,
    "pixel_track.cv_update": _TRACED,
    "track_manager.TrackManager.__init__": _TRACED + " (TrackManager.step)",
    "track_manager.TrackManager.step": _TRACED,
    "velocity.VelocityModel.run": _WORKLOAD,
    "velocity._checked_stream": _WORKLOAD + ", through estimate_velocity",
    "velocity.estimate_velocity": _TRACED + "; " + _WORKLOAD,
    "velocity._fit_and_send": "runs in train-velocity's forked child, which the "
                              "profiler does not see",
}


def defined_functions():
    """(file, first line, qualified name) of every def in the package; the
    first line is that of the first decorator, as in co_firstlineno."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found.append((path, first, f"{prefix}{child.name}"))
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, f"{name[:-3]}.")
    return found


def test_every_function_is_reached_or_pinned(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                   check=True, cwd=tmp_path)
    entered = {(os.path.realpath(f), line) for f, line in
               json.loads((tmp_path / "entered.json").read_text())}
    unreached = {qualname for path, line, qualname in defined_functions()
                 if (os.path.realpath(path), line) not in entered}
    assert sorted(unreached - set(ALLOWED)) == []
    # an entry whose function is now reached, or gone, should leave the list
    assert sorted(set(ALLOWED) - unreached) == []


def test_benchmark_span_targets_exist():
    # perfbench/tracing.py looks up every function it wraps by name when a
    # traced pass starts; entering and leaving one installs and removes all
    # the wrappers, so a renamed or deleted target fails here rather than
    # only under `perfbench/run.py --trace 1`
    from cooptrack import track_manager
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    step = track_manager.TrackManager.step
    with tracing.Tracer().tracing(0):
        assert track_manager.TrackManager.step is not step
    assert track_manager.TrackManager.step is step
