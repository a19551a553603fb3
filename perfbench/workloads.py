"""The workloads, run as one closed loop with one client in this process:
each call into cooptrack starts when the previous one returned.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE WORK_DIR RESULT

perfbench/run.py starts this with PYTHONPATH pointing at the checkout's
src/, measures its memory from outside and reads RESULT (JSON).  A run
makes timed passes until SECONDS have gone by; every pass must reproduce
the first pass's outputs.  After each pass this process writes a line to
its stdout and waits for a line on its stdin: meanwhile run.py times one
CLI cold start, so the cold starts sample the same stretch of time as the
passes.  With TRACE=1 the passes alternate untraced and traced, and the
per-layer metrics come from the traced ones.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time

import numpy as np

from measure import Ledger, PassAborted, percentile
from tracing import Tracer, layer_metrics

from cooptrack import cli, scene_sim
from cooptrack import features as feat
from cooptrack.config import load_config
from cooptrack.velocity import GNSS_STALENESS

# The paper's experiment in small: starting and turning scenes, each with
# no occlusion and with a 2 s occlusion, tracked by both models.
COMPARE_SCENES = {"n_starting": 2, "n_turning": 2, "occlusion_durations": [2.0]}
KINDS = 2
CONDITIONS = 2
MODELS = ("P", "C")
# Pinned rather than left to the config defaults, so that a change of
# defaults does not change the workload.  16 trees instead of the default
# 300 keep a pass near 2 s (see README).
VELOCITY = {"n_trees": 16, "training_scenes": 24}
HELD_OUT_RIDES = 64
MIN_PASSES = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _main(argv):
    """cli.main with its console output kept out of the report."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _exit_ok(code):
    return [] if code == 0 else [f"exit code {code}"]


def _load_json(path):
    """The JSON document at `path`, or None when it is missing or broken."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_bytes(path):
    """The bytes of `path`, or b"" when it is missing (its check reports it)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _digest(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:12]


def _write_config(work, name, payload):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def _finite_cells(rows, columns):
    bad = [f"{col}={row[col]}" for row in rows for col in columns
           if not math.isfinite(float(row[col]))]
    return [f"non-finite {', '.join(bad[:3])}"] if bad else []


def _read_table(path):
    """(comment line, rows as dicts) of a result CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return lines[0], [dict(zip(header, line.split(","))) for line in lines[2:]]


class Compare:
    """`cooptrack compare --jobs 1` over one seeded batch per run."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.cfg = _write_config(work, "compare.json",
                                 {"seed": seed, "scenes": COMPARE_SCENES})
        self.config_hash = load_config(self.cfg).config_hash()
        self.scenes = COMPARE_SCENES["n_starting"] + COMPARE_SCENES["n_turning"]
        self.runs = self.scenes * CONDITIONS * len(MODELS)
        self.last = None            # (per_scene.csv, summary.csv) bytes

    def _check(self, out):
        def check(code):
            problems = _exit_ok(code)
            if problems:
                return problems
            comment, rows = _read_table(os.path.join(out, "per_scene.csv"))
            if comment != f"# config={self.config_hash} seed={self.seed}":
                problems.append(f"per_scene.csv comment {comment!r}")
            if len(rows) != self.runs:
                problems.append(f"per_scene.csv has {len(rows)} rows, "
                                f"expected {self.runs}")
            problems += _finite_cells(rows, ("motp", "mota"))
            _, summary = _read_table(os.path.join(out, "summary.csv"))
            if (len(summary) != KINDS * CONDITIONS
                    or sum(int(r["n_scenes"]) for r in summary)
                    != self.scenes * CONDITIONS):
                problems.append("summary.csv rows do not cover the batch")
            problems += _finite_cells(summary, [c for c in summary[0]
                                                if c.startswith(("motp_", "mota_"))]
                                      if summary else [])
            return problems
        return check

    @staticmethod
    def tables(out):
        return tuple(_read_bytes(os.path.join(out, name))
                     for name in ("per_scene.csv", "summary.csv"))

    def run_pass(self, ledger):
        out = os.path.join(self.work, "compare")
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        ledger.op("compare --jobs 1", _main,
                  ["--config", self.cfg, "compare", "--out", out, "--jobs", "1"],
                  check=self._check(out))
        wall = time.perf_counter() - start
        self.last = self.tables(out)
        return {"wall_s": wall, "runs_per_s": self.runs / wall}

    def untimed_checks(self, ledger):
        pass

    def digest(self):
        """Digest of the last pass's per_scene.csv and summary.csv."""
        return _digest(*self.last) if self.last else None


def _held_out_rides(seed):
    """(IMU, GNSS, true speed per post-warm-up IMU sample) of rides the
    forests never saw; every other turning ride loses GNSS for 4 s so the
    outage forest is used too."""
    rng = np.random.default_rng([seed, 7])
    rides = []
    for i in range(HELD_OUT_RIDES):
        ride_seed = int(rng.integers(2 ** 63))
        if i % 2 == 0:
            spec = scene_sim.SceneSpec(
                kind=scene_sim.KIND_STARTING, duration=14.0, seed=ride_seed,
                v_peak=float(rng.uniform(1.0, 6.0)),
                ramp_rate=float(rng.uniform(0.8, 2.0)),
                ramp_center_time=float(rng.uniform(6.0, 10.0)))
        else:
            spec = scene_sim.SceneSpec.turning_defaults(
                seed=ride_seed, v_peak=float(rng.uniform(2.0, 6.0)),
                turn_radius=float(rng.uniform(4.0, 12.0)),
                turn_center_time=float(rng.uniform(5.0, 7.0)))
        gt = scene_sim.generate_ground_truth(spec)
        ride_rng = np.random.default_rng(ride_seed)
        imu = scene_sim.synthesize_imu(gt, ride_rng)
        t = gt[:, 0]
        t_gnss = np.arange(0.0, t[-1] + 1e-9, 1.0)
        if i % 4 == 3:
            t_gnss = t_gnss[(t_gnss < 5.0) | (t_gnss >= 9.0)]
        noise = ride_rng.normal(0.0, 1.0, (len(t_gnss), 3))
        gnss = np.column_stack([
            t_gnss,
            np.interp(t_gnss, t, gt[:, 5]) + spec.sigma_gnss_v * noise[:, 0],
            np.interp(t_gnss, t, gt[:, 1]) + spec.sigma_gnss_pos * noise[:, 1],
            np.interp(t_gnss, t, gt[:, 2]) + spec.sigma_gnss_pos * noise[:, 2],
        ])
        rides.append((imu, gnss, gt[feat.DFT_WINDOW_SAMPLES - 1:, 5]))
    return rides


class VelocityTrain:
    """train-velocity, load_velocity_model, then VelocityModel.run on
    held-out rides."""

    def __init__(self, seed, work):
        self.work = work
        self.cfg = _write_config(work, "velocity.json",
                                 {"seed": seed, "velocity": VELOCITY})
        self.config_hash = load_config(self.cfg).config_hash()
        self.rides = _held_out_rides(seed)
        self.gnss_rows = self._gnss_rows(self.rides)
        self.outputs = None
        self.model = None
        self.report = None          # the last rmse_report.json
        self.held_out_rmse = None   # (with GNSS, outage) on self.gnss_rows

    @staticmethod
    def _gnss_rows(rides):
        """(features, true speeds) of the held-out samples that have a fresh
        GNSS fix, the rows on which both forests can be compared."""
        X, y = [], []
        for imu, gnss, speed in rides:
            times = imu[feat.DFT_WINDOW_SAMPLES - 1:, 0]
            coeffs, age = feat.gnss_poly_track(times, gnss)
            fresh = (age <= GNSS_STALENESS) & ~np.isnan(coeffs).any(axis=1)
            X.append(np.column_stack([feat.motion_feature_matrix(imu)[fresh],
                                      coeffs[fresh]]))
            y.append(speed[fresh])
        return np.concatenate(X), np.concatenate(y)

    def _train_check(self, out):
        def check(code):
            problems = _exit_ok(code)
            if problems:
                return problems
            self.report = _load_json(os.path.join(out, "rmse_report.json"))
            if self.report is None:
                return [f"no readable rmse_report.json in {out}"]
            w, wo = self.report["rmse_with_gnss"], self.report["rmse_no_gnss"]
            if not (math.isfinite(w) and math.isfinite(wo) and w > 0 and wo > 0):
                return [f"rmse_with_gnss {w}, rmse_no_gnss {wo} not both finite "
                        "and positive"]
            return []
        return check

    def _forest_rmse(self):
        X, y = self.gnss_rows
        pred_w, _ = self.model.with_gnss.predict(X)
        pred_wo, _ = self.model.no_gnss.predict(X[:, :feat.N_MOTION_FEATURES])
        return (float(np.sqrt(np.mean((pred_w - y) ** 2))),
                float(np.sqrt(np.mean((pred_wo - y) ** 2))))

    def _forest_check(self, rmse):
        self.held_out_rmse = rmse
        w, wo = rmse
        if not (math.isfinite(w) and math.isfinite(wo) and w < wo):
            return [f"held-out RMSE with GNSS {w} not below outage {wo}"]
        return []

    def untimed_checks(self, ledger):
        """With a fresh GNSS fix, the with-GNSS forest must beat the outage
        forest on the held-out rides (the paper's claim that GNSS helps)."""
        ledger.op("with-GNSS forest ahead on held-out rides", self._forest_rmse,
                  check=self._forest_check)

    @staticmethod
    def _ride_check(imu):
        def check(est):
            expected = (len(imu) - (feat.DFT_WINDOW_SAMPLES - 1), 4)
            if est.shape != expected:
                return [f"shape {est.shape}, expected {expected}"]
            if not np.all(np.isfinite(est)) or not np.all(est[:, 3] > 0):
                return ["non-finite estimate or non-positive sigma_v"]
            return []
        return check

    def run_pass(self, ledger):
        out = os.path.join(self.work, "model")
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        ledger.op("train-velocity", _main,
                  ["--config", self.cfg, "train-velocity", "--out", out],
                  check=self._train_check(out))
        train_s = time.perf_counter() - start
        model = ledger.op("load_velocity_model", cli.load_velocity_model, out)
        infer_start = time.perf_counter()
        outputs = []
        ride_ms = []
        for i, (imu, gnss, _) in enumerate(self.rides):
            t0 = time.perf_counter()
            outputs.append(ledger.op(f"VelocityModel.run ride {i}", model.run,
                                     imu, gnss, check=self._ride_check(imu)))
            ride_ms.append((time.perf_counter() - t0) * 1e3)
        end = time.perf_counter()
        self.model = model
        self.outputs = ([_read_bytes(os.path.join(out, "rmse_report.json"))]
                        + [o.tobytes() for o in outputs])
        infer_s = end - infer_start
        return {"wall_s": end - start, "runs_per_s": len(outputs) / infer_s,
                "train_s": train_s, "ride_ms": ride_ms,
                "predict_rows_per_s": sum(len(o) for o in outputs) / infer_s}

    def digest(self):
        return _digest(*self.outputs) if self.outputs else None


WORKLOADS = {
    "compare_serial": Compare,
    "velocity_train": VelocityTrain,
}


def _enough(passes, trace):
    done = [p for p in passes if "wall_s" in p]
    if trace:
        traced = sum(p["traced"] for p in done)
        return traced >= 2 and len(done) - traced >= 2
    return len(done) >= MIN_PASSES


def measure(workload, seconds, trace, ledger, tracer, between):
    """Timed passes for `seconds`, calling `between` after each.  A pass
    whose check fails is kept; a pass that raises ends the run."""
    passes = []
    deadline = time.perf_counter() + seconds
    first = None
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        try:
            with tracer.tracing(len(passes)) if traced else contextlib.nullcontext():
                result = workload.run_pass(ledger)
            workload.untimed_checks(ledger)
        except PassAborted:
            passes.append({"traced": traced, "aborted": True})
            break
        result["traced"] = traced
        passes.append(result)
        if first is None:
            first = workload.digest()
        else:
            ledger.op("outputs equal the first pass's", workload.digest,
                      check=lambda digest: [] if digest == first
                      else [f"digest {digest} != {first}"])
        between()
        if time.perf_counter() >= deadline and _enough(passes, trace):
            break
    return passes


def _median(passes, key):
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else None


def summarize(name, passes, trace, tracer):
    """Workload-level metrics of one run, from its passes."""
    untraced = [p for p in passes if not p["traced"] and "wall_s" in p]
    out = {"passes": len(untraced),
           "wall_s": _median(untraced, "wall_s"),
           "runs_per_s": _median(untraced, "runs_per_s")}
    if name == "velocity_train":
        out["train_s"] = _median(untraced, "train_s")
        out["predict_rows_per_s"] = _median(untraced, "predict_rows_per_s")
        samples = [ms for p in untraced for ms in p["ride_ms"]]
        out["ride_samples"] = len(samples)
        out["ride_ms_p50"] = statistics.median(samples) if samples else None
        out["ride_ms_p90"] = percentile(samples, 90)
    if trace:
        traced = [p for p in passes if p["traced"] and "wall_s" in p]
        layers = layer_metrics(tracer)
        t_wall = _median(traced, "wall_s")
        if layers and t_wall and out["wall_s"]:
            layers["trace.wall_s_traced"] = t_wall
            layers["trace.wall_s_untraced"] = out["wall_s"]
            layers["trace.overhead_ratio"] = t_wall / out["wall_s"] - 1.0
        out["layers"] = layers
    return out


def main(argv):
    name, seed, seconds, trace, work, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"cooptrack imported from {cli.__file__}, not from {src}")
    os.makedirs(work, exist_ok=True)
    workload = WORKLOADS[name](seed, work)
    ledger = Ledger()
    tracer = Tracer()
    # the line protocol with run.py gets the real stdout; anything else the
    # process writes there goes to stderr
    channel = os.fdopen(os.dup(1), "wb", buffering=0)
    os.dup2(2, 1)

    def cold_start_by_parent():
        channel.write(b"\n")
        sys.stdin.buffer.readline()

    passes = measure(workload, seconds, trace, ledger, tracer,
                     between=cold_start_by_parent)
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "config_hash": workload.config_hash, "digest": workload.digest(),
        "pass_walls_s": [p.get("wall_s") for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": ledger.error_rate(),
        "failures": ledger.failures[:20],
        "metrics": summarize(name, passes, trace, tracer),
    }
    if name == "velocity_train":
        # RMSE of (with GNSS, outage) forest: the program's own report, on
        # its six held-out training rides, and on the benchmark's rides
        result["rmse"] = {"report": workload.report,
                          "held_out_rides": workload.held_out_rmse}
    if trace:
        spans_path = os.path.join(work, "spans.json")
        tracer.write(spans_path)
        result["spans"] = spans_path
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1:])
