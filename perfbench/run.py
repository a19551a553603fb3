"""cooptrack benchmark: one run of one workload.

    python3 perfbench/run.py --workload compare_serial --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports cooptrack from ./src.  It
runs the workload in a child process (perfbench/workloads.py), which times
its passes.  After each pass the child waits while this process times one
CLI cold start in a fresh interpreter (setup_s), so that the cold starts
sample the same stretch of time as the passes.  The child's peak memory
comes from wait4 when it ends.  It prints a report and, as the last line,
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics from a traced run with --trace 1.  Records, traces and scratch
files go to .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from measure import quartiles  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("compare_serial", "velocity_train")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TIME_LIMIT_S = 170.0     # the whole run, set-up included
POLL_S = 0.05            # how often to look whether the child has ended
COLD_START = "import cooptrack.cli as cli; cli.build_parser()"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("COOPTRACK_SEED", None)     # the seed comes from --seed only
    return env


def cold_start(env):
    """(exit code, wall s, CPU s) of a fresh interpreter importing
    cooptrack.cli and building its parser."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", COLD_START], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:       # SIGTERM or Ctrl-C: leave no process behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def scipy_optimize_import_s(env):
    """Cumulative import time of scipy.optimize under `import cooptrack.cli`
    (0 when that import does not load it)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", COLD_START],
                          env=env, cwd=ROOT, check=True, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            return int(parts[1]) * 1e-6
    return 0.0


def run_child(args, env, deadline):
    """Run the workload process and a cold start each time it asks for one.

    Returns (result dict or None, peak RSS MB, cold starts).  The peak is
    the ru_maxrss that wait4 reports for the child; the cold starts are
    this process's children, so they do not count towards it."""
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "child.log")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), run_dir,
           result_path]
    peak_kb = 0
    cold = []
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=log, bufsize=0,
                                start_new_session=True)
    try:
        while True:
            # a line from the child: it has ended a pass and waits
            if (select.select([proc.stdout], [], [], POLL_S)[0]
                    and proc.stdout.readline()):
                cold.append(cold_start(env))
                proc.stdin.write(b"\n")
                continue
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                peak_kb = usage.ru_maxrss
                break
            if time.monotonic() > deadline:
                raise TimeoutError("workload did not finish in time")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
        proc.stdin.close()
        proc.stdout.close()
    result = None
    if proc.returncode == 0:
        with open(result_path) as fh:
            result = json.load(fh)
    else:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
    if result and result.get("spans"):
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        dest = os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json")
        os.replace(result["spans"], dest)
        result["spans"] = os.path.relpath(dest, ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    return result, peak_kb / 1024.0, cold


def merge_cold_starts(result, codes, timed):
    """Count the cold starts as operations of the run and put their median
    wall and CPU time into its metrics."""
    failed = [c for c in codes if c != 0]
    result["attempted"] += len(codes)
    result["failed"] += len(failed)
    result["failures"] += [f"cold start: exit code {c}" for c in failed]
    result["error_rate"] = result["failed"] / result["attempted"]
    result["cold_starts_s"] = [w for w, _ in timed]
    result["cold_starts_cpu_s"] = [c for _, c in timed]
    m = result["metrics"]
    m["cold_starts"] = len(timed)
    m["setup_s"] = statistics.median(result["cold_starts_s"]) if timed else None
    m["setup_cpu_s"] = (statistics.median(result["cold_starts_cpu_s"])
                        if timed else None)


def environment():
    with open("/proc/cpuinfo") as fh:
        models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": models[0] if models else platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "src_sha256": src.hexdigest()[:12]}


def report(args, result, metrics, env_info):
    m = result["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={m['passes']} config={result['config_hash']} "
          f"digest={result['digest']}")
    print(f"  env: {json.dumps(env_info, sort_keys=True)}")
    walls = [w for w, traced in zip(result["pass_walls_s"], result["pass_traced"])
             if w is not None and not traced]
    q1, _, q3 = quartiles(walls)
    lines = [("setup_s", m["setup_s"], "s",
              f"median of {m['cold_starts']} cold starts, one after each "
              f"pass; their CPU time {m['setup_cpu_s']:.4g} s")]
    lines += [("wall_s", m["wall_s"], "s", f"median of {m['passes']} passes, "
               f"quartiles {q1:.4g}..{q3:.4g}")]
    lines += [("runs_per_s", m["runs_per_s"], "1/s", "")]
    if "train_s" in m:
        lines += [("train_s", m["train_s"], "s", ""),
                  ("predict_rows_per_s", m["predict_rows_per_s"], "1/s", ""),
                  ("ride_ms_p50", m["ride_ms_p50"], "ms",
                   f"one VelocityModel.run; {m['ride_samples']} rides"),
                  ("ride_ms_p90", m["ride_ms_p90"], "ms",
                   "needs >= 10 samples beyond it" if m["ride_ms_p90"] is None
                   else "")]
    if result.get("rmse"):
        report_rmse, held_out = result["rmse"]["report"], result["rmse"]["held_out_rides"]
        if report_rmse:
            lines += [("rmse_report", report_rmse["rmse_with_gnss"], "m/s",
                       f"with GNSS; outage {report_rmse['rmse_no_gnss']:.4g} "
                       "(train-velocity's report, not checked)")]
        if held_out:
            lines += [("rmse_held_out", held_out[0], "m/s",
                       f"with GNSS; outage {held_out[1]:.4g} (checked: lower)")]
    if "peak_rss_mb" in metrics:
        lines += [("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
                   "workload process and its children")]
    lines += [("error_rate", result["error_rate"], "ratio",
               f"{result['failed']} of {result['attempted']} operations")]
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {unit:<6} {note}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        for name in PER_LAYER:
            value = metrics[name]["value"]
            note = "unreached" if name == "pixel_track.calls" and not value else ""
            print(f"  {name:<44} {value:>14.6g} {PER_LAYER[name][0]:<6} {note}")


def _terminate(signum, frame):
    """SIGTERM unwinds like Ctrl-C, so the workload process is killed and
    waited for on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "cooptrack", "cli.py")):
        print(f"perfbench: no cooptrack sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    code, _, _ = cold_start(env)        # untimed: fills the bytecode cache
    scipy_s = scipy_optimize_import_s(env) if args.trace else None
    result, peak_mb, cold = run_child(args, env, started + TIME_LIMIT_S)
    if result is not None:
        merge_cold_starts(result, [code] + [c for c, _, _ in cold],
                          [(w, cpu) for c, w, cpu in cold if c == 0])
    if (result is None or result["metrics"]["wall_s"] is None
            or result["metrics"]["setup_s"] is None
            or (args.trace and not result["metrics"]["layers"])):
        print("perfbench: the workload produced no complete pass", file=sys.stderr)
        return 1

    m = result["metrics"]
    if args.trace:
        values = dict(m["layers"], **{"cli.import.scipy_optimize_s": scipy_s})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": m["setup_s"], "wall_s": m["wall_s"],
                  "runs_per_s": m["runs_per_s"], "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    env_info = environment()
    report(args, result, metrics, env_info)

    record = dict(result, env=env_info, seconds=args.seconds, printed=metrics)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    with open(os.path.join(WORK, "records", f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
