"""Smart-device velocity estimation: feature pipeline, forest training on
synthetic rides, and the runtime estimator with a GNSS-outage fallback.

Two forests are trained: one on motion + GNSS features, one on motion
features alone.  At runtime the GNSS-backed forest is used whenever a fix
newer than the staleness limit exists (with its polynomial features held
between fixes); otherwise the outage forest takes over.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import scene_sim
from .errors import CoopTrackError, DataError
from .forest import RegressionForest, row_blocks, train_forest

GNSS_STALENESS = 2.0     # s without a fix before switching to the outage model
SIGMA_V_FLOOR = 0.05     # m/s, keeps R invertible when trees agree exactly
TRAINING_SCENES = 24     # synthetic rides per training run
HOLDOUT_FRACTION = 0.25  # share of the rides held out for the RMSE report
_ROW_BLOCK = 4096        # rows of forest input built at a time


@dataclass
class VelocityModel:
    """The trained pair of forests."""

    with_gnss: RegressionForest
    no_gnss: RegressionForest

    def run(self, imu, gnss):
        """Device stream (scene_sim.DEVICE's columns) from raw sensor streams."""
        est = estimate_velocity(imu, gnss, self)
        yaw = feat.yaw_rate(imu)
        n_skip = len(yaw) - len(est)
        return scene_sim.stream_rows(scene_sim.DEVICE, t=est[:, 0], v=est[:, 1],
                                     sigma_v=est[:, 2], gamma_dot=yaw[n_skip:, 1])


def _feature_rows(imu, gnss):
    """(times, motion, gnss_coeffs, fresh) for every post-warm-up sample.

    fresh marks the rows whose newest GNSS fix is at most GNSS_STALENESS
    old and whose polynomial window is full; gnss may be None.
    """
    times = imu[feat.DFT_WINDOW_SAMPLES - 1:, 0]
    coeffs, age = feat.gnss_poly_track(
        times, np.empty((0, len(scene_sim.GNSS))) if gnss is None else gnss)
    fresh = (age <= GNSS_STALENESS) & ~np.isnan(coeffs).any(axis=1)
    return times, feat.motion_feature_matrix(imu), coeffs, fresh


def _checked_stream(name, values, n_cols):
    """values as a float (rows, n_cols) array of finite cells whose first
    column strictly increases; DataError names the first bad row, counted
    from 0."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n_cols:
        raise DataError(f"{name} must be an (n, {n_cols}) array, "
                        f"got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DataError(f"{name} row {int(np.argmin(finite))}: non-finite value")
    later = arr[1:, 0] > arr[:-1, 0]
    if not later.all():
        i = int(np.argmin(later)) + 1
        raise DataError(f"{name} row {i}: time {arr[i, 0]:g} is not after "
                        f"the previous row's {arr[i - 1, 0]:g}")
    return arr


def estimate_velocity(imu, gnss, model: VelocityModel):
    """(t, v_hat, sigma_v, used_gnss) rows at the sample rate.

    imu is an (n, 7) array (t, acc xyz, gyr xyz), gnss an array of fixes in
    scene_sim.GNSS's columns, or None or an empty array for no fixes.  Both must
    be finite with strictly increasing times, or DataError names the first
    bad row.  Nothing is emitted during the warm-up (the first full feature
    window).  A row uses the GNSS-backed forest iff a fix newer than
    GNSS_STALENESS exists and enough fixes fill the polynomial window.
    """
    imu = _checked_stream("imu", imu, 7)
    if gnss is not None and np.size(gnss) > 0:
        gnss = _checked_stream("gnss", gnss, len(scene_sim.GNSS))
    if len(imu) < feat.DFT_WINDOW_SAMPLES:
        return np.empty((0, 4))
    times, motion, coeffs, use_gnss = _feature_rows(imu, gnss)

    v_hat = np.empty(len(times))
    var = np.empty(len(times))
    for forest, fresh in ((model.with_gnss, True), (model.no_gnss, False)):
        rows = np.flatnonzero(use_gnss == fresh)
        for lo, hi in row_blocks(len(rows), _ROW_BLOCK):
            block = rows[lo:hi]
            X = (np.column_stack([motion[block], coeffs[block]]) if fresh
                 else motion[block])
            v_hat[block], var[block] = forest.predict(X)
    sigma = np.maximum(np.sqrt(var), SIGMA_V_FLOOR)
    return np.column_stack([times, v_hat, sigma, use_gnss.astype(float)])


# -- training on synthetic rides ---------------------------------------------

def _training_specs(seed, n_scenes):
    """Randomized ride specs mixing ramps, turns and stationary stretches."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n_scenes):
        scene_seed = int(rng.integers(2 ** 63))
        if i % 2 == 0:
            specs.append(scene_sim.SceneSpec(
                kind=scene_sim.KIND_STARTING, seed=scene_seed,
                v_peak=float(rng.uniform(0.0, 7.0)),
                ramp_rate=float(rng.uniform(0.8, 2.0)),
                ramp_center_time=float(rng.uniform(6.0, 10.0))))
        else:
            radius = float(rng.uniform(4.0, 12.0))
            specs.append(scene_sim.SceneSpec.turning_defaults(
                seed=scene_seed, v_peak=float(rng.uniform(2.0, 7.0)),
                turn_radius=radius,
                turn_center_time=float(rng.uniform(5.0, 7.0))))
    return specs


def build_training_set(seed, n_scenes=TRAINING_SCENES):
    """Feature matrix (motion + GNSS columns), targets and scene ids.

    Each ride contributes one row per post-warm-up frame; targets are the
    ground-truth speeds.  Scene ids allow leakage-free holdout splits; they
    never decrease, as the rides are emitted in order.  The rides' rows go
    into one matrix sized by their frame counts, so it is never copied.
    """
    specs = _training_specs(seed, n_scenes)
    bound = sum(max(0, scene_sim.frame_count(spec) - (feat.DFT_WINDOW_SAMPLES - 1))
                for spec in specs)
    X = np.empty((bound, feat.N_MOTION_FEATURES + feat.GNSS_POLY_DEGREE + 1))
    y = np.empty(bound)
    scene_ids = np.empty(bound, dtype=int)
    n = 0
    for scene_idx, spec in enumerate(specs):
        gt = scene_sim.generate_ground_truth(spec)
        rng = np.random.default_rng(spec.seed + 1)
        imu = scene_sim.synthesize_imu(gt, rng)
        gnss = scene_sim.simulate_gnss(gt, spec, rng)
        _, motion, coeffs, ok = _feature_rows(imu, gnss)
        end = n + int(ok.sum())
        X[n:end, :feat.N_MOTION_FEATURES] = motion[ok]
        X[n:end, feat.N_MOTION_FEATURES:] = coeffs[ok]
        y[n:end] = gt[feat.DFT_WINDOW_SAMPLES - 1:, scene_sim.GROUND_TRUTH.v][ok]
        scene_ids[n:end] = scene_idx
        n = end
    return X[:n], y[:n], scene_ids[:n]


def holdout_count(n_scenes, holdout_fraction):
    """Whole scenes held out of training: at least one, never all.  A
    negative or non-finite fraction is a ValueError."""
    if not 0 <= holdout_fraction < math.inf:
        raise ValueError(f"holdout_fraction must be finite, >= 0: {holdout_fraction}")
    n_hold = max(1, int(round(n_scenes * holdout_fraction)))
    if n_hold >= n_scenes:
        raise ValueError(f"holdout_fraction {holdout_fraction} leaves no training scene")
    return n_hold


def _fit_and_send(conn, *args, **kwargs):
    """Body of the forked child: fit one forest and send (forest, None)
    back, or (None, exception) if the fit raised."""
    try:
        result = train_forest(*args, **kwargs), None
    except Exception as exc:
        result = None, exc
    conn.send(result)


def _fit_pair(X_tr, y_tr, seed, hyperparams):
    """(with-GNSS forest, outage forest), fitted side by side: a forked
    child fits the with-GNSS forest while this process fits the outage
    forest.  Each fit is the one a single process would make.

    fork, not spawn: the child inherits X_tr/y_tr instead of a pickled
    copy, and the package starts no thread whose held lock a fork could
    copy.
    """
    import multiprocessing   # here, so that importing the CLI does not load it

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    # buffered output would otherwise be written by both processes
    sys.stdout.flush()
    sys.stderr.flush()
    child = ctx.Process(target=_fit_and_send, args=(send, X_tr, y_tr),
                        kwargs=dict(seed=seed,
                                    feature_layout=feat.feature_layout(True),
                                    **hyperparams))
    child.start()
    send.close()   # so that recv sees end of file once the child is gone
    try:
        f_without = train_forest(X_tr[:, :feat.N_MOTION_FEATURES], y_tr,
                                 seed=seed + 1,
                                 feature_layout=feat.feature_layout(False),
                                 **hyperparams)
        try:
            f_with, exc = recv.recv()
        except EOFError:
            child.join()
            raise CoopTrackError(
                f"the with-GNSS forest's fit process exited with code "
                f"{child.exitcode} without sending its forest") from None
        if exc is not None:
            raise exc
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        recv.close()
    return f_with, f_without


def train_velocity_model(seed, n_scenes=TRAINING_SCENES,
                         holdout_fraction=HOLDOUT_FRACTION,
                         **hyperparams):
    """Train both forests on synthetic rides; returns (model, report).

    hyperparams (n_trees, max_depth, n_bins) go to both RegressionForests,
    which are fitted in two processes (see _fit_pair).
    The report carries held-out RMSE for each forest, evaluated on whole
    scenes kept out of training.
    """
    X, y, scene_ids = build_training_set(seed, n_scenes)
    unique = np.unique(scene_ids)
    n_hold = holdout_count(len(unique), holdout_fraction)
    # the held-out scenes are the last ones, so their rows end the set
    split = int(np.searchsorted(scene_ids, unique[-n_hold]))
    X_tr, y_tr = X[:split], y[:split]
    X_ho, y_ho = X[split:], y[split:]

    f_with, f_without = _fit_pair(X_tr, y_tr, seed, hyperparams)
    pred_w, _ = f_with.predict(X_ho)
    pred_wo, _ = f_without.predict(X_ho[:, :feat.N_MOTION_FEATURES])
    report = {
        "n_train": int(len(y_tr)),
        "n_holdout": int(len(y_ho)),
        "rmse_with_gnss": float(np.sqrt(np.mean((pred_w - y_ho) ** 2))),
        "rmse_no_gnss": float(np.sqrt(np.mean((pred_wo - y_ho) ** 2))),
    }
    return VelocityModel(with_gnss=f_with, no_gnss=f_without), report
