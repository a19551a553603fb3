"""Smart-device velocity estimation: feature pipeline, forest training on
synthetic rides, and the runtime estimator with a GNSS-outage fallback.

Two forests are trained: one on motion + GNSS features, one on motion
features alone.  At runtime the GNSS-backed forest is used whenever a fix
newer than the staleness limit exists (with its polynomial features held
between fixes); otherwise the outage forest takes over.
"""

from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import scene_sim
from .forest import RegressionForest, train_forest

GNSS_STALENESS = 2.0     # s without a fix before switching to the outage model
SIGMA_V_FLOOR = 0.05     # m/s, keeps R invertible when trees agree exactly


@dataclass
class VelocityModel:
    """The trained pair of forests."""

    with_gnss: RegressionForest
    no_gnss: RegressionForest

    def run(self, imu, gnss):
        """Device stream (t, gamma_dot, v, sigma_v) from raw sensor streams."""
        est = estimate_velocity(imu, gnss, self)
        yaw = feat.yaw_rate(imu)
        n_skip = len(yaw) - len(est)
        return np.column_stack([est[:, 0], yaw[n_skip:, 1], est[:, 1], est[:, 2]])


def _feature_rows(imu, gnss):
    """(times, motion, gnss_coeffs, fresh) for every post-warm-up sample.

    fresh marks the rows whose newest GNSS fix is at most GNSS_STALENESS
    old and whose polynomial window is full; gnss may be None.
    """
    times = imu[feat.DFT_WINDOW_SAMPLES - 1:, 0]
    coeffs, age = feat.gnss_poly_track(
        times, np.empty((0, 4)) if gnss is None else gnss)
    fresh = (age <= GNSS_STALENESS) & ~np.isnan(coeffs).any(axis=1)
    return times, feat.motion_feature_matrix(imu), coeffs, fresh


def estimate_velocity(imu, gnss, model: VelocityModel):
    """(t, v_hat, sigma_v, used_gnss) rows at the sample rate.

    Nothing is emitted during the warm-up (the first full feature window).
    A row uses the GNSS-backed forest iff a fix newer than GNSS_STALENESS
    exists and enough fixes fill the polynomial window.
    """
    imu = np.asarray(imu, dtype=float)
    if len(imu) < feat.DFT_WINDOW_SAMPLES:
        return np.empty((0, 4))
    times, motion, coeffs, use_gnss = _feature_rows(imu, gnss)

    v_hat = np.empty(len(times))
    var = np.empty(len(times))
    if use_gnss.any():
        X = np.column_stack([motion[use_gnss], coeffs[use_gnss]])
        v_hat[use_gnss], var[use_gnss] = model.with_gnss.predict(X)
    if (~use_gnss).any():
        v_hat[~use_gnss], var[~use_gnss] = model.no_gnss.predict(motion[~use_gnss])
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


def build_training_set(seed, n_scenes=24):
    """Feature matrix (motion + GNSS columns), targets and scene ids.

    Each ride contributes one row per post-warm-up frame; targets are the
    ground-truth speeds.  Scene ids allow leakage-free holdout splits.
    """
    rows_X, rows_y, rows_scene = [], [], []
    for scene_idx, spec in enumerate(_training_specs(seed, n_scenes)):
        gt = scene_sim.generate_ground_truth(spec)
        rng = np.random.default_rng(spec.seed + 1)
        imu = scene_sim.synthesize_imu(gt, rng)
        gnss = scene_sim.simulate_gnss(gt, spec, rng)
        _, motion, coeffs, ok = _feature_rows(imu, gnss)
        rows_X.append(np.column_stack([motion[ok], coeffs[ok]]))
        rows_y.append(gt[feat.DFT_WINDOW_SAMPLES - 1:, 5][ok])
        rows_scene.append(np.full(int(ok.sum()), scene_idx))
    return (np.concatenate(rows_X), np.concatenate(rows_y),
            np.concatenate(rows_scene))


def holdout_count(n_scenes, holdout_fraction):
    """Whole scenes held out of training: at least one, never all."""
    n_hold = max(1, int(round(n_scenes * holdout_fraction)))
    if n_hold >= n_scenes:
        raise ValueError(f"holdout_fraction {holdout_fraction} leaves no training scene")
    return n_hold


def train_velocity_model(seed, n_scenes=24, holdout_fraction=0.25,
                         **hyperparams):
    """Train both forests on synthetic rides; returns (model, report).

    hyperparams (n_trees, max_depth, n_bins) go to both RegressionForests.
    The report carries held-out RMSE for each forest, evaluated on whole
    scenes kept out of training.
    """
    X, y, scene_ids = build_training_set(seed, n_scenes)
    unique = np.unique(scene_ids)
    n_hold = holdout_count(len(unique), holdout_fraction)
    hold = np.isin(scene_ids, unique[-n_hold:])
    X_tr, y_tr = X[~hold], y[~hold]
    X_ho, y_ho = X[hold], y[hold]

    n_motion = feat.N_MOTION_FEATURES
    f_with = train_forest(X_tr, y_tr, seed=seed,
                          feature_layout=feat.feature_layout(True), **hyperparams)
    f_without = train_forest(X_tr[:, :n_motion], y_tr, seed=seed + 1,
                             feature_layout=feat.feature_layout(False),
                             **hyperparams)
    pred_w, _ = f_with.predict(X_ho)
    pred_wo, _ = f_without.predict(X_ho[:, :n_motion])
    report = {
        "n_train": int(len(y_tr)),
        "n_holdout": int(len(y_ho)),
        "rmse_with_gnss": float(np.sqrt(np.mean((pred_w - y_ho) ** 2))),
        "rmse_no_gnss": float(np.sqrt(np.mean((pred_wo - y_ho) ** 2))),
    }
    return VelocityModel(with_gnss=f_with, no_gnss=f_without), report
