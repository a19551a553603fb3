import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from cooptrack import cli, velocity
from cooptrack import features as feat
from cooptrack import scene_sim
from cooptrack.errors import CoopTrackError, DataError
from cooptrack.forest import RegressionForest
from cooptrack.velocity import (GNSS_STALENESS, SIGMA_V_FLOOR, VelocityModel,
                                build_training_set, estimate_velocity,
                                train_velocity_model)
from oracles import concatenated_training_set, whole_ride_velocity

BENCH_SEED = 11


@pytest.fixture(scope="session")
def benchmark_model():
    model, report = train_velocity_model(seed=BENCH_SEED, n_scenes=24,
                                         n_trees=80)
    return model, report


def make_ride(seed=123, v_peak=4.0, duration=14.0, with_gnss=True):
    spec = scene_sim.SceneSpec(kind=scene_sim.KIND_STARTING, seed=seed,
                               v_peak=v_peak, duration=duration)
    gt = scene_sim.generate_ground_truth(spec)
    rng = np.random.default_rng(seed + 1)
    imu = scene_sim.synthesize_imu(gt, rng)
    gnss = None
    if with_gnss:
        t = gt[:, 0]
        t_gnss = np.arange(0.0, t[-1] + 1e-9, 1.0)
        gnss = np.column_stack([
            t_gnss,
            np.interp(t_gnss, t, gt[:, 5]) + rng.normal(0, 0.3, len(t_gnss)),
            np.interp(t_gnss, t, gt[:, 1]) + rng.normal(0, 3.0, len(t_gnss)),
            np.interp(t_gnss, t, gt[:, 2]) + rng.normal(0, 3.0, len(t_gnss)),
        ])
    return gt, imu, gnss


class TestTrainingReport:
    def test_gnss_forest_beats_outage_forest_on_holdout(self, benchmark_model):
        _, report = benchmark_model
        assert report["rmse_with_gnss"] < report["rmse_no_gnss"]

    def test_training_is_seed_deterministic(self):
        a, ra = train_velocity_model(seed=3, n_scenes=6, n_trees=8)
        b, rb = train_velocity_model(seed=3, n_scenes=6, n_trees=8)
        assert ra == rb
        assert a.with_gnss.to_json() == b.with_gnss.to_json()
        assert a.no_gnss.to_json() == b.no_gnss.to_json()

    @pytest.mark.parametrize("n_scenes, holdout_fraction",
                             [(6, 0.25), (7, 0.5), (5, 0.1)])
    def test_holdout_rows_are_those_of_the_last_scenes(
            self, monkeypatch, n_scenes, holdout_fraction):
        X, y, scene_ids = build_training_set(seed=4, n_scenes=n_scenes)
        assert (np.diff(scene_ids) >= 0).all()
        unique = np.unique(scene_ids)
        n_hold = velocity.holdout_count(len(unique), holdout_fraction)
        hold = np.isin(scene_ids, unique[-n_hold:])
        seen = {}

        class Recorder:
            """Stands in for a fitted forest and records what it scores."""

            def __init__(self, name):
                self.name = name

            def predict(self, X_ho):
                seen[self.name] = X_ho
                return np.zeros(len(X_ho)), np.zeros(len(X_ho))

        def fit_pair(X_tr, y_tr, seed, hyperparams):
            seen["X_tr"], seen["y_tr"] = X_tr, y_tr
            return Recorder("with"), Recorder("without")

        monkeypatch.setattr(velocity, "_fit_pair", fit_pair)
        _, report = train_velocity_model(seed=4, n_scenes=n_scenes,
                                         holdout_fraction=holdout_fraction)
        # two slices of one training matrix, not copies
        assert seen["X_tr"].base is not None
        assert seen["X_tr"].base is seen["with"].base
        assert np.array_equal(seen["X_tr"], X[~hold])
        assert np.array_equal(seen["y_tr"], y[~hold])
        assert np.array_equal(seen["with"], X[hold])
        assert np.array_equal(seen["without"],
                              X[hold][:, :feat.N_MOTION_FEATURES])
        assert report["n_train"] == (~hold).sum()
        assert report["n_holdout"] == hold.sum()
        assert report["rmse_with_gnss"] == np.sqrt(np.mean(y[hold] ** 2))

    def test_feature_layouts_embedded(self, benchmark_model):
        model, _ = benchmark_model
        assert model.with_gnss.feature_layout["with_gnss"] is True
        assert model.no_gnss.feature_layout["with_gnss"] is False
        assert model.with_gnss.n_features == feat.N_MOTION_FEATURES + 4


class TestTrainingSet:
    def test_bits_of_stacked_ride_blocks(self):
        got = build_training_set(seed=6, n_scenes=5)
        want = concatenated_training_set(6, 5)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_memory_peak_near_the_matrix(self):
        tracemalloc.start()
        try:
            X, y, scene_ids = build_training_set(seed=1, n_scenes=48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned arrays and one ride's ground-truth integration; a
        # list of per-ride blocks stacked at the end holds them twice
        assert peak < 1.6 * (X.nbytes + y.nbytes + scene_ids.nbytes)


class TestOutageTrend:
    def test_variance_increases_without_gnss_on_fast_segments(self, benchmark_model):
        model, _ = benchmark_model
        X, y, _ = build_training_set(seed=99, n_scenes=8)
        fast = y > 4.0
        assert fast.sum() > 200
        _, var_with = model.with_gnss.predict(X[fast])
        _, var_without = model.no_gnss.predict(
            X[fast][:, :feat.N_MOTION_FEATURES])
        assert np.sqrt(var_without).mean() >= np.sqrt(var_with).mean()


class TestEstimateVelocity:
    def test_warmup_emits_nothing(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride()
        out = estimate_velocity(imu, gnss, model)
        assert len(out) == len(imu) - (feat.DFT_WINDOW_SAMPLES - 1)
        assert out[0, 0] == pytest.approx(imu[feat.DFT_WINDOW_SAMPLES - 1, 0])
        assert out[0, 0] >= 5.1

    def test_no_gnss_stream_uses_outage_forest_everywhere(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, _ = make_ride(with_gnss=False)
        out = estimate_velocity(imu, None, model)
        assert (out[:, 3] == 0.0).all()

    def test_model_switch_at_staleness_boundary(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride()
        cutoff = 8.0
        out = estimate_velocity(imu, gnss[gnss[:, 0] <= cutoff], model)
        used = out[:, 3].astype(bool)
        t = out[:, 0]
        switch = t[~used].min()
        # last fix at 8.0 s: stale strictly after 8.0 + 2.0
        assert switch == pytest.approx(cutoff + GNSS_STALENESS + 0.02, abs=0.021)
        assert used[t < switch - 1e-9].all()
        assert not used[t >= switch - 1e-9].any()

    def test_sigma_floor_applied(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride()
        out = estimate_velocity(imu, gnss, model)
        assert (out[:, 2] >= SIGMA_V_FLOOR - 1e-15).all()

    def test_stationary_rider_estimates_near_zero(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride(seed=77, v_peak=0.0)
        out = estimate_velocity(imu, gnss, model)
        assert np.abs(out[:, 1]).mean() < 0.3
        out_no = estimate_velocity(imu, None, model)
        assert np.abs(out_no[:, 1]).mean() < 0.3

    def test_tracks_the_speed_ramp(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride(seed=31, v_peak=5.0)
        out = estimate_velocity(imu, gnss, model)
        truth = np.interp(out[:, 0], gt[:, 0], gt[:, 5])
        rmse = math.sqrt(np.mean((out[:, 1] - truth) ** 2))
        assert rmse < 1.0


class TestRowBlocks:
    def test_blocks_keep_the_bits_of_the_whole_ride(self, benchmark_model,
                                                    monkeypatch):
        model, _ = benchmark_model
        # 120 s with GNSS lost from 40 to 52 s: the with-GNSS forest's rows
        # run past one default block
        _, imu, gnss = make_ride(seed=5, v_peak=5.0, duration=120.0)
        gnss = gnss[(gnss[:, 0] < 40.0) | (gnss[:, 0] > 52.0)]
        whole = whole_ride_velocity(imu, gnss, model)
        used = whole[:, 3].astype(bool)
        n_fresh, n_stale = int(used.sum()), int((~used).sum())
        assert 0 < n_stale < velocity._ROW_BLOCK < n_fresh
        # GNSS rows before the outage, whose first row is the first stale
        # one after the first fresh one
        outage = np.flatnonzero(~used & (np.cumsum(used) > 0))[0]
        before = int(used[:outage].sum())
        # block ends just before, at and just after the outage on the
        # with-GNSS side; a lone last row (n - 1) on either side
        for block in [velocity._ROW_BLOCK, before - 1, before, before + 1,
                      2, 3, 500, n_fresh - 1, n_stale - 1]:
            monkeypatch.setattr(velocity, "_ROW_BLOCK", block)
            assert np.array_equal(estimate_velocity(imu, gnss, model), whole)


class TestInputValidation:
    """Malformed sensor streams end in DataError naming the first bad row
    instead of a traceback or silently wrong estimates."""

    def test_imu_without_seven_columns(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        with pytest.raises(DataError, match=r"imu must be an \(n, 7\) array, "
                           r"got shape \(701, 6\)"):
            model.run(imu[:, :6], gnss)

    def test_non_finite_imu_sample(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        imu[300, 4] = np.nan
        with pytest.raises(DataError, match="imu row 300: non-finite value"):
            model.run(imu, gnss)

    def test_imu_timestamps_not_increasing(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        imu[400, 0] = imu[399, 0]
        with pytest.raises(DataError, match="imu row 400: time 7.98 is not "
                           "after the previous row's 7.98"):
            estimate_velocity(imu, gnss, model)

    def test_gnss_without_four_columns(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        with pytest.raises(DataError, match=r"gnss must be an \(n, 4\) array, "
                           r"got shape \(12, 3\)"):
            estimate_velocity(imu, gnss[:12, :3], model)

    def test_non_finite_gnss_speed(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        gnss[6, 1] = np.nan
        with pytest.raises(DataError, match="gnss row 6: non-finite value"):
            model.run(imu, gnss)

    def test_reversed_gnss_fixes(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, gnss = make_ride()
        with pytest.raises(DataError, match="gnss row 1: time 13 is not after "
                           "the previous row's 14"):
            estimate_velocity(imu, gnss[::-1], model)

    def test_empty_gnss_means_no_fixes(self, benchmark_model):
        model, _ = benchmark_model
        _, imu, _ = make_ride()
        expected = estimate_velocity(imu, None, model)
        for empty in (np.empty((0, 4)), np.empty(0), []):
            assert np.array_equal(estimate_velocity(imu, empty, model), expected)


class TestDeviceSynthesis:
    def test_run_produces_device_stream(self, benchmark_model):
        model, _ = benchmark_model
        gt, imu, gnss = make_ride(seed=13)
        device = model.run(imu, gnss)
        assert device.shape[1] == 4
        assert len(device) == len(imu) - (feat.DFT_WINDOW_SAMPLES - 1)
        # yaw-rate column comes from the low-passed gyro, near zero here
        assert np.abs(device[:, 1]).max() < 0.5

    def test_route_through_scene_simulation(self, benchmark_model):
        model, _ = benchmark_model
        spec = scene_sim.SceneSpec(seed=21, device_from_imu=True)
        scene = scene_sim.generate_scene(spec, velocity_model=model)
        assert scene.device.shape[1] == 4
        # the device stream starts after the warm-up
        assert scene.device[0, 0] >= 5.1
        with pytest.raises(ValueError):
            scene_sim.generate_scene(scene_sim.SceneSpec(seed=21,
                                                         device_from_imu=True))


class TestForkedFit:
    """The with-GNSS forest is fitted in a forked child; its failures reach
    the caller and no child outlives the call."""

    @staticmethod
    def patch_with_gnss_fit(monkeypatch, with_gnss_fit):
        """Route the with-GNSS forest's fit through with_gnss_fit(fit, X, ...)."""
        fit = velocity.train_forest

        def train_forest(X, y, seed, feature_layout=None, **kwargs):
            if feature_layout["with_gnss"]:
                return with_gnss_fit(fit, X, y, seed,
                                     feature_layout=feature_layout, **kwargs)
            return fit(X, y, seed, feature_layout=feature_layout, **kwargs)

        monkeypatch.setattr(velocity, "train_forest", train_forest)

    def test_child_exception_reaches_caller_unchanged(self, monkeypatch):
        def non_finite_row(fit, X, y, seed, **kwargs):
            X = X.copy()
            X[7, -1] = np.nan
            return fit(X, y, seed, **kwargs)

        # the error the same fit raises in this process
        X, y, _ = build_training_set(seed=3, n_scenes=6)
        X[7, -1] = np.nan
        with pytest.raises(ValueError) as in_process:
            RegressionForest(n_trees=2, seed=3).fit(X, y)

        self.patch_with_gnss_fit(monkeypatch, non_finite_row)
        with pytest.raises(ValueError) as forked:
            train_velocity_model(seed=3, n_scenes=6, n_trees=2)
        assert type(forked.value) is type(in_process.value)
        assert str(forked.value) == str(in_process.value) == \
            "non-finite training data in row 7"
        assert multiprocessing.active_children() == []

    def test_child_exit_without_result_names_exit_code(self, monkeypatch):
        self.patch_with_gnss_fit(monkeypatch, lambda *args, **kwargs: os._exit(3))
        with pytest.raises(CoopTrackError, match="exited with code 3"):
            train_velocity_model(seed=3, n_scenes=6, n_trees=2)
        assert multiprocessing.active_children() == []

    def test_child_exit_is_cli_exit_1(self, monkeypatch, tmp_path, capsys):
        self.patch_with_gnss_fit(monkeypatch, lambda *args, **kwargs: os._exit(3))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"velocity": {"n_trees": 2,
                                                "training_scenes": 6}}))
        out = tmp_path / "model"
        assert cli.main(["--config", str(cfg), "train-velocity",
                         "--out", str(out)]) == 1
        assert "exited with code 3" in capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_interrupted_parent_terminates_child(self, monkeypatch):
        def interrupted(X, y, seed, feature_layout=None, **kwargs):
            if feature_layout["with_gnss"]:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(velocity, "train_forest", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            train_velocity_model(seed=3, n_scenes=6, n_trees=2)
        # terminated, not waited for
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_piped_cli_report_printed_once(self, tmp_path):
        # a piped stdout is block-buffered: output buffered at the fork must
        # not be written by the child too
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"velocity": {"n_trees": 2,
                                                "training_scenes": 6}}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        proc = subprocess.run(
            [sys.executable, "-m", "cooptrack.cli", "--config", str(cfg),
             "train-velocity", "--out", str(tmp_path / "model")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.count('"n_train"') == 1
        assert json.loads(proc.stdout) == json.loads(
            (tmp_path / "model" / "rmse_report.json").read_text())
