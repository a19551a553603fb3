import concurrent.futures
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cooptrack import cli, pipeline, scene_sim
from cooptrack.config import SEED_ENV_VAR, load_config
from cooptrack.errors import ConfigError, DataError, NumericalError
from cooptrack.features import feature_layout
from cooptrack.forest import RegressionForest, train_forest


def write_config(path, **overrides):
    base = {"scenes": {"n_starting": 1, "n_turning": 1}, "seed": 99}
    base.update(overrides)
    path.write_text(json.dumps(base))
    return str(path)


def run(argv):
    return cli.main([str(a) for a in argv])


def _dying_compare_chunk(payload):
    """A compare worker that dies without returning its chunk."""
    os._exit(3)


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config()
        assert cfg.process.T == 0.020
        assert cfg.seed == 20240001

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenes": {"n_cycling": 3}}))
        with pytest.raises(ConfigError, match="scenes.n_cycling"):
            load_config(str(path))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        assert load_config().seed == 777
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigError):
            load_config()

    def test_config_hash_stable(self, tmp_path):
        assert load_config().config_hash() == load_config().config_hash()
        path = tmp_path / "seed1.json"
        path.write_text(json.dumps({"seed": 1}))
        assert load_config(str(path)).config_hash() != load_config().config_hash()


class TestSimulate:
    def test_counts_match_configuration(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           scenes={"n_starting": 3, "n_turning": 2})
        out = tmp_path / "scenes"
        assert run(["--config", cfg, "simulate", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        kinds = [s["kind"] for s in manifest["scenes"]]
        assert kinds.count("starting") == 3
        assert kinds.count("turning_right") == 2
        assert len(manifest["scenes"]) == 5

    def test_full_batch_counts(self, tmp_path):
        # the batch sizes used for like-for-like result tables
        cfg = write_config(tmp_path / "c.json",
                           scenes={"n_starting": 87, "n_turning": 74})
        out = tmp_path / "scenes"
        assert run(["--config", cfg, "simulate", "--out", out,
                    "--no-occlusion"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        kinds = [s["kind"] for s in manifest["scenes"]]
        assert kinds.count("starting") == 87
        assert kinds.count("turning_right") == 74

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["--config", cfg, "simulate", "--out", out_a])
        run(["--config", cfg, "simulate", "--out", out_b])
        for scene_dir in ("starting_0000", "turning_0000"):
            for name in ("ground_truth.csv", "detections.csv", "device.csv",
                         "gnss.csv"):
                assert (out_a / scene_dir / name).read_bytes() == \
                    (out_b / scene_dir / name).read_bytes()

    def test_occlusion_masks_share_start_frame(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "scenes"
        run(["--config", cfg, "simulate", "--out", out])
        meta = json.loads((out / "turning_0000" / "scene.json").read_text())
        windows = meta["occlusion_windows"]
        assert len(windows) == 2
        starts = sorted(w[0] for w in windows)
        assert starts[0] == pytest.approx(starts[1], abs=1e-9)

    def test_no_occlusion_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "scenes"
        run(["--config", cfg, "simulate", "--out", out, "--no-occlusion"])
        meta = json.loads((out / "turning_0000" / "scene.json").read_text())
        assert meta["occlusion_windows"] == []


@pytest.fixture(scope="module")
def scene_batch(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("batch")
    cfg_path = tmp / "c.json"
    cfg_path.write_text(json.dumps({"scenes": {"n_starting": 1, "n_turning": 1},
                                    "seed": 99}))
    out = tmp / "scenes"
    run(["--config", cfg_path, "simulate", "--out", out])
    return str(cfg_path), str(out)


class TestTrack:
    def test_track_writes_output(self, scene_batch, tmp_path):
        cfg, scenes = scene_batch
        scene_dir = os.path.join(scenes, "turning_0000")
        assert run(["--config", cfg, "track", scene_dir, "--model", "C",
                    "--out", tmp_path]) == 0
        assert (tmp_path / "tracks_C.csv").exists()
        assert (tmp_path / "assignments_C.csv").exists()
        lines = (tmp_path / "assignments_C.csv").read_text().splitlines()
        assert lines[1] == "t,track_id,detection_id,device_bound"
        assert any(line.endswith(",1") for line in lines[2:])

    def test_position_only_identical_without_device_files(self, scene_batch,
                                                          tmp_path):
        cfg, scenes = scene_batch
        scene_dir = os.path.join(scenes, "starting_0000")
        out_a = tmp_path / "with_device"
        run(["--config", cfg, "track", scene_dir, "--model", "P", "--out", out_a])
        # clone the scene without device and GNSS files
        clone = tmp_path / "scene_no_device"
        clone.mkdir()
        for name in ("ground_truth.csv", "detections.csv", "scene.json"):
            shutil.copyfile(os.path.join(scene_dir, name), clone / name)
        out_b = tmp_path / "without_device"
        run(["--config", cfg, "track", str(clone), "--model", "P", "--out", out_b])
        assert (out_a / "tracks_P.csv").read_bytes() == \
            (out_b / "tracks_P.csv").read_bytes()

    def test_malformed_scene_exits_3(self, scene_batch, tmp_path, capsys):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        broken.mkdir()
        src = os.path.join(scenes, "turning_0000")
        for name in ("ground_truth.csv", "detections.csv", "device.csv",
                     "gnss.csv", "scene.json"):
            shutil.copyfile(os.path.join(src, name), broken / name)
        det = broken / "detections.csv"
        det.write_text(det.read_text().replace("t,x,y", "bogus,x,y", 1))
        assert run(["--config", cfg, "track", broken, "--model", "P"]) == 3
        assert "detections.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda meta: meta["spec"].update(kind="unicycle"),
        lambda meta: meta.update(occlusion_windows=[[1.0]]),
        lambda meta: meta["spec"].update(sigma_device_v=0.0),
        lambda meta: meta["spec"].update(dropout_prob=-0.1),
        lambda meta: meta["spec"].update(turn_radius=0.0),
        lambda meta: meta["spec"].update(v_peak=0.0),
        lambda meta: meta["spec"].update(v_peak=math.nan),
        lambda meta: meta["spec"].update(occlusions=[[math.nan, 2.0]]),
        lambda meta: meta["spec"].update(occlusions=[[3.0, math.nan]]),
    ])
    def test_bad_scene_json_value_exits_3(self, scene_batch, tmp_path, capsys,
                                          corrupt):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        shutil.copytree(os.path.join(scenes, "turning_0000"), broken)
        meta_path = broken / "scene.json"
        meta = json.loads(meta_path.read_text())
        corrupt(meta)
        meta_path.write_text(json.dumps(meta))
        assert run(["--config", cfg, "track", broken, "--model", "P"]) == 3
        assert "scene.json: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name,cell", [
        ("track", "detections.csv", "nan"),
        ("evaluate", "tracks_P.csv", "inf"),
    ])
    def test_non_finite_cell_exits_3(self, scene_batch, tmp_path, capsys,
                                     command, name, cell):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        shutil.copytree(os.path.join(scenes, "starting_0000"), broken)
        assert run(["--config", cfg, "track", broken, "--model", "P"]) == 0
        path = broken / name
        lines = path.read_text().splitlines()
        lineno = 4          # a data row, past any comment and the header
        lines[lineno - 1] = cell + lines[lineno - 1][lines[lineno - 1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        argv = {"track": ["track", broken, "--model", "P"],
                "evaluate": ["evaluate", broken, "--tracks", path]}[command]
        capsys.readouterr()
        assert run(["--config", cfg] + argv) == 3
        assert f"{name} line {lineno}: non-finite" in capsys.readouterr().err

    def test_non_positive_sigma_v_exits_3(self, scene_batch, tmp_path, capsys):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        shutil.copytree(os.path.join(scenes, "turning_0000"), broken)
        path = broken / "device.csv"
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",0.000000"
        path.write_text("\n".join(lines) + "\n")
        assert run(["--config", cfg, "track", broken, "--model", "C"]) == 3
        assert "device.csv: sigma_v must be strictly positive" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("model,name,corrupt,message", [
        # the device row of frame 2 (t = 0.04) again, stamped 1 ms later
        ("C", "device.csv", lambda rows: rows.insert(4, "0.041" + rows[3][8:]),
         "two device rows in one frame"),
        ("P", "detections.csv", lambda rows: rows.append("12.500000,0.0,0.0"),
         "detection at t=12.5 lies outside the scene's frames"),
    ], ids=["duplicate_device_frame", "detection_past_last_frame"])
    def test_unbinnable_rows_exit_3(self, scene_batch, tmp_path, capsys, model,
                                    name, corrupt, message):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        shutil.copytree(os.path.join(scenes, "turning_0000"), broken)
        path = broken / name
        rows = path.read_text().splitlines()
        corrupt(rows)
        path.write_text("\n".join(rows) + "\n")
        assert run(["--config", cfg, "track", broken, "--model", model]) == 3
        assert message in capsys.readouterr().err

    # rows[0] is the header, so rows[k] is data row k
    @pytest.mark.parametrize("corrupt", [lambda rows: rows.pop(50),
                                         lambda rows: rows.insert(50, rows.pop(51))],
                             ids=["deleted_row", "swapped_rows"])
    @pytest.mark.parametrize("command", ["track", "evaluate"])
    def test_off_grid_ground_truth_exits_3(self, scene_batch, tmp_path, capsys,
                                           corrupt, command):
        cfg, scenes = scene_batch
        broken = tmp_path / "broken"
        shutil.copytree(os.path.join(scenes, "turning_0000"), broken)
        assert run(["--config", cfg, "track", broken, "--model", "P"]) == 0
        path = broken / "ground_truth.csv"
        rows = path.read_text().splitlines()
        corrupt(rows)
        path.write_text("\n".join(rows) + "\n")
        argv = {"track": ["track", broken, "--model", "P"],
                "evaluate": ["evaluate", broken, "--tracks", broken / "tracks_P.csv"]}
        capsys.readouterr()
        assert run(["--config", cfg] + argv[command]) == 3
        assert "ground_truth.csv data row 50 is off-grid" in capsys.readouterr().err


class TestEvaluate:
    def test_single_and_pairwise(self, scene_batch, tmp_path, capsys):
        cfg, scenes = scene_batch
        scene_dir = os.path.join(scenes, "turning_0000")
        run(["--config", cfg, "track", scene_dir, "--model", "P"])
        run(["--config", cfg, "track", scene_dir, "--model", "C"])
        out = tmp_path / "report.json"
        code = run(["--config", cfg, "evaluate", scene_dir,
                    "--tracks", os.path.join(scene_dir, "tracks_P.csv"),
                    "--tracks-b", os.path.join(scene_dir, "tracks_C.csv"),
                    "--model-id", "P", "--model-id-b", "C", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert {"a", "b", "motap_ab", "motap_ba"} <= set(report)
        assert report["a"]["model_id"] == "P"
        assert 0.0 <= report["a"]["motp"] <= 1.0
        assert report["motap_ab"] + report["motap_ba"] <= 1


class TestCompare:
    def test_compare_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           scenes={"n_starting": 1, "n_turning": 1,
                                   "occlusion_durations": [2.0]})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["--config", cfg, "compare", "--out", out_a]) == 0
        assert run(["--config", cfg, "compare", "--out", out_b]) == 0
        for name in ("per_scene.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        lines = (out_a / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("kind,occlusion,n_scenes")
        assert lines[1].endswith("sum_motap_PC,sum_motap_CP")
        # one row per kind and occlusion condition
        assert len(lines) == 2 + 2 * 2

    def test_variants_simulate_once_and_step_only_unshared_frames(self, tmp_path,
                                                                  monkeypatch):
        """The compare_serial benchmark's batch (seed 1, 2 + 2 scenes x {none,
        2 s} x {P, C}): each scene is simulated once, and an occ2s lane idles
        through the frames before its window, 450 of 701 (starting) and 350
        of 601 (turning), so the 16-lane batch steps 7216 lane-frames
        where stepping every lane from frame 0 takes 10416."""
        simulated, stepped = [], []
        generate, step = scene_sim.generate_scene, pipeline.step_lanes

        def count_scenes(spec, *args, **kwargs):
            simulated.append(spec)
            return generate(spec, *args, **kwargs)

        def count_lanes(table, times, *args, **kwargs):
            stepped.append(np.count_nonzero(~np.isnan(times)))
            return step(table, times, *args, **kwargs)
        monkeypatch.setattr(scene_sim, "generate_scene", count_scenes)
        monkeypatch.setattr(pipeline, "step_lanes", count_lanes)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "scenes": {
            "n_starting": 2, "n_turning": 2, "occlusion_durations": [2.0]}}))
        assert run(["--config", cfg, "compare", "--out", tmp_path / "out"]) == 0
        assert len(simulated) == 4 and not any(spec.occlusions for spec in simulated)
        assert len(stepped) == 701
        # 8 lanes of each kind; the 4 occ2s lanes of a kind start late
        assert 8 * 701 + 8 * 601 == 10416
        assert sum(stepped) == 10416 - 4 * 450 - 4 * 350 == 7216

    def test_parallel_jobs_match_serial(self, tmp_path):
        # more scenes than one lockstep chunk, so the workers split the
        # batch at a chunk boundary
        n_scenes = cli.COMPARE_CHUNK_SCENES + 2
        cfg = write_config(tmp_path / "c.json",
                           scenes={"n_starting": n_scenes // 2,
                                   "n_turning": n_scenes - n_scenes // 2,
                                   "occlusion_durations": [1.0]})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["--config", cfg, "compare", "--out", serial]) == 0
        assert run(["--config", cfg, "compare", "--out", parallel,
                    "--jobs", "2"]) == 0
        for name in ("per_scene.csv", "summary.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        pools = []

        class InProcessPool:
            """Records max_workers and maps in this process: starts no worker."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        for n_starting, workers in [(1, []), (cli.COMPARE_CHUNK_SCENES + 1, [2])]:
            cfg = write_config(tmp_path / "c.json", scenes={
                "n_starting": n_starting, "n_turning": 0, "occlusion_durations": [],
                "starting": {"duration": 1.0}})
            assert run(["--config", cfg, "compare", "--out", tmp_path / "x",
                        "--jobs", 64]) == 0
            assert pools == workers


class TestTrainVelocity:
    def test_writes_models_and_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           velocity={"n_trees": 10, "training_scenes": 6})
        out = tmp_path / "model"
        assert run(["--config", cfg, "train-velocity", "--out", out]) == 0
        report = json.loads((out / "rmse_report.json").read_text())
        # the RMSE ordering is a property of the full-size benchmark, not of
        # this deliberately tiny smoke configuration
        assert report["rmse_with_gnss"] > 0
        assert report["n_holdout"] > 0
        model = cli.load_velocity_model(str(out))
        assert isinstance(model.with_gnss, RegressionForest)
        assert model.no_gnss.feature_layout["with_gnss"] is False

    def test_bad_forest_file_is_data_error(self, tmp_path):
        (tmp_path / "forest_with_gnss.json").write_text('{"format": "x"}')
        with pytest.raises(DataError, match="forest_with_gnss.json"):
            cli.load_velocity_model(str(tmp_path))

    def test_self_looped_forest_file_is_data_error(self, tmp_path):
        layout = feature_layout(True)
        X = np.random.default_rng(0).normal(size=(120, len(layout["names"])))
        payload = json.loads(train_forest(X, X[:, 0], seed=0, n_trees=2,
                                          feature_layout=layout).to_json())
        payload["trees"][0]["left"][0] = 0
        (tmp_path / "forest_with_gnss.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="forest_with_gnss.json: not a forest"):
            cli.load_velocity_model(str(tmp_path))

    def test_swapped_forest_files_are_data_error(self, tmp_path):
        rng = np.random.default_rng(0)
        for name, with_gnss in (("forest_with_gnss.json", False),
                                ("forest_no_gnss.json", True)):
            layout = feature_layout(with_gnss)
            X = rng.normal(size=(120, len(layout["names"])))
            forest = train_forest(X, X[:, 0], seed=0, n_trees=2,
                                  feature_layout=layout)
            (tmp_path / name).write_text(forest.to_json())
        with pytest.raises(DataError, match="forest_with_gnss.json: not the "
                                            "with_gnss=True feature layout"):
            cli.load_velocity_model(str(tmp_path))

    def test_same_seed_same_model_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           velocity={"n_trees": 6, "training_scenes": 6})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["--config", cfg, "train-velocity", "--out", out_a])
        run(["--config", cfg, "train-velocity", "--out", out_b])
        for name in ("forest_with_gnss.json", "forest_no_gnss.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_section": 1}))
        assert run(["--config", bad, "simulate", "--out", tmp_path / "x"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,scenes", [
        ("simulate", {"n_starting": 1, "n_turning": 0, "starting": {"duration": -1}}),
        ("compare", {"n_starting": 1, "n_turning": 0, "occlusion_durations": [20.0]}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "noise": {"sigma_device_v": 0.0}}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "noise": {"sigma_detection": -1.0}}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "noise": {"device_bias_tau": 0.0}}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "noise": {"dropout_prob": 1.5}}),
        # the turn's peak yaw rate is v_peak / turn_radius, its length
        # pi turn_radius / v_peak
        ("compare", {"n_starting": 0, "n_turning": 1, "turning": {"turn_radius": 0}}),
        ("compare", {"n_starting": 0, "n_turning": 1, "turning": {"v_peak": 0}}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "starting": {"v_peak": math.nan}}),
        # a NaN occlusion window would leave every frame unoccluded
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "occlusion_end_offset": math.nan}),
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "occlusion_durations": [math.nan]}),
        # an infinite sigma would draw NaN detections
        ("compare", {"n_starting": 1, "n_turning": 0,
                     "noise": {"sigma_detection": math.inf}}),
        # a NaN delay makes the device stream NaN, so model C equals model P
        ("compare", {"n_starting": 1, "n_turning": 1, "occlusion_durations": [2.0],
                     "noise": {"device_delay": math.nan}}),
    ])
    def test_rejected_scene_value_is_2(self, tmp_path, capsys, command, scenes):
        cfg = write_config(tmp_path / "c.json", scenes=scenes)
        assert run(["--config", cfg, command, "--out", tmp_path / "x"]) == 2
        section = ("scenes.noise" if "noise" in scenes else
                   "scenes.turning" if "turning" in scenes else "scenes.starting")
        assert f"config error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,scenes,prefix", [
        (command, {"starting": {"duration": -1}}, "scenes.starting: ")
        for command in ("simulate", "track", "evaluate", "train-velocity")
    ] + [
        # a window longer than either scene kind
        ("train-velocity", {"occlusion_durations": [20.0]}, "scenes.starting: "),
        ("simulate", {"occlusion_durations": [2.0, 2.0000001]},
         "scenes.occlusion_durations: "),
        ("simulate", {"noise": {"dropout_prob": 1.0}}, "scenes.noise.dropout_prob: "),
    ])
    def test_every_command_checks_scenes(self, tmp_path, capsys, command, scenes,
                                         prefix):
        # the scene directory and track file are never read: the config
        # is checked first
        args = {"simulate": [], "train-velocity": [],
                "track": [tmp_path / "scene", "--model", "P"],
                "evaluate": [tmp_path / "scene", "--tracks", tmp_path / "t.csv"]}
        cfg = write_config(tmp_path / "c.json", scenes=scenes)
        out = tmp_path / "x"
        assert run(["--config", cfg, command, *args[command], "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {prefix}")
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

    @pytest.mark.parametrize("scenes", [
        {"n_starting": 0, "n_turning": 1, "starting": {"duration": -1}},
        # fits the 14 s starting scenes, not the 12 s turning ones
        {"n_starting": 1, "n_turning": 0, "occlusion_durations": [10.0]},
    ])
    def test_scene_kind_with_no_scenes_is_not_checked(self, tmp_path, scenes):
        cfg = write_config(tmp_path / "c.json", scenes=scenes)
        out = tmp_path / "x"
        assert run(["--config", cfg, "compare", "--out", out]) == 0
        assert (out / "summary.csv").is_file()

    @pytest.mark.parametrize("command,overrides,key", [
        ("compare", {"seed": "abc"}, "seed"),
        ("compare", {"filter": {"device_gate": "x"}}, "filter.device_gate"),
        ("compare", {"scenes": {"n_starting": "a"}}, "scenes.n_starting"),
        ("compare", {"scenes": {"occlusion_durations": ["x"]}},
         "scenes.occlusion_durations"),
        ("train-velocity", {"velocity": {"n_trees": 0}}, "n_trees"),
        ("train-velocity", {"velocity": {"holdout_fraction": 2}}, "holdout_fraction"),
        # 0.9 of 3 scenes rounds to all 3
        ("train-velocity", {"velocity": {"training_scenes": 3,
                                         "holdout_fraction": 0.9}},
         "holdout_fraction"),
        # a gate no distance can meet would make model C the position-only one
        ("compare", {"filter": {"device_gate": 0}}, "filter.device_gate"),
        ("compare", {"filter": {"device_gate": -1.0}}, "filter.device_gate"),
        # repeats would repeat per_scene.csv rows and summary columns
        ("compare", {"models": ["P", "C", "P"]}, "models"),
        ("compare", {"scenes": {"occlusion_durations": [2.0, 1.0, 2]}},
         "scenes.occlusion_durations"),
        # distinct durations that print as the same condition label
        ("compare", {"scenes": {"occlusion_durations": [2.0, 2.0000001]}},
         "scenes.occlusion_durations"),
        ("compare", {"scenes": {"n_starting": -1, "n_turning": 0}},
         "scenes.n_starting"),
        ("compare", {"scenes": {"n_starting": 1, "n_turning": -2}},
         "scenes.n_turning"),
        # no detection, so no track: no scene could be scored
        ("compare", {"scenes": {"noise": {"dropout_prob": 1.0}}},
         "scenes.noise.dropout_prob"),
        # numpy's default_rng takes no negative seed
        ("compare", {"seed": -3}, "seed"),
        ("simulate", {"seed": -3}, "seed"),
        ("train-velocity", {"seed": -3}, "seed"),
        # no model: tables with no result column and no row
        ("compare", {"models": []}, "models"),
        # bin indices are int16
        ("train-velocity", {"velocity": {"n_bins": 40000, "n_trees": 1,
                                         "training_scenes": 6}}, "n_bins"),
        ("train-velocity", {"velocity": {"holdout_fraction": -0.5, "n_trees": 1,
                                         "training_scenes": 6}}, "holdout_fraction"),
        # infinite noise would make every track NaN
        ("compare", {"filter": {"measurement": {"sigma_x": math.inf}},
                     "scenes": {"n_starting": 1, "n_turning": 0}}, "sigma_x"),
        ("compare", {"filter": {"process": {"sigma_w_v_dot": math.inf}},
                     "scenes": {"n_starting": 1, "n_turning": 0}}, "sigma_w_v_dot"),
        ("train-velocity", {"velocity": {"holdout_fraction": math.nan, "n_trees": 1,
                                         "training_scenes": 6}}, "holdout_fraction"),
    ])
    def test_bad_config_value_is_2_before_any_work(self, tmp_path, capsys,
                                                   command, overrides, key):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "x"
        assert run(["--config", cfg, command, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "simulate", "train-velocity"])
    def test_negative_seed_from_env_is_2_before_any_work(self, tmp_path, capsys,
                                                         monkeypatch, command):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        out = tmp_path / "x"
        assert run(["--config", write_config(tmp_path / "c.json"), command,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "track", "evaluate",
                                         "compare", "train-velocity"])
    def test_unwritable_output_is_2(self, scene_batch, tmp_path, capsys, command):
        # a regular file where the output directory should be: chmod would
        # not stop a root user from writing
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        cfg = write_config(tmp_path / "c.json",
                           scenes={"n_starting": 1, "n_turning": 0,
                                   "occlusion_durations": []},
                           velocity={"n_trees": 2, "training_scenes": 4})
        scene_dir = os.path.join(scene_batch[1], "turning_0000")
        tracks = tmp_path / "tracks"
        assert run(["--config", cfg, "track", scene_dir, "--model", "P",
                    "--out", tracks]) == 0
        argv = {"simulate": ["simulate", "--out", blocker],
                "track": ["track", scene_dir, "--model", "P", "--out", blocker],
                "evaluate": ["evaluate", scene_dir, "--tracks",
                             tracks / "tracks_P.csv", "--out", blocker / "r.json"],
                "compare": ["compare", "--out", blocker],
                "train-velocity": ["train-velocity", "--out", blocker]}[command]
        assert run(["--config", cfg, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {blocker}{os.sep}")
        assert blocker.read_text() == "kept\n"

    def test_failed_write_leaves_no_temporary_file(self, scene_batch, tmp_path,
                                                   capsys):
        # the report is written, but cannot replace a directory
        cfg, scenes = scene_batch
        scene_dir = os.path.join(scenes, "turning_0000")
        tracks = tmp_path / "tracks"
        assert run(["--config", cfg, "track", scene_dir, "--model", "P",
                    "--out", tracks]) == 0
        adir = tmp_path / "adir"
        adir.mkdir()
        assert run(["--config", cfg, "evaluate", scene_dir, "--tracks",
                    tracks / "tracks_P.csv", "--out", adir]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {adir}")
        assert sorted(os.listdir(tmp_path)) == ["adir", "tracks"]

    def test_undefined_metric_is_1_naming_scene_and_model(self, tmp_path, capsys):
        # three frames: no track reaches the four frames it needs to be valid
        cfg = write_config(tmp_path / "c.json", scenes={
            "n_starting": 1, "n_turning": 0, "occlusion_durations": [],
            "starting": {"duration": 0.04}})
        assert run(["--config", cfg, "compare", "--out", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene starting_0000_none, model P: MOTP undefined")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_compare_leaves_no_output_directory(self, tmp_path, capsys,
                                                       jobs):
        # two chunks, so that --jobs 2 starts two workers
        cfg = write_config(tmp_path / "c.json", scenes={
            "n_starting": cli.COMPARE_CHUNK_SCENES + 1, "n_turning": 0,
            "occlusion_durations": [],
            "starting": {"duration": 0.04}})
        out = tmp_path / "x"
        assert run(["--config", cfg, "compare", "--out", out,
                    "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene starting_0000_none, model P: ")
        assert not out.exists()

    def test_dead_compare_worker_is_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_compare_chunk", _dying_compare_chunk)
        # two chunks, so that --jobs 2 starts two workers
        cfg = write_config(tmp_path / "c.json", scenes={
            "n_starting": cli.COMPARE_CHUNK_SCENES + 1, "n_turning": 0,
            "occlusion_durations": []})
        out = tmp_path / "x"
        assert run(["--config", cfg, "compare", "--out", out, "--jobs", 2]) == 1
        assert capsys.readouterr().err.startswith("error: a compare worker died")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_2_before_any_work(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "x"
        assert run(["--config", cfg, "compare", "--out", out, "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("config error: --jobs must be at least 1")
        assert not out.exists()

    def test_numerical_error_is_4(self, monkeypatch, tmp_path, capsys):
        def boom(args):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "cmd_simulate", boom)
        assert cli.main(["simulate"]) == 4
        assert "numerical failure" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, cooptrack.cli; sys.exit('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_multiprocessing_unloaded():
    # the forest pair forks only when trained; the import must not pay for it
    code = "import sys, cooptrack.cli; sys.exit('multiprocessing' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
