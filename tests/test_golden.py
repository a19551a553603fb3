"""Golden outputs: every file `compare`, `simulate`, `track` and
`train-velocity` write for a small fixed configuration, and the device
streams `VelocityModel.run` makes from two seeded rides, pinned by sha256.

A change that moves any byte of these files (a digit, the comment line, a
line ending) fails here; if the change is intended, the new digests go in
together with the diff that explains them.  manifest.json is left out
because it records the output path.

The seed-12 batch holds a chaotic lane: in starting_0000_none, model P's
yaw rate is unobservable and wanders far, so a one-ulp change anywhere in
its filter arithmetic (say x * x in place of x ** 2) moves its MOTP in the
fourth decimal.
"""

import hashlib
import json

import numpy as np

from cooptrack import cli, scene_sim
from cooptrack.config import load_config

CONFIG = {"scenes": {"n_starting": 1, "n_turning": 1,
                     "occlusion_durations": [2.0]}}

COMPARE = {
    "per_scene.csv": "bf17ee1a54316276737ff713159239f5635a0d8c080bfc60c55d8e8abd7a7bb9",
    "summary.csv": "4968e6ecd5f7a75fa98d86fb06b9445d33aef91554fbfd1a973edefdde4c2e2e",
}

CHAOTIC_CONFIG = dict(CONFIG, seed=12)

CHAOTIC_COMPARE = {
    "per_scene.csv": "66bc51c5251ca0e260a7f1d21b43e5f460c99f0e0f4cdd2cfae552509ff0f29d",
    "summary.csv": "c4f5f861e2f8e5baecc3fb80d02beeabdf3b2cd00c0ca966e0c44046ec105a99",
}

# four occlusion durations: lanes start as copies of lanes that started as
# copies themselves (the 2 s variant of the 1 s one, and so on)
MULTI_DURATION_CONFIG = {"scenes": {"n_starting": 1, "n_turning": 1,
                                    "occlusion_durations": [1.0, 2.0, 3.0, 4.0]}}

MULTI_DURATION_COMPARE = {
    "per_scene.csv": "b5956b64367aed6b7f97f0ce772ead9a93ad5cc4bc1d0644523788ae05764c3a",
    "summary.csv": "3420e8079f1cd7b05e3e8b77c9cfab6462a2d75f7f041e272e43ac21adbbd0c5",
}

TURNING_SCENE = {
    "ground_truth.csv": "d4ad994773eec74a5d3acd51f9f4d0e2830aebc7e74b1a5288b354b41ea1ac98",
    "detections.csv": "181c17f12383683aa079460ef582b79f0d622f4433324e84dfb6b27a0a3fc805",
    "device.csv": "9f0f04362ec9c1184d70188157be1d038eb4f622d11b4b9a664b420375e1a61d",
    "gnss.csv": "0fd29653009b46eca27290837d4584a74a0e98a6de3aefb3baf604560830f9d9",
    "scene.json": "95add2f9d7ec575a8f6e4cfe65710b31a77cd9b1d8ac388033b560970df20c75",
    "tracks_C.csv": "334a96943ffa5e15a24207e2f4c4bb2da809883ade3268b33dae072ac57397ee",
    "tracks_P.csv": "9e7a36aa753b4760097e15f1bc51215eebf48c4c45bb8f5ca52e22e4155add93",
    "assignments_C.csv": "338bce6d235e78ff65b0d6ed2b25586bf59c1fa917559f12e5392de950c38746",
    "assignments_P.csv": "60079bad9b3891693fbded463c233431aec083e7c2b2fd37c73730afc7c7d8a3",
}

VELOCITY_CONFIG = {"velocity": {"training_scenes": 8, "n_trees": 6}}

VELOCITY_FILES = {
    "forest_with_gnss.json": "78f628084580d8e852c841640ad93ded597a0e6ed241ff9c3a190757c41652b0",
    "forest_no_gnss.json": "76a6170b7f0ac30f57cca817a78794b8ad5e22904fdaf937d68712b3ef00d9ee",
    "rmse_report.json": "31371ac6a52d9a02f510c9e743074974a71e583bbea54055fd327b58fa855f69",
}

# trees deeper than the default 6 levels: pins level-by-level growth and
# the depth-first node numbering of the forest file
DEEP_VELOCITY_CONFIG = {"velocity": {"training_scenes": 8, "n_trees": 4,
                                     "max_depth": 10, "n_bins": 16}}

DEEP_VELOCITY_FILES = {
    "forest_with_gnss.json": "a0acc6538a49148c00d04498a486e998f9a23f1522746b01bef86dc9e2fabdda",
    "forest_no_gnss.json": "96ca01531ff33e5f78153cd33d98a20e2d221adf0a06f1cbccf66f4b8a512a21",
    "rmse_report.json": "46cedd403f05ce83babc8bc449c524d4a21e4af6adfa6f6da10046924abc5b54",
}

# VelocityModel.run on a starting ride with GNSS and a turning ride without
VELOCITY_RUNS = {
    "starting_gnss": "5ce901770d8cc98e8f3bc3aefb9b68c6bd21b56d183b5960497aab7ef83889fd",
    "turning_no_gnss": "25e8c4340915089524cbcc309d7f842ff5131d3d6704cd7c973dc8871390f0ea",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_default_config_hash():
    assert load_config().config_hash() == "a227b6db40b4"


def _compare_digests(tmp_path, name, config):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    results = tmp_path / name
    assert cli.main(["--config", str(cfg), "compare", "--out", str(results)]) == 0
    return cfg, _digests(results, COMPARE)


def test_output_files_match_pinned_digests(tmp_path):
    cfg, compare = _compare_digests(tmp_path, "default", CONFIG)
    scenes = tmp_path / "scenes"
    assert cli.main(["--config", str(cfg), "simulate", "--out", str(scenes)]) == 0
    scene = scenes / "turning_0000"
    for model in ("P", "C"):
        assert cli.main(["--config", str(cfg), "track", str(scene),
                         "--model", model]) == 0
    assert compare == COMPARE
    assert _digests(scene, TURNING_SCENE) == TURNING_SCENE
    assert _compare_digests(tmp_path, "chaotic", CHAOTIC_CONFIG)[1] == CHAOTIC_COMPARE


def test_multi_duration_compare_matches_pinned_digests(tmp_path):
    digests = _compare_digests(tmp_path, "multi", MULTI_DURATION_CONFIG)[1]
    assert digests == MULTI_DURATION_COMPARE


def _ride(spec, with_gnss):
    """IMU and (optionally) GNSS streams of a simulated ride."""
    gt = scene_sim.generate_ground_truth(spec)
    rng = np.random.default_rng(spec.seed + 1)
    imu = scene_sim.synthesize_imu(gt, rng)
    return imu, scene_sim.simulate_gnss(gt, spec, rng) if with_gnss else None


def test_velocity_outputs_match_pinned_digests(tmp_path):
    cfg = tmp_path / "velocity.json"
    cfg.write_text(json.dumps(VELOCITY_CONFIG))
    out = tmp_path / "model"
    assert cli.main(["--config", str(cfg), "train-velocity", "--out", str(out)]) == 0
    assert _digests(out, VELOCITY_FILES) == VELOCITY_FILES
    model = cli.load_velocity_model(str(out))
    rides = {
        "starting_gnss": _ride(scene_sim.SceneSpec(seed=5, v_peak=5.0), True),
        "turning_no_gnss": _ride(
            scene_sim.SceneSpec.turning_defaults(seed=6), False),
    }
    runs = {name: hashlib.sha256(model.run(*ride).tobytes()).hexdigest()
            for name, ride in rides.items()}
    assert runs == VELOCITY_RUNS


def test_deep_velocity_forests_match_pinned_digests(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(DEEP_VELOCITY_CONFIG))
    out = tmp_path / "model"
    assert cli.main(["--config", str(cfg), "train-velocity", "--out", str(out)]) == 0
    assert _digests(out, DEEP_VELOCITY_FILES) == DEEP_VELOCITY_FILES
