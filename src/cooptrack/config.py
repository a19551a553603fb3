"""Run configuration: JSON key-value file over fixed defaults.

Unknown keys, and values whose JSON type is not their default's, are
rejected anywhere in the tree.  RunConfig checks every value once, as the
config loads, so a value any command rejects is a ConfigError from every
command, before any work.  COOPTRACK_SEED overrides the seed.
"""

import copy
import hashlib
import json
import os
from dataclasses import asdict, replace

from . import association
from . import ekf
from . import forest
from . import metrics
from . import scene_sim
from . import track_manager
from . import velocity
from .errors import ConfigError

SEED_ENV_VAR = "COOPTRACK_SEED"

# the tracking models: position only, and cooperative
MODELS = ("P", "C")


def _fields(obj, names=None):
    """Dataclass defaults as a config section, optionally a subset of them."""
    values = asdict(obj)
    return {name: values[name] for name in (names or values)}


# Parameters are defined once, as the defaults of the dataclass or
# constructor that uses them; only keys with no such home are literal here.
DEFAULTS = {
    "seed": 20240001,
    "output_dir": "out",
    "models": list(MODELS),
    "filter": {
        "process": _fields(ekf.ProcessNoiseParams()),
        "measurement": _fields(ekf.MeasurementNoiseParams()),
        "device_gate": association.DEVICE_GATE,
    },
    "manager": {
        "pixel": _fields(track_manager.ManagerConfig.pixel_defaults()),
        "coop": _fields(track_manager.ManagerConfig.coop_defaults()),
    },
    "metric": _fields(metrics.MetricConfig()),
    "scenes": {
        "n_starting": 5,
        "n_turning": 5,
        "occlusion_durations": [1.0, 2.0],
        "occlusion_end_offset": 3.0,
        "starting": _fields(scene_sim.SceneSpec(), (
            "duration", "v_peak", "ramp_rate", "ramp_center_time")),
        "turning": _fields(scene_sim.SceneSpec.turning_defaults(), (
            "duration", "v_peak", "turn_radius", "turn_center_time")),
        "noise": _fields(scene_sim.SceneSpec(), (
            "sigma_detection", "sigma_device_gamma_dot", "sigma_device_v",
            "device_delay", "device_bias_gamma_dot", "device_bias_v",
            "device_bias_tau", "dropout_prob", "sigma_gnss_v",
            "sigma_gnss_pos")),
    },
    "velocity": {"n_trees": forest.N_TREES, "max_depth": forest.MAX_DEPTH,
                 "n_bins": forest.N_BINS,
                 "training_scenes": velocity.TRAINING_SCENES,
                 "holdout_fraction": velocity.HOLDOUT_FRACTION},
}


def _like(value, default):
    """Whether a JSON value has the type of default; an int may stand for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_like(v, default[0]) for v in value)
    return type(value) is type(default) or (type(default), type(value)) == (float, int)


def _merge(defaults, overrides, path=""):
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {here}")
        if not _like(value, defaults[key]):
            raise ConfigError(f"{here}: expected a value like {json.dumps(defaults[key])}")
        merged[key] = (_merge(defaults[key], value, here)
                       if isinstance(value, dict) else value)
    return merged


class RunConfig:
    """Resolved configuration tree with typed accessors."""

    def __init__(self, raw):
        self.raw = raw
        try:
            self.process = ekf.ProcessNoiseParams(**raw["filter"]["process"])
            self.measurement = ekf.MeasurementNoiseParams(**raw["filter"]["measurement"])
            self.metric = metrics.MetricConfig(**raw["metric"])
            self.manager_pixel = track_manager.ManagerConfig(
                **raw["manager"]["pixel"])
            self.manager_coop = track_manager.ManagerConfig(
                **raw["manager"]["coop"])
            # keyword arguments of velocity.train_velocity_model, beside the seed
            self.training = vel = dict(raw["velocity"])
            vel["n_scenes"] = vel.pop("training_scenes")
            forest.RegressionForest(vel["n_trees"], vel["max_depth"], vel["n_bins"])
            velocity.holdout_count(vel["n_scenes"], vel["holdout_fraction"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        self.device_gate = float(raw["filter"]["device_gate"])
        if not self.device_gate > 0:
            raise ConfigError("filter.device_gate must be positive")
        self.seed = int(raw["seed"])
        if self.seed < 0:
            # numpy's generators take no negative seed
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        self.output_dir = str(raw["output_dir"])
        self.models = list(raw["models"])
        if not self.models:
            raise ConfigError("models: at least one model is needed")
        for model in self.models:
            if model not in MODELS:
                raise ConfigError(f"unknown model: {model}")
        if len(set(self.models)) < len(self.models):
            raise ConfigError("models: a model is repeated")
        scenes = raw["scenes"]
        for short in ("starting", "turning"):
            if scenes[f"n_{short}"] < 0:
                raise ConfigError(f"scenes.n_{short} must not be negative")
        durations = scenes["occlusion_durations"]
        self.occlusions = scene_sim.aligned_occlusions(durations, scenes["occlusion_end_offset"])
        # no occlusion, then each window alone
        self.conditions = [("none", ())]
        self.conditions += [(f"occ{dur:g}s", (window,))
                            for window, dur in zip(self.occlusions, sorted(durations))]
        labels = [label for label, _ in self.conditions]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                # the label keys the rows of per_scene.csv and summary.csv
                raise ConfigError(f"scenes.occlusion_durations: two durations make "
                                  f"the condition {label}")
        # (kind name, count, SceneSpec with every window) per kind with scenes
        section = "scenes.noise"
        try:
            noise = scene_sim.SceneSpec(**scenes["noise"])
            self.scene_templates = []
            for kind, short in ((scene_sim.KIND_STARTING, "starting"),
                                (scene_sim.KIND_TURNING, "turning")):
                section = f"scenes.{short}"
                if scenes[f"n_{short}"]:
                    self.scene_templates.append((short, scenes[f"n_{short}"], replace(
                        noise, kind=kind, occlusions=self.occlusions, **scenes[short])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
        if noise.dropout_prob == 1:
            raise ConfigError("scenes.noise.dropout_prob: 1 drops every detection, "
                              "so no scene could be scored")

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def provenance(self) -> str:
        """`config=<hash> seed=<seed>`, the comment line of result CSVs."""
        return f"config={self.config_hash()} seed={self.seed}"


def load_config(path=None) -> RunConfig:
    """Defaults, optionally overlaid with a JSON file."""
    raw = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        raw = _merge(raw, data)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return RunConfig(raw)
