"""Run configuration: JSON key-value file over fixed defaults.

Unknown keys are rejected anywhere in the tree.  The COOPTRACK_SEED
environment variable overrides the configured seed.
"""

import copy
import hashlib
import json
import os
from dataclasses import asdict

from . import association
from . import ekf
from . import forest
from . import metrics
from . import scene_sim
from . import track_manager
from .errors import ConfigError

SEED_ENV_VAR = "COOPTRACK_SEED"


def _fields(obj, names=None):
    """Dataclass defaults as a config section, optionally a subset of them."""
    values = asdict(obj)
    return {name: values[name] for name in (names or values)}


_MANAGER_KEYS = ("gate_distance", "miss_ratio_max", "update_timeout",
                 "min_valid_age")

# Parameters are defined once, as the defaults of the dataclass or
# constructor that uses them; only keys with no such home are literal here.
DEFAULTS = {
    "seed": 20240001,
    "output_dir": "out",
    "models": ["P", "C"],
    "filter": {
        "process": _fields(ekf.ProcessNoiseParams()),
        "measurement": _fields(ekf.MeasurementNoiseParams()),
        "device_gate": association.DEVICE_GATE,
    },
    "manager": {
        "pixel": _fields(track_manager.ManagerConfig.pixel_defaults(),
                         _MANAGER_KEYS),
        "coop": _fields(track_manager.ManagerConfig.coop_defaults(),
                        _MANAGER_KEYS),
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
                 "training_scenes": 24, "holdout_fraction": 0.25},
}


def _merge(defaults, overrides, path=""):
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            merged[key] = _merge(defaults[key], value, here)
        else:
            merged[key] = value
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
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        self.device_gate = float(raw["filter"]["device_gate"])
        self.seed = int(raw["seed"])
        self.output_dir = str(raw["output_dir"])
        self.models = list(raw["models"])
        for model in self.models:
            if model not in ("P", "C"):
                raise ConfigError(f"unknown model: {model}")
        self.scenes = raw["scenes"]
        self.velocity = raw["velocity"]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def provenance(self) -> str:
        """`config=<hash> seed=<seed>`, the comment line of result CSVs."""
        return f"config={self.config_hash()} seed={self.seed}"


def load_config(path=None, overrides=None) -> RunConfig:
    """Defaults, optionally overlaid with a JSON file and an override dict."""
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
    if overrides:
        raw = _merge(raw, overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return RunConfig(raw)
