"""Synthetic scene generator: ground-truth cyclist trajectories, sensor
streams with natural dropouts and scripted occlusion windows, plus the
on-disk scene format shared with real-data ingestion.

A scene directory holds one CSV file per stream of STREAMS (ground_truth.csv,
detections.csv, device.csv, gnss.csv) and a scene.json with the generating
parameters.  Occlusion windows remove camera detections only; device and GNSS
streams are unaffected.
"""

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import ekf
from . import fileio
from .errors import DataError

FRAME_RATE = 50.0            # Hz, the grid of the frames and the device and IMU samples
GNSS_RATE = 1.0              # Hz
RK4_STEP = 1e-3              # s, ground-truth integration step

KIND_STARTING = "starting"
KIND_TURNING = "turning_right"


# The scene streams: each one's Scene field, which <field>.csv holds, and its column
# indices by name, t first (GROUND_TRUTH.v: the ground truth's speed).  The ground
# truth's columns after t are the EKF state's.  No other module numbers them.
STREAMS = {field: namedtuple(field, columns)(*range(len(columns))) for field, columns in (
    ("ground_truth", ("t", *ekf.STATE_NAMES)),
    ("detections", ("t", "x", "y")),
    ("device", ("t", "gamma_dot", "v", "sigma_v")),
    ("gnss", ("t", "v", "x", "y")))}
GROUND_TRUTH, DETECTIONS, DEVICE, GNSS = STREAMS.values()


def stream_rows(stream, **columns):
    """A stream's (n, len(stream)) rows from its columns given by name."""
    return np.column_stack([columns[name] for name in stream._fields])


@dataclass
class SceneSpec:
    kind: str = KIND_STARTING
    duration: float = 14.0          # s; turning default is 12.0
    seed: int = 0
    # maneuver
    v_peak: float = 3.0             # m/s (starting: ramp target; turning: constant)
    ramp_rate: float = 1.5          # 1/s logistic steepness (starting)
    ramp_center_time: float = 10.0  # s (starting)
    turn_radius: float = 5.0        # m (turning)
    turn_center_time: float = 8.0   # s (turning)
    # sensor noise
    sigma_detection: float = 0.15   # m per axis
    sigma_device_gamma_dot: float = 0.3   # rad/s
    sigma_device_v: float = 0.3     # m/s
    device_delay: float = 0.3       # s
    # slowly-varying device error (gyro drift, body sway): OU process std
    # and correlation time; unlike white noise it does not average out
    device_bias_gamma_dot: float = 0.35   # rad/s
    device_bias_v: float = 0.35     # m/s
    device_bias_tau: float = 4.0    # s
    dropout_prob: float = 0.05      # per-frame natural detection miss
    sigma_gnss_v: float = 0.3       # m/s
    sigma_gnss_pos: float = 3.0     # m per axis
    # occlusions: (gap between window end and scene end [s], duration [s])
    occlusions: tuple = ()
    device_from_imu: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_STARTING, KIND_TURNING):
            raise ValueError(f"unknown scene kind: {self.kind}")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        for name in ("v_peak", "ramp_rate", "ramp_center_time", "turn_radius",
                     "turn_center_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # the turn's peak yaw rate is v_peak / turn_radius, and its length
        # pi turn_radius / v_peak
        if self.kind == KIND_TURNING and not (self.turn_radius > 0 and self.v_peak > 0):
            raise ValueError("a turning scene needs positive turn_radius and v_peak")
        for name in ("sigma_detection", "sigma_device_gamma_dot", "sigma_gnss_v",
                     "sigma_gnss_pos", "device_bias_gamma_dot", "device_bias_v",
                     "device_delay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        # sigma_device_v is the device stream's sigma_v, which the filter
        # needs strictly positive; tau divides the OU decay exponent
        for name in ("sigma_device_v", "device_bias_tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.dropout_prob <= 1:
            raise ValueError("dropout_prob must be in [0, 1]")
        self.occlusions = tuple((float(o), float(d)) for o, d in self.occlusions)
        for end_offset, dur in self.occlusions:
            # written so that a NaN fails it
            if not (dur > 0 and end_offset >= 0 and end_offset + dur <= self.duration):
                raise ValueError(f"occlusion window ({end_offset}, {dur}) "
                                 f"outside the scene")

    @classmethod
    def turning_defaults(cls, **kwargs):
        kwargs.setdefault("kind", KIND_TURNING)
        kwargs.setdefault("duration", 12.0)
        kwargs.setdefault("v_peak", 4.0)
        return cls(**kwargs)


@dataclass
class Scene:
    """A scene's spec and its streams, each in its STREAMS columns."""

    scene_id: str
    spec: SceneSpec
    ground_truth: np.ndarray      # one row per frame
    detections: np.ndarray        # missing frames omitted
    device: np.ndarray
    gnss: np.ndarray

    def occlusion_windows(self):
        """(start, end) times of the spec's occlusion windows."""
        t_end = float(self.ground_truth[-1, GROUND_TRUTH.t])
        return [(t_end - off - dur, t_end - off) for off, dur in self.spec.occlusions]


# -- speed / yaw-rate profiles ---------------------------------------------

def _speed_profile(spec: SceneSpec):
    if spec.kind == KIND_STARTING:
        def v_of_t(t):
            return spec.v_peak / (1.0 + np.exp(-spec.ramp_rate * (t - spec.ramp_center_time)))
        return v_of_t
    return lambda t: spec.v_peak * np.ones_like(np.asarray(t, dtype=float))


def _yaw_rate_profile(spec: SceneSpec):
    if spec.kind == KIND_STARTING:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    # smooth raised-cosine pulse integrating to -pi/2 (right turn);
    # peak rate v/R fixes the pulse length at pi*R/v
    peak = spec.v_peak / spec.turn_radius
    length = math.pi / peak
    t_on = spec.turn_center_time - 0.5 * length

    def gdot_of_t(t):
        t = np.asarray(t, dtype=float)
        u = (t - t_on) / length
        pulse = -peak * 0.5 * (1.0 - np.cos(2.0 * math.pi * u))
        return np.where((u >= 0.0) & (u <= 1.0), pulse, 0.0)

    return gdot_of_t


# RK4 steps per frame
_FRAME_STRIDE = int(round(1.0 / (FRAME_RATE * RK4_STEP)))


def frame_count(spec: SceneSpec) -> int:
    """Rows of generate_ground_truth(spec): the frames from t = 0 to the
    ride's last RK4 step."""
    return int(round(spec.duration / RK4_STEP)) // _FRAME_STRIDE + 1


def generate_ground_truth(spec: SceneSpec) -> np.ndarray:
    """Integrate the maneuver with RK4 at 1 ms and decimate to the frame rate.

    Returns (frame_count(spec), len(GROUND_TRUTH)) rows.
    """
    v_of_t = _speed_profile(spec)
    gdot_of_t = _yaw_rate_profile(spec)
    h = RK4_STEP
    n_fine = int(round(spec.duration / h))
    t = np.arange(n_fine + 1) * h
    t_mid = t[:-1] + 0.5 * h

    gd, gd_mid = gdot_of_t(t), gdot_of_t(t_mid)
    v, v_mid = v_of_t(t), v_of_t(t_mid)
    gd0, gd1, v0, v1 = gd[:-1], gd[1:], v[:-1], v[1:]

    gamma = np.zeros(n_fine + 1)
    gamma[1:] = np.cumsum(h / 6.0 * (gd0 + 4.0 * gd_mid + gd1))

    # RK4 stages for x, y (the yaw dynamics do not depend on position)
    g1 = gamma[:-1]
    g2 = g1 + 0.5 * h * gd0
    g3 = g1 + 0.5 * h * gd_mid
    g4 = g1 + h * gd_mid
    x = np.zeros(n_fine + 1)
    y = np.zeros(n_fine + 1)
    x[1:] = np.cumsum(h / 6.0 * (v0 * np.cos(g1) + 2 * v_mid * np.cos(g2)
                                 + 2 * v_mid * np.cos(g3) + v1 * np.cos(g4)))
    y[1:] = np.cumsum(h / 6.0 * (v0 * np.sin(g1) + 2 * v_mid * np.sin(g2)
                                 + 2 * v_mid * np.sin(g3) + v1 * np.sin(g4)))

    idx = np.arange(frame_count(spec)) * _FRAME_STRIDE
    return stream_rows(GROUND_TRUTH, t=t[idx], x=x[idx], y=y[idx], gamma=gamma[idx],
                       gamma_dot=gd[idx], v=v[idx])


def occlusion_mask_for(times, windows) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    mask = np.zeros(times.shape, dtype=bool)
    for t_start, t_end in windows:
        mask |= (times >= t_start - 1e-9) & (times < t_end - 1e-9)
    return mask


def aligned_occlusions(durations, end_offset):
    """Occlusion tuples for several durations sharing one start frame.

    All windows start where the longest one starts; shorter windows end
    earlier, the longest ends end_offset seconds before the scene end.
    """
    durations = sorted(float(d) for d in durations)
    return [(end_offset + durations[-1] - d, d) for d in durations]


def simulate_sensors(trajectory, spec: SceneSpec, scene_id="scene",
                     velocity_model=None) -> Scene:
    """Derive all sensor streams from a ground-truth trajectory.

    Randomness is drawn from spec.seed in a fixed order: detection noise,
    dropout draws, device noise, GNSS noise, then (IMU mode only) the IMU
    synthesis.  With device_from_imu set, the device stream is produced by
    running `velocity_model` (an object with a `run(imu, gnss)` method) on a
    synthesized IMU stream instead of adding noise to the ground truth.
    The occlusion windows then drop the detections inside them
    (with_occlusions).
    """
    gt = np.asarray(trajectory, dtype=float)
    rng = np.random.default_rng(spec.seed)
    t = gt[:, GROUND_TRUTH.t]
    n = len(t)

    det_noise = rng.normal(0.0, spec.sigma_detection, size=(n, 2))
    dropout = rng.random(n) < spec.dropout_prob
    dev_noise_gd = rng.normal(0.0, spec.sigma_device_gamma_dot, size=n)
    dev_noise_v = rng.normal(0.0, spec.sigma_device_v, size=n)
    dt = t[1] - t[0] if n > 1 else 1.0
    bias_gd = _ou_process(rng, n, dt, spec.device_bias_gamma_dot,
                          spec.device_bias_tau)
    bias_v = _ou_process(rng, n, dt, spec.device_bias_v, spec.device_bias_tau)

    keep = ~dropout
    detections = stream_rows(DETECTIONS, t=t[keep],
                             x=gt[keep, GROUND_TRUTH.x] + det_noise[keep, 0],
                             y=gt[keep, GROUND_TRUTH.y] + det_noise[keep, 1])

    gnss = simulate_gnss(gt, spec, rng)

    if spec.device_from_imu:
        if velocity_model is None:
            raise ValueError("device_from_imu requires a velocity model")
        imu = synthesize_imu(gt, rng)
        device = velocity_model.run(imu, gnss)
    else:
        t_delayed = np.maximum(t - spec.device_delay, t[0])
        device = stream_rows(
            DEVICE, t=t,
            gamma_dot=(np.interp(t_delayed, t, gt[:, GROUND_TRUTH.gamma_dot])
                       + bias_gd + dev_noise_gd),
            v=np.interp(t_delayed, t, gt[:, GROUND_TRUTH.v]) + bias_v + dev_noise_v,
            sigma_v=np.full(n, spec.sigma_device_v))

    unoccluded = Scene(scene_id=scene_id, spec=replace(spec, occlusions=()), ground_truth=gt,
                       detections=detections, device=device, gnss=gnss)
    return with_occlusions(unoccluded, spec.occlusions, scene_id=scene_id)


def simulate_gnss(trajectory, spec: SceneSpec, rng) -> np.ndarray:
    """GNSS fixes at GNSS_RATE from t = 0: the ground truth interpolated to
    the fix times plus noise, drawn from rng in the order speed, x, y."""
    gt = np.asarray(trajectory, dtype=float)
    t = gt[:, GROUND_TRUTH.t]
    t_gnss = np.arange(0.0, t[-1] + 1e-9, 1.0 / GNSS_RATE)
    n = len(t_gnss)
    return stream_rows(
        GNSS, t=t_gnss,
        v=np.interp(t_gnss, t, gt[:, GROUND_TRUTH.v]) + rng.normal(0.0, spec.sigma_gnss_v, n),
        x=np.interp(t_gnss, t, gt[:, GROUND_TRUTH.x]) + rng.normal(0.0, spec.sigma_gnss_pos, n),
        y=np.interp(t_gnss, t, gt[:, GROUND_TRUTH.y]) + rng.normal(0.0, spec.sigma_gnss_pos, n))


def generate_scene(spec: SceneSpec, scene_id="scene", velocity_model=None) -> Scene:
    return simulate_sensors(generate_ground_truth(spec), spec,
                            scene_id=scene_id, velocity_model=velocity_model)


def with_occlusions(base: Scene, occlusions, scene_id="scene") -> Scene:
    """base with the occlusion tuples `occlusions` added to its spec: the scene
    generate_scene makes for that spec.  Occlusion draws nothing from the seed, so
    only the detections inside the windows go, and the variant shares base's ground
    truth, device and GNSS arrays (pipeline.track_and_evaluate starts the lanes of
    scenes that share them as copies)."""
    variant = replace(base, scene_id=scene_id, spec=replace(
        base.spec, occlusions=base.spec.occlusions + tuple(occlusions)))
    variant.detections = base.detections[~occlusion_mask_for(
        base.detections[:, DETECTIONS.t], variant.occlusion_windows())]
    return variant


def _ou_process(rng, n, dt, sigma, tau):
    """Ornstein-Uhlenbeck samples started from the stationary distribution;
    n draws from rng whatever sigma, so later streams do not depend on it."""
    out = np.empty(n)
    decay = math.exp(-dt / tau)
    innovation = sigma * math.sqrt(1.0 - decay * decay)
    shocks = rng.normal(size=n)
    out[0] = sigma * shocks[0]
    for k in range(1, n):
        out[k] = decay * out[k - 1] + innovation * shocks[k]
    return out


# -- synthetic IMU -----------------------------------------------------------

def synthesize_imu(trajectory, rng) -> np.ndarray:
    """Pedaling-modulated IMU stream in the local tangent frame.

    Columns: t, acc_x, acc_y, acc_z, gyr_x, gyr_y, gyr_z at the frame rate.
    Cadence scales with speed through a per-ride gear ratio, so amplitude
    features alone cannot resolve speed; that ambiguity is intentional.
    """
    gt = np.asarray(trajectory, dtype=float)
    t, gdot, v = (gt[:, GROUND_TRUTH.t], gt[:, GROUND_TRUTH.gamma_dot],
                  gt[:, GROUND_TRUTH.v])
    dt = 1.0 / FRAME_RATE

    gear = rng.choice([1.0, 1.5, 2.4])
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    cadence = v / (2.2 * gear)                       # pedal revolutions per s
    phase = phase0 + 2.0 * math.pi * np.cumsum(cadence) * dt

    # pedaling intensity follows cadence, so every motion amplitude carries
    # v only through the unknown gear ratio
    accel = np.gradient(v, dt)
    amp_acc = 0.55 * cadence
    amp_vert = 0.45 * cadence
    amp_gyr = 0.12 * cadence

    acc_along = np.abs(accel) + amp_acc * np.sin(phase) + rng.normal(0, 0.15, len(t))
    acc_side = amp_acc * 0.5 * np.cos(phase) + rng.normal(0, 0.15, len(t))
    acc_z = amp_vert * np.sin(2.0 * phase) + rng.normal(0, 0.15, len(t))
    gyr_x = amp_gyr * np.sin(phase + 0.7) + rng.normal(0, 0.03, len(t))
    gyr_y = amp_gyr * np.cos(phase + 0.7) + rng.normal(0, 0.03, len(t))
    gyr_z = gdot + 0.05 * np.sin(phase) + rng.normal(0, 0.05, len(t))

    return np.column_stack([t, acc_along, acc_side, acc_z, gyr_x, gyr_y, gyr_z])


# -- on-disk format ----------------------------------------------------------

def write_scene(scene: Scene, directory):
    for field, stream in STREAMS.items():
        fileio.write_csv(os.path.join(directory, f"{field}.csv"), stream._fields,
                         getattr(scene, field))
    meta = {
        "format": "cooptrack-scene-v1",
        "scene_id": scene.scene_id,
        "seed": scene.spec.seed,
        "spec": asdict(scene.spec),
        "occlusion_windows": scene.occlusion_windows(),
    }
    fileio.write_json(os.path.join(directory, "scene.json"), meta)


def read_scene(directory) -> Scene:
    meta_path = os.path.join(directory, "scene.json")
    try:
        meta = json.loads(fileio.read_text(meta_path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: top level must be an object")
    try:
        spec = SceneSpec(**meta.get("spec", {}))
        # the windows follow from the spec, but a malformed one is still bad
        for start, end in meta.get("occlusion_windows", []):
            float(start), float(end)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad value ({exc})") from exc
    arrays = {}
    for field, stream in STREAMS.items():
        path = os.path.join(directory, f"{field}.csv")
        # device and GNSS streams are optional: a position-only scene is valid
        rows = ([] if field in ("device", "gnss") and not os.path.exists(path)
                else fileio.read_csv(path, stream._fields))
        arrays[field] = np.array(rows, dtype=float).reshape(-1, len(stream))
    sigma_v = arrays["device"][:, DEVICE.sigma_v]
    if not np.all(sigma_v > 0):
        raise DataError(f"{os.path.join(directory, 'device.csv')}: sigma_v must "
                        f"be strictly positive (data row {np.argmin(sigma_v > 0) + 1})")
    gt = arrays["ground_truth"]
    if gt.size == 0:
        raise DataError(f"{directory}: empty ground truth")
    # binning assumes the frame grid t0 + i * (t1 - t0), to the CSV's 1 us
    steps = np.diff(np.rint(gt[:, GROUND_TRUTH.t] * 1e6))
    off = np.flatnonzero((steps <= 0) | (np.abs(steps - steps[:1]) > 1))
    if len(off):
        raise DataError(f"{directory}: ground_truth.csv data row {off[0] + 2} is off-grid")
    return Scene(scene_id=meta.get("scene_id", os.path.basename(str(directory))),
                 spec=spec, **arrays)
