"""Synthetic scene generator: ground-truth cyclist trajectories, sensor
streams with natural dropouts and scripted occlusion windows, plus the
on-disk scene format shared with real-data ingestion.

A scene directory holds four CSV files (ground_truth.csv, detections.csv,
device.csv, gnss.csv) and a scene.json with the generating parameters.
Occlusion windows remove camera detections only; device and GNSS streams are
unaffected.
"""

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import fileio
from .errors import DataError

FRAME_RATE = 50.0            # Hz, camera/device grid
GNSS_RATE = 1.0              # Hz
RK4_STEP = 1e-3              # s, ground-truth integration step

KIND_STARTING = "starting"
KIND_TURNING = "turning_right"


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
    scene_id: str
    spec: SceneSpec
    ground_truth: np.ndarray      # (N, 6): t, x, y, gamma, gamma_dot, v
    detections: np.ndarray        # (M, 3): t, x, y (missing frames omitted)
    device: np.ndarray            # (K, 4): t, gamma_dot, v, sigma_v
    gnss: np.ndarray              # (L, 4): t, v, x, y
    occlusion_mask: np.ndarray    # (N,) bool

    def occlusion_windows(self):
        t_end = float(self.ground_truth[-1, 0])
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


def generate_ground_truth(spec: SceneSpec) -> np.ndarray:
    """Integrate the maneuver with RK4 at 1 ms and decimate to the frame rate.

    Returns (N, 6) columns t, x, y, gamma, gamma_dot, v.
    """
    v_of_t = _speed_profile(spec)
    gdot_of_t = _yaw_rate_profile(spec)
    h = RK4_STEP
    n_fine = int(round(spec.duration / h))
    t = np.arange(n_fine + 1) * h
    t_mid = t[:-1] + 0.5 * h

    gd0, gd_mid, gd1 = gdot_of_t(t[:-1]), gdot_of_t(t_mid), gdot_of_t(t[1:])
    v0, v_mid, v1 = v_of_t(t[:-1]), v_of_t(t_mid), v_of_t(t[1:])

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

    stride = int(round(1.0 / (FRAME_RATE * h)))
    idx = np.arange(0, n_fine + 1, stride)
    return np.column_stack([t[idx], x[idx], y[idx], gamma[idx],
                            gdot_of_t(t[idx]), v_of_t(t[idx])])


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
    if not durations:
        return []
    longest = durations[-1]
    return [(end_offset + longest - d, d) for d in durations]


def simulate_sensors(trajectory, spec: SceneSpec, scene_id="scene",
                     velocity_model=None) -> Scene:
    """Derive all sensor streams from a ground-truth trajectory.

    Randomness is drawn from spec.seed in a fixed order: detection noise,
    dropout draws, device noise, GNSS noise, then (IMU mode only) the IMU
    synthesis.  With device_from_imu set, the device stream is produced by
    running `velocity_model` (an object with a `run(imu, gnss)` method) on a
    synthesized IMU stream instead of adding noise to the ground truth.
    """
    gt = np.asarray(trajectory, dtype=float)
    rng = np.random.default_rng(spec.seed)
    t = gt[:, 0]
    n = len(t)

    det_noise = rng.normal(0.0, spec.sigma_detection, size=(n, 2))
    dropout = rng.random(n) < spec.dropout_prob
    dev_noise_gd = rng.normal(0.0, spec.sigma_device_gamma_dot, size=n)
    dev_noise_v = rng.normal(0.0, spec.sigma_device_v, size=n)
    dt = t[1] - t[0] if n > 1 else 1.0
    bias_gd = _ou_process(rng, n, dt, spec.device_bias_gamma_dot,
                          spec.device_bias_tau)
    bias_v = _ou_process(rng, n, dt, spec.device_bias_v, spec.device_bias_tau)

    windows = [(t[-1] - off - dur, t[-1] - off) for off, dur in spec.occlusions]
    occl = occlusion_mask_for(t, windows)
    keep = ~(occl | dropout)
    detections = np.column_stack([t[keep], gt[keep, 1] + det_noise[keep, 0],
                                  gt[keep, 2] + det_noise[keep, 1]])

    gnss = simulate_gnss(gt, spec, rng)

    if spec.device_from_imu:
        if velocity_model is None:
            raise ValueError("device_from_imu requires a velocity model")
        imu = synthesize_imu(gt, rng)
        device = velocity_model.run(imu, gnss)
    else:
        t_delayed = np.maximum(t - spec.device_delay, t[0])
        device = np.column_stack([
            t,
            np.interp(t_delayed, t, gt[:, 4]) + bias_gd + dev_noise_gd,
            np.interp(t_delayed, t, gt[:, 5]) + bias_v + dev_noise_v,
            np.full(n, spec.sigma_device_v),
        ])

    return Scene(scene_id=scene_id, spec=spec, ground_truth=gt,
                 detections=detections, device=device, gnss=gnss,
                 occlusion_mask=occl)


def simulate_gnss(trajectory, spec: SceneSpec, rng) -> np.ndarray:
    """GNSS fixes (t, v, x, y) at GNSS_RATE from t = 0: the ground truth
    interpolated to the fix times plus noise, drawn from rng in the order
    speed, x, y."""
    gt = np.asarray(trajectory, dtype=float)
    t = gt[:, 0]
    t_gnss = np.arange(0.0, t[-1] + 1e-9, 1.0 / GNSS_RATE)
    return np.column_stack([
        t_gnss,
        np.interp(t_gnss, t, gt[:, 5]) + rng.normal(0.0, spec.sigma_gnss_v, len(t_gnss)),
        np.interp(t_gnss, t, gt[:, 1]) + rng.normal(0.0, spec.sigma_gnss_pos, len(t_gnss)),
        np.interp(t_gnss, t, gt[:, 2]) + rng.normal(0.0, spec.sigma_gnss_pos, len(t_gnss)),
    ])


def generate_scene(spec: SceneSpec, scene_id="scene", velocity_model=None) -> Scene:
    return simulate_sensors(generate_ground_truth(spec), spec,
                            scene_id=scene_id, velocity_model=velocity_model)


def _ou_process(rng, n, dt, sigma, tau):
    """Ornstein-Uhlenbeck samples started from the stationary distribution."""
    out = np.empty(n)
    if sigma <= 0.0:
        out.fill(0.0)
        # keep the draw count independent of sigma for seed stability
        rng.normal(size=n)
        return out
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
    t, gdot, v = gt[:, 0], gt[:, 4], gt[:, 5]
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

_CSV_COLUMNS = {
    "ground_truth.csv": ("t", "x", "y", "gamma", "gamma_dot", "v"),
    "detections.csv": ("t", "x", "y"),
    "device.csv": ("t", "gamma_dot", "v", "sigma_v"),
    "gnss.csv": ("t", "v", "x", "y"),
}


def write_scene(scene: Scene, directory):
    arrays = {
        "ground_truth.csv": scene.ground_truth,
        "detections.csv": scene.detections,
        "device.csv": scene.device,
        "gnss.csv": scene.gnss,
    }
    for name, arr in arrays.items():
        fileio.write_csv(os.path.join(directory, name), _CSV_COLUMNS[name], arr)
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
        windows = [(float(start), float(end))
                   for start, end in meta.get("occlusion_windows", [])]
    except (TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad value ({exc})") from exc
    # device and GNSS streams are optional: a position-only scene is valid
    arrays = {}
    for name, cols in _CSV_COLUMNS.items():
        path = os.path.join(directory, name)
        if name in ("device.csv", "gnss.csv") and not os.path.exists(path):
            arrays[name] = np.empty((0, len(cols)))
        else:
            rows = fileio.read_csv(path, cols)
            arrays[name] = np.array(rows, dtype=float).reshape(-1, len(cols))
    sigma_v = arrays["device.csv"][:, 3]
    if not np.all(sigma_v > 0):
        raise DataError(f"{os.path.join(directory, 'device.csv')}: sigma_v must "
                        f"be strictly positive (data row {np.argmin(sigma_v > 0) + 1})")
    gt = arrays["ground_truth.csv"]
    if gt.size == 0:
        raise DataError(f"{directory}: empty ground truth")
    # binning assumes the frame grid t0 + i * (t1 - t0), to the CSV's 1 us
    steps = np.diff(np.rint(gt[:, 0] * 1e6))
    off = np.flatnonzero((steps <= 0) | (np.abs(steps - steps[:1]) > 1))
    if len(off):
        raise DataError(f"{directory}: ground_truth.csv data row {off[0] + 2} is off-grid")
    return Scene(scene_id=meta.get("scene_id", os.path.basename(str(directory))),
                 spec=spec, ground_truth=gt,
                 detections=arrays["detections.csv"],
                 device=arrays["device.csv"], gnss=arrays["gnss.csv"],
                 occlusion_mask=occlusion_mask_for(gt[:, 0], windows))
