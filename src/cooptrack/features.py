"""Signal features for the smart-device velocity pipeline.

Yaw rate is the z gyroscope in the local tangent frame, low-pass filtered
with a short centered moving average.  Velocity features combine sliding
window statistics, energy-normalized DFT magnitudes and an orthogonal
polynomial expansion of the GNSS speed.
"""

import math

import numpy as np

SAMPLE_RATE = 50.0           # Hz
YAW_LOWPASS_WINDOW = 0.25    # s
STAT_WINDOW = 1.0            # s, centered
DFT_WINDOW_SAMPLES = 256     # 5.12 s at 50 Hz
DFT_ORDERS = 6               # magnitudes of orders 0..5
GNSS_WINDOW = 5.0            # s
GNSS_POLY_DEGREE = 3


def moving_average(values, window_s, rate=SAMPLE_RATE):
    """Centered moving average; edge windows are truncated."""
    values = np.asarray(values, dtype=float)
    half = int(window_s * rate / 2.0)
    if len(values) == 0:
        return values.copy()
    csum = np.concatenate([[0.0], np.cumsum(values)])
    n = len(values)
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def yaw_rate(imu, rate=SAMPLE_RATE):
    """(t, gamma_dot) stream from an IMU array (t, acc xyz, gyr xyz)."""
    imu = np.asarray(imu, dtype=float)
    if imu.size == 0:
        return np.empty((0, 2))
    t = imu[:, 0]
    gyr_z = imu[:, 6]
    return np.column_stack([t, moving_average(gyr_z, YAW_LOWPASS_WINDOW, rate)])


def window_features(signal, window_s=None, rate=SAMPLE_RATE):
    """(mean, energy) over the trailing window_s seconds of a stream (the
    whole stream if window_s is None); energy is the mean of squares."""
    values = np.asarray(signal, dtype=float)
    if window_s is not None:
        k = int(round(window_s * rate))
        if k > len(values):
            raise ValueError("window does not fit in the stream")
        values = values[len(values) - k:]
    if len(values) == 0:
        raise ValueError("window is empty")
    return float(values.mean()), float(np.mean(values ** 2))


def dft_features(window) -> np.ndarray:
    """Magnitudes of DFT orders 0..5, normalized by the window energy.

    Requires exactly 256 samples; a zero-energy window yields all zeros.
    """
    values = np.asarray(window, dtype=float)
    if values.shape != (DFT_WINDOW_SAMPLES,):
        raise ValueError(f"expected {DFT_WINDOW_SAMPLES} samples, "
                         f"got {values.shape}")
    energy = float(np.sum(values ** 2))
    if energy == 0.0:
        return np.zeros(DFT_ORDERS)
    spectrum = np.fft.rfft(values)
    return np.abs(spectrum[:DFT_ORDERS]) / energy


def orthopoly_basis(n, degree) -> np.ndarray:
    """Orthonormal polynomial basis over indices 0..n-1, columns per degree.

    Built by (twice-iterated) Gram-Schmidt on 1, i, i^2, ..., i^degree.
    """
    if n <= degree:
        raise ValueError(f"window length {n} must exceed degree {degree}")
    i = np.arange(n, dtype=float)
    basis = np.empty((n, degree + 1))
    for d in range(degree + 1):
        q = i ** d
        for _ in range(2):   # reorthogonalize for stability
            for prev in range(d):
                q = q - (basis[:, prev] @ q) * basis[:, prev]
        norm = math.sqrt(q @ q)
        if norm == 0.0:
            raise ValueError("degenerate window for polynomial basis")
        basis[:, d] = q / norm
    return basis


def orthopoly_coeffs(window, degree) -> np.ndarray:
    """Least-squares fit coefficients in the orthonormal polynomial basis.

    The reconstruction basis @ coeffs equals the ordinary least-squares
    polynomial fit of the window over its sample indices.
    """
    values = np.asarray(window, dtype=float)
    basis = orthopoly_basis(len(values), degree)
    return basis.T @ values


# -- feature matrix for the velocity forest ---------------------------------

SIGNAL_NAMES = ("acc_h", "acc_v", "gyr_h", "gyr_v")

FEATURE_LAYOUT_VERSION = "v1"


def feature_names(with_gnss: bool):
    names = [f"{sig}_{stat}" for sig in SIGNAL_NAMES for stat in ("mean", "energy")]
    names += [f"{sig}_dft{k}" for sig in SIGNAL_NAMES for k in range(DFT_ORDERS)]
    if with_gnss:
        names += [f"gnss_v_poly{d}" for d in range(GNSS_POLY_DEGREE + 1)]
    return names


def feature_layout(with_gnss: bool) -> dict:
    return {"version": FEATURE_LAYOUT_VERSION, "with_gnss": bool(with_gnss),
            "names": feature_names(with_gnss)}


N_MOTION_FEATURES = len(feature_names(with_gnss=False))


def transformed_signals(imu) -> np.ndarray:
    """Columns acc_h, acc_v, gyr_h, gyr_v from an IMU array."""
    imu = np.asarray(imu, dtype=float)
    acc_h = np.hypot(imu[:, 1], imu[:, 2])
    gyr_h = np.hypot(imu[:, 4], imu[:, 5])
    return np.column_stack([acc_h, imu[:, 3], gyr_h, imu[:, 6]])


def _batched_dft_features(values):
    """dft_features for every trailing 256-window; rows align with window ends."""
    n = len(values)
    windows = np.lib.stride_tricks.sliding_window_view(values, DFT_WINDOW_SAMPLES)
    energy = np.sum(windows ** 2, axis=1)
    mags = np.abs(np.fft.rfft(windows, axis=1)[:, :DFT_ORDERS])
    out = np.zeros((n - DFT_WINDOW_SAMPLES + 1, DFT_ORDERS))
    nz = energy > 0.0
    out[nz] = mags[nz] / energy[nz, None]
    return out


def gnss_poly_track(times, gnss, window_s=GNSS_WINDOW, degree=GNSS_POLY_DEGREE):
    """Zero-order-hold GNSS speed polynomial features on the 50 Hz grid.

    For each output time, the coefficients computed at the latest GNSS fix
    (over the trailing window of fixes) are held.  Returns (coeffs, age)
    where age is the time since the newest fix (inf before the first one);
    rows without enough fixes for the fit hold NaN.
    """
    times = np.asarray(times, dtype=float)
    gnss = np.asarray(gnss, dtype=float).reshape(-1, 4)
    coeffs = np.full((len(times), degree + 1), np.nan)
    age = np.full(len(times), np.inf)
    if len(gnss) == 0:
        return coeffs, age
    t_fix = gnss[:, 0]
    v_fix = gnss[:, 1]
    per_fix = np.full((len(gnss), degree + 1), np.nan)
    for k in range(len(gnss)):
        # half-open (t-window, t]: a steady 1 Hz stream always yields the
        # same fix count, keeping the coefficient scale consistent
        in_window = (t_fix > t_fix[k] - window_s + 1e-9) & (t_fix <= t_fix[k] + 1e-9)
        vals = v_fix[in_window]
        if len(vals) > degree + 1:
            per_fix[k] = orthopoly_coeffs(vals, degree)
    newest = np.searchsorted(t_fix, times + 1e-9) - 1
    has_fix = newest >= 0
    age[has_fix] = times[has_fix] - t_fix[newest[has_fix]]
    coeffs[has_fix] = per_fix[newest[has_fix]]
    return coeffs, age


def motion_feature_matrix(imu) -> np.ndarray:
    """IMU-only features for every sample index from 255 on (one row each)."""
    signals = transformed_signals(imu)
    n = len(signals)
    if n < DFT_WINDOW_SAMPLES:
        return np.empty((0, N_MOTION_FEATURES))
    stat_cols = []
    for col in range(signals.shape[1]):
        x = signals[:, col]
        stat_cols += [moving_average(x, STAT_WINDOW),
                      moving_average(x ** 2, STAT_WINDOW)]
    stats = np.column_stack(stat_cols)[DFT_WINDOW_SAMPLES - 1:]
    dfts = np.column_stack([_batched_dft_features(signals[:, col])
                            for col in range(signals.shape[1])])
    return np.column_stack([stats, dfts])
