"""Signal features for the smart-device velocity pipeline.

Yaw rate is the z gyroscope in the local tangent frame, low-pass filtered
with a short centered moving average.  Velocity features combine sliding
window statistics, energy-normalized DFT magnitudes and an orthogonal
polynomial expansion of the GNSS speed.
"""

import functools
import math

import numpy as np

SAMPLE_RATE = 50.0           # Hz
YAW_LOWPASS_WINDOW = 0.25    # s
STAT_WINDOW = 1.0            # s, centered
DFT_WINDOW_SAMPLES = 256     # 5.12 s at 50 Hz
DFT_ORDERS = 6               # magnitudes of orders 0..5
GNSS_WINDOW = 5.0            # s
GNSS_POLY_DEGREE = 3


def moving_average(values, window_s):
    """Centered moving average along axis 0, so per column of a 2-D array;
    edge windows are truncated."""
    values = np.asarray(values, dtype=float)
    half = int(window_s * SAMPLE_RATE / 2.0)
    n = len(values)
    if n == 0:
        return values.copy()
    csum = np.zeros((n + 1,) + values.shape[1:])
    np.cumsum(values, axis=0, out=csum[1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    count = (hi - lo + 1).reshape((n,) + (1,) * (values.ndim - 1))
    return (csum[hi + 1] - csum[lo]) / count


def yaw_rate(imu):
    """(t, gamma_dot) stream from an IMU array (t, acc xyz, gyr xyz)."""
    imu = np.asarray(imu, dtype=float)
    if imu.size == 0:
        return np.empty((0, 2))
    t = imu[:, 0]
    gyr_z = imu[:, 6]
    return np.column_stack([t, moving_average(gyr_z, YAW_LOWPASS_WINDOW)])


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


@functools.lru_cache(maxsize=64)
def orthopoly_basis(n, degree) -> np.ndarray:
    """Orthonormal polynomial basis over indices 0..n-1, columns per degree.

    Built by (twice-iterated) Gram-Schmidt on 1, i, i^2, ..., i^degree.
    Memoized per (n, degree), since the window length takes few values;
    the shared array is read-only.
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
    basis.setflags(write=False)
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


def gnss_poly_track(times, gnss):
    """Zero-order-hold GNSS speed polynomial features on the 50 Hz grid.

    gnss holds (t, v, x, y) fixes with strictly increasing times; an empty
    array means no fixes.  For each output time, the coefficients computed
    at the latest GNSS fix (over the trailing window of fixes) are held.
    Returns (coeffs, age) where age is the time since the newest fix (inf
    before the first one); rows without enough fixes for the fit hold NaN.
    """
    times = np.asarray(times, dtype=float)
    gnss = np.asarray(gnss, dtype=float)
    coeffs = np.full((len(times), GNSS_POLY_DEGREE + 1), np.nan)
    age = np.full(len(times), np.inf)
    if gnss.size == 0:
        return coeffs, age
    t_fix = gnss[:, 0]
    # a contiguous copy: on a strided window, basis.T @ window rounds
    # differently
    v_fix = np.ascontiguousarray(gnss[:, 1])
    # half-open (t-window, t]: a steady 1 Hz stream always yields the same
    # fix count, keeping the coefficient scale consistent
    first = np.searchsorted(t_fix, t_fix - GNSS_WINDOW + 1e-9, side="right")
    end = np.searchsorted(t_fix, t_fix + 1e-9, side="right")
    per_fix = np.full((len(gnss), GNSS_POLY_DEGREE + 1), np.nan)
    for k in np.flatnonzero(end - first > GNSS_POLY_DEGREE + 1):
        per_fix[k] = orthopoly_coeffs(v_fix[first[k]:end[k]], GNSS_POLY_DEGREE)
    newest = np.searchsorted(t_fix, times + 1e-9) - 1
    has_fix = newest >= 0
    age[has_fix] = times[has_fix] - t_fix[newest[has_fix]]
    coeffs[has_fix] = per_fix[newest[has_fix]]
    return coeffs, age


def motion_feature_matrix(imu) -> np.ndarray:
    """IMU-only features for every sample index from 255 on (one row each).

    One pass over the four transformed signals: their squares are taken
    once and shared by the moving energies and the window energies, and one
    rfft covers every trailing 256-window of every signal.  The result is
    bit for bit the per-signal, per-window computation (moving_average of
    each column, dft_features of each window): the batched rfft rows equal
    the per-window rfft, and each window energy is the same pairwise sum of
    the same 256 squares.  A window whose energy is 0 (or NaN) yields zeros.
    """
    signals = transformed_signals(imu)
    n = len(signals)
    if n < DFT_WINDOW_SAMPLES:
        return np.empty((0, N_MOTION_FEATURES))
    # (4, n) copy, so that each window of a signal is contiguous: on a view
    # of the (n, 4) columns the window energies are not the pairwise sums
    # that dft_features takes, and rfft is slower
    sig = np.ascontiguousarray(signals.T)
    sq = sig ** 2
    # columns acc_h, acc_h^2, acc_v, acc_v^2, ...: moving mean and energy
    stats = moving_average(np.stack([sig, sq], axis=1).reshape(-1, n).T,
                           STAT_WINDOW)[DFT_WINDOW_SAMPLES - 1:]
    windows = np.lib.stride_tricks.sliding_window_view
    energy = windows(sq, DFT_WINDOW_SAMPLES, axis=1).sum(axis=2)[..., None]
    mags = np.abs(np.fft.rfft(windows(sig, DFT_WINDOW_SAMPLES, axis=1),
                              axis=2)[..., :DFT_ORDERS])
    dfts = np.zeros_like(mags)
    np.divide(mags, energy, out=dfts, where=energy > 0.0)
    # (4, m, 6) -> (m, 24): the six orders of acc_h, then of acc_v, ...
    dfts = dfts.transpose(1, 0, 2).reshape(len(stats), -1)
    return np.column_stack([stats, dfts])
