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


def _window_sums(values, lo, hi):
    """Sums of the windows values[lo[i]:hi[i]] along axis 0 (lo and hi index
    arrays or slices of equal length), each the difference of two entries
    of one running sum, so a window costs O(1) whatever its length.

    A window holding a non-finite sample sums to NaN; the other windows do
    not see it.  The running sum adds one sample at a time, so a window of
    exact zeros sums to exactly 0.  The rounding error of a window sum is
    at most about u * (hi - lo) * max|running sum| with u = 2**-53: it
    grows with the size of the running sum at the window, not with the
    number of windows before it.
    """
    finite = np.isfinite(values)
    clean = finite.all()
    csum = np.zeros((len(values) + 1,) + values.shape[1:], dtype=values.dtype)
    np.cumsum(values if clean else np.where(finite, values, 0.0), axis=0,
              out=csum[1:])
    sums = csum[hi] - csum[lo]
    if not clean:
        # a window holds a bad sample where the running count of them grows
        n_bad = np.cumsum(np.concatenate([np.zeros_like(finite[:1]), ~finite]), axis=0)
        sums[n_bad[hi] > n_bad[lo]] = np.nan
    return sums


def moving_average(values, window_s):
    """Centered moving average along axis 0, so per column of a 2-D array;
    edge windows are truncated.  A window holding a non-finite sample
    averages to NaN; the other windows do not see it."""
    values = np.asarray(values, dtype=float)
    half = int(window_s * SAMPLE_RATE / 2.0)
    n = len(values)
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1) + 1
    count = (hi - lo).reshape((n,) + (1,) * (values.ndim - 1))
    return _window_sums(values, lo, hi) / count


def yaw_rate(imu):
    """(t, gamma_dot) stream from an IMU array (t, acc xyz, gyr xyz)."""
    imu = np.asarray(imu, dtype=float)
    t = imu[:, 0]
    gyr_z = imu[:, 6]
    return np.column_stack([t, moving_average(gyr_z, YAW_LOWPASS_WINDOW)])


# w^j = exp(-2 pi i j / 256): the twiddle of order k at sample t is
# w^((k t) mod 256), row t mod 256 of this (256, 6) table
_TWIDDLES = np.exp(-2j * np.pi * np.arange(DFT_WINDOW_SAMPLES) / DFT_WINDOW_SAMPLES)[
    np.outer(np.arange(DFT_WINDOW_SAMPLES), np.arange(DFT_ORDERS)) % DFT_WINDOW_SAMPLES]

# windows per block of the twiddled running sums, which bounds their
# temporaries to about 20 MB for four signals at any recording length
_DFT_BLOCK = 1 << 14


def _trailing_dfts(signals) -> np.ndarray:
    """dft_features of every trailing 256-window of each column of
    signals (n, c): shape (n - 255, c, 6), row i for the window that
    starts at sample i.

    The sliding DFT in running-sum form (Jacobsen and Lyons, "The sliding
    DFT", IEEE Signal Processing Magazine, 2003): with C_k[t] the sum of
    x[s] w^(k s) over s < t, the window starting at i has
    X_k(i) = w^(-k i) (C_k[i + 256] - C_k[i]), and the phase w^(-k i) drops
    out of the magnitude.  The window energy is the same difference of the
    running sum of squares.  Both follow _window_sums' error bound, so on a
    signal with an offset, such as gravity on acc_v, the relative error
    grows at most about like u = 2**-53 times the samples before the
    window's end: against an exact DFT, 9.1e-13 at the last window of a
    1-hour ride at 50 Hz, 4.5e-14 at its first.
    The twiddled sums run a block of _DFT_BLOCK windows at a time, each
    block's from the C_k its predecessor ended on, so no bit moves.
    """
    n = len(signals)
    m = n - DFT_WINDOW_SAMPLES + 1
    # a window holding a non-finite sample has a NaN energy, which makes
    # its magnitudes NaN; the twiddled sums take such samples as 0
    energy = _window_sums(signals ** 2, slice(0, m),
                          slice(DFT_WINDOW_SAMPLES, n + 1))[:, :, None]
    finite = np.where(np.isfinite(signals), signals, 0.0)
    dfts = np.zeros((m, signals.shape[1], DFT_ORDERS))
    running = np.zeros(dfts.shape[1:], dtype=complex)
    for lo in range(0, m, _DFT_BLOCK):
        hi = min(lo + _DFT_BLOCK, m)
        stop = hi + DFT_WINDOW_SAMPLES - 1
        twiddles = _TWIDDLES.take(np.arange(lo, stop), axis=0, mode="wrap")
        csum = np.empty((stop - lo + 1,) + running.shape, dtype=complex)
        csum[0] = running
        np.multiply(finite[lo:stop, :, None], twiddles[:, None, :], out=csum[1:])
        np.cumsum(csum, axis=0, out=csum)
        running = csum[hi - lo].copy()      # a copy lets this block's sums go
        np.divide(np.abs(csum[DFT_WINDOW_SAMPLES:] - csum[:hi - lo]), energy[lo:hi],
                  out=dfts[lo:hi], where=energy[lo:hi] != 0.0)
    return dfts


def dft_features(window) -> np.ndarray:
    """Magnitudes of DFT orders 0..5, normalized by the window energy.

    Requires exactly 256 samples; a zero-energy window yields all zeros,
    and a window holding a non-finite sample all NaN.
    """
    values = np.asarray(window, dtype=float)
    if values.shape != (DFT_WINDOW_SAMPLES,):
        raise ValueError(f"expected {DFT_WINDOW_SAMPLES} samples, "
                         f"got {values.shape}")
    return _trailing_dfts(values[:, None])[0, 0]


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

    The moving mean and energy of each transformed signal are
    moving_average's, bit for bit; the DFT block of each trailing window
    is dft_features' (see _trailing_dfts for how it is computed and its
    error bound).  A window whose energy is 0 yields zeros, and a window
    holding a non-finite sample six NaN.
    """
    signals = transformed_signals(imu)
    n = len(signals)
    if n < DFT_WINDOW_SAMPLES:
        return np.empty((0, N_MOTION_FEATURES))
    # columns acc_h, acc_h^2, acc_v, acc_v^2, ...: moving mean and energy
    stats = moving_average(np.stack([signals, signals ** 2], axis=2).reshape(n, -1),
                           STAT_WINDOW)[DFT_WINDOW_SAMPLES - 1:]
    # (m, 4, 6) -> (m, 24): the six orders of acc_h, then of acc_v, ...
    return np.column_stack([stats, _trailing_dfts(signals).reshape(len(stats), -1)])
