"""Independent oracles shared by the test modules.

Everything here is deliberately written against the mathematical definitions
(finite differences, brute-force enumeration, direct integration) rather
than reusing the library's code paths.
"""

import itertools
import math

import numpy as np

from cooptrack.ekf import BikeState, predict_state, noisy_transition
from cooptrack.metrics import FrameRecord


def fd_jacobian(fun, x0, h):
    """Central finite differences of a vector function, column per input."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for k in range(len(x0)):
        dx = np.zeros_like(x0)
        dx[k] = h
        cols.append((fun(x0 + dx) - fun(x0 - dx)) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_transition_jacobian(state: BikeState, T, h=1e-6):
    def fun(arr):
        return predict_state(BikeState.from_array(arr), T).as_array()
    return fd_jacobian(fun, state.as_array(), h)


def fd_noise_gain(state: BikeState, T, h=1e-7):
    def fun(w):
        return noisy_transition(state, w, T).as_array()
    return fd_jacobian(fun, np.zeros(2), h)


def rk4_constant_turn(x0, y0, gamma0, gamma_dot, v, duration, step=1e-6):
    """Integrate x' = v cos(gamma), y' = v sin(gamma), gamma' = const."""
    n = int(round(duration / step))
    x, y, gamma = x0, y0, gamma0

    def deriv(g):
        return v * math.cos(g), v * math.sin(g)

    for _ in range(n):
        k1x, k1y = deriv(gamma)
        k2x, k2y = deriv(gamma + 0.5 * step * gamma_dot)
        k3x, k3y = k2x, k2y
        k4x, k4y = deriv(gamma + step * gamma_dot)
        x += step / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        y += step / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        gamma += step * gamma_dot
    return x, y, gamma


def brute_force_assignment(cost):
    """Minimum-cost full assignment by enumerating permutations.

    Works on rectangular matrices by assigning the smaller dimension fully;
    returns (best_cost, pairs).
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    transposed = n_rows > n_cols
    if transposed:
        cost = cost.T
        n_rows, n_cols = n_cols, n_rows
    best = (math.inf, None)
    for cols in itertools.permutations(range(n_cols), n_rows):
        total = sum(cost[r, c] for r, c in enumerate(cols))
        if total < best[0]:
            best = (total, list(enumerate(cols)))
    total, pairs = best
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return total, pairs


def naive_dft_magnitudes(window, orders):
    """O(n^2) DFT magnitudes straight from the definition."""
    window = np.asarray(window, dtype=float)
    n = len(window)
    mags = []
    for k in range(orders):
        re = sum(window[j] * math.cos(-2.0 * math.pi * k * j / n) for j in range(n))
        im = sum(window[j] * math.sin(-2.0 * math.pi * k * j / n) for j in range(n))
        mags.append(math.hypot(re, im))
    return np.array(mags)


def polyfit_normal_equations(values, degree):
    """Ordinary least-squares polynomial fit over sample indices."""
    values = np.asarray(values, dtype=float)
    i = np.arange(len(values), dtype=float)
    V = np.vander(i, degree + 1, increasing=True)
    coeffs = np.linalg.solve(V.T @ V, V.T @ values)
    return V @ coeffs


def frame_records_from_tracks(gt_times, gt_xy, tracks_by_frame, tau):
    """FrameRecords of a scene, one frame at a time.

    tracks_by_frame: mapping frame index -> (k, 2) valid-track positions at
    that frame (absent or empty means no valid track).
    """
    gt_xy = np.asarray(gt_xy, dtype=float).reshape(-1, 2)
    frames = []
    for i, t in enumerate(gt_times):
        positions = tracks_by_frame.get(i)
        if positions is None or len(positions) == 0:
            frames.append(FrameRecord.from_distance(float(t), None, tau))
            continue
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        delta = float(np.hypot(*(pos - gt_xy[i]).T).min())
        frames.append(FrameRecord.from_distance(float(t), delta, tau))
    return frames


def motp_of_records(frames, tau):
    """MOTP straight from per-frame records, summed in frame order."""
    num = sum(f.d for f in frames) + tau * sum(f.lm for f in frames)
    return num / (sum(f.c for f in frames) + sum(f.lm for f in frames))


def mota_of_records(frames):
    return 1.0 - sum(f.dm + 2 * f.lm for f in frames) / sum(f.g for f in frames)


def frame_counts_of_records(frames):
    return {"matches": sum(f.c for f in frames), "dm": sum(f.dm for f in frames),
            "lm": sum(f.lm for f in frames)}
