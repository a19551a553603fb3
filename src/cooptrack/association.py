"""Data association: optimal detection-to-track assignment and
smart-device-to-track binding via a penalized Mahalanobis distance."""

from dataclasses import dataclass

import numpy as np

from . import ekf
from .errors import NumericalError

# penalized Mahalanobis distance beyond which a device reading binds to no track
DEVICE_GATE = 5.0
_EYE_2 = np.eye(2)      # puts R's diagonal into S over the device pair


@dataclass
class CostMatrix:
    """Track-by-detection costs with a mask of gated-out pairs."""

    cost: np.ndarray
    forbidden: np.ndarray = None

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        if self.cost.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if self.forbidden is None:
            self.forbidden = np.zeros(self.cost.shape, dtype=bool)
        else:
            self.forbidden = np.asarray(self.forbidden, dtype=bool)
            if self.forbidden.shape != self.cost.shape:
                raise ValueError("forbidden mask shape must match cost shape")
        allowed = self.cost[~self.forbidden]
        if not np.isfinite(allowed).all():
            raise ValueError("allowed costs must be finite")


@dataclass
class DeviceResidual:
    """Residual y = z - H x_p of a device measurement [gamma_dot, v] and its
    innovation covariance S."""

    y: np.ndarray
    S: np.ndarray


def munkres_solve(c: CostMatrix):
    """Minimum-total-cost assignment restricted to allowed pairs.

    Rectangular matrices are padded conceptually by the solver; forbidden
    pairs carry a sentinel cost large enough that the solver first maximizes
    the number of allowed pairs, and sentinel pairs are dropped from the
    result.  Returns (row, col) pairs sorted by row.
    """
    allowed = ~c.forbidden
    if not allowed.any():
        return []
    max_allowed = float(c.cost[allowed].max())
    sentinel = (abs(max_allowed) + 1.0) * (min(c.cost.shape) + 1)
    work = np.where(allowed, c.cost, sentinel)
    # imported here: scipy.optimize takes longer to import than a whole
    # small tracking run, and single-track lanes never get this far
    from scipy.optimize import linear_sum_assignment
    return sorted((int(r), int(col)) for r, col in zip(*linear_sum_assignment(work))
                  if allowed[r, col])


def penalized_mahalanobis_batch(y, S):
    """penalized_mahalanobis of N residuals y (N, 2) with innovation
    covariances S (N, 2, 2), through the Cholesky factor L of each S written
    out: u = L^-1 y, y^T S^-1 y = u.u and ln det S = ln S00 + ln l11^2."""
    s00, s10, s11 = S[:, 0, 0], S[:, 1, 0], S[:, 1, 1]
    # each pivot is tested before its root is taken or divided by, so a bad S
    # raises without a RuntimeWarning; NaN fails the test
    if np.count_nonzero(s00 > 0) < len(s00):
        raise NumericalError("innovation covariance is not positive-definite")
    l00 = np.sqrt(s00)
    l10 = s10 / l00
    l11_sq = s11 - l10 * l10
    if np.count_nonzero(l11_sq > 0) < len(l11_sq):
        raise NumericalError("innovation covariance is not positive-definite")
    u0 = y[:, 0] / l00
    u1 = (y[:, 1] - l10 * u0) / np.sqrt(l11_sq)
    return np.sqrt(np.maximum(0.0, u0 * u0 + u1 * u1 + np.log(s00) + np.log(l11_sq)))


def penalized_mahalanobis(r: DeviceResidual) -> float:
    """sqrt(y^T S^-1 y + ln det S), clamped at 0 when the radicand is negative.

    The ln det S term penalizes tracks whose inflated predicted covariance
    would otherwise attract measurements.
    """
    y = np.asarray(r.y, dtype=float)
    S = np.asarray(r.S, dtype=float)
    return float(penalized_mahalanobis_batch(y[None], S[None])[0])


def device_distances(z, x, P, r):
    """penalized_mahalanobis of N device readings z (N, 2) of (gamma_dot, v)
    against predicted states x (N, 5) with covariances P (N, 5, 5), the
    readings' noise variances r (N, 2), or (2,) for every reading, on the
    diagonal of R: y = z - H x and S = H P H^T + R with H selecting the
    device pair.  Returns the (N,) distances."""
    return penalized_mahalanobis_batch(
        z - x[:, ekf.DEVICE], P[:, ekf.DEVICE, ekf.DEVICE] + r[..., None] * _EYE_2)


def nearest_allowed(cost, allowed, axis=-1):
    """Along `axis` of cost, the index of the smallest allowed cost (the
    lowest index on ties) and whether there is one.

    An allowed cost must not be NaN; an infinite one counts as not allowed.
    Returns two arrays of cost's shape without `axis`.
    """
    masked = np.where(allowed, cost, np.inf)
    return masked.argmin(axis=axis), np.minimum.reduce(masked, axis=axis) < np.inf


def assign_device(gamma_dot, v, sigma_v, tracks, n: ekf.MeasurementNoiseParams,
                  p: ekf.ProcessNoiseParams, gate: float = DEVICE_GATE):
    """Nearest-neighbor device-to-track binding.

    tracks is a sequence of predicted StateEstimates; returns the index of
    the track with the smallest penalized Mahalanobis distance if it is
    within the gate, else None.  Ties break to the lowest index.
    """
    if not tracks:
        return None
    reading = ekf.device_readings(n, p, np.array([[gamma_dot, v, sigma_v]], dtype=float))
    distance = device_distances(
        reading[:, ekf.READING_Z], np.array([e.state.as_array() for e in tracks]),
        np.array([e.covariance for e in tracks], dtype=float), reading[:, ekf.READING_R])
    idx, found = nearest_allowed(distance, distance <= gate)
    return int(idx) if found else None


def gated_cost_matrix(track_positions, detection_positions, gate: float) -> CostMatrix:
    """Euclidean distances with pairs beyond the gate marked forbidden."""
    tp = np.asarray(track_positions, dtype=float).reshape(-1, 2)
    dp = np.asarray(detection_positions, dtype=float).reshape(-1, 2)
    diff = tp[:, None, :] - dp[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    return CostMatrix(cost=cost, forbidden=cost > gate)
