"""Data association: optimal detection-to-track assignment and
smart-device-to-track binding via a penalized Mahalanobis distance."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .ekf import (MeasurementKind, MeasurementNoiseParams, ProcessNoiseParams,
                  StateEstimate, measurement_matrix, measurement_noise_cov)
from .errors import NumericalError

# penalized Mahalanobis distance beyond which a device reading binds to no track
DEVICE_GATE = 5.0


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
        if allowed.size and not np.all(np.isfinite(allowed)):
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
    n_rows, n_cols = c.cost.shape
    if n_rows == 0 or n_cols == 0:
        return []
    allowed = ~c.forbidden
    if not allowed.any():
        return []
    max_allowed = float(c.cost[allowed].max())
    sentinel = (abs(max_allowed) + 1.0) * (min(n_rows, n_cols) + 1)
    work = np.where(allowed, c.cost, sentinel)
    rows, cols = linear_sum_assignment(work)
    return sorted((int(r), int(col)) for r, col in zip(rows, cols)
                  if allowed[r, col])


def penalized_mahalanobis(r: DeviceResidual) -> float:
    """sqrt(y^T S^-1 y + ln det S), clamped at 0 when the radicand is negative.

    The ln det S term penalizes tracks whose inflated predicted covariance
    would otherwise attract measurements.
    """
    y = np.asarray(r.y, dtype=float)
    S = np.asarray(r.S, dtype=float)
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not positive-definite") from exc
    sol = np.linalg.solve(chol, y)
    quad = float(sol @ sol)
    log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    return math.sqrt(max(0.0, quad + log_det))


def device_residual(gamma_dot, v, sigma_v, estimate: StateEstimate,
                    n: MeasurementNoiseParams, p: ProcessNoiseParams) -> DeviceResidual:
    """Residual and innovation covariance of a device reading against a
    predicted track estimate."""
    H = measurement_matrix(MeasurementKind.DEVICE_ONLY)
    R = measurement_noise_cov(MeasurementKind.DEVICE_ONLY, n, p, sigma_v=sigma_v)
    s = estimate.state
    y = np.array([gamma_dot - s.gamma_dot, v - s.v])
    S = H @ estimate.covariance @ H.T + R
    return DeviceResidual(y=y, S=S)


def assign_device(gamma_dot, v, sigma_v, tracks, n: MeasurementNoiseParams,
                  p: ProcessNoiseParams, gate: float = DEVICE_GATE):
    """Nearest-neighbor device-to-track binding.

    tracks is a sequence of predicted StateEstimates; returns the index of
    the track with the smallest penalized Mahalanobis distance if it is
    within the gate, else None.  Ties break to the lowest index.
    """
    best_idx = None
    best_d = math.inf
    for idx, estimate in enumerate(tracks):
        d = penalized_mahalanobis(
            device_residual(gamma_dot, v, sigma_v, estimate, n, p))
        if d < best_d:
            best_idx, best_d = idx, d
    if best_idx is None or best_d > gate:
        return None
    return best_idx


def gated_cost_matrix(track_positions, detection_positions, gate: float) -> CostMatrix:
    """Euclidean distances with pairs beyond the gate marked forbidden."""
    tp = np.asarray(track_positions, dtype=float).reshape(-1, 2)
    dp = np.asarray(detection_positions, dtype=float).reshape(-1, 2)
    diff = tp[:, None, :] - dp[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    return CostMatrix(cost=cost, forbidden=cost > gate)
