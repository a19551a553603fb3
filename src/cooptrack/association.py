"""Data association: optimal detection-to-track assignment and
smart-device-to-track binding via a penalized Mahalanobis distance."""

from dataclasses import dataclass

import numpy as np

from .ekf import MeasurementNoiseParams, ProcessNoiseParams, measurement_noise_variances
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
    n_rows, n_cols = c.cost.shape
    if n_rows == 0 or n_cols == 0:
        return []
    allowed = ~c.forbidden
    if not allowed.any():
        return []
    max_allowed = float(c.cost[allowed].max())
    sentinel = (abs(max_allowed) + 1.0) * (min(n_rows, n_cols) + 1)
    work = np.where(allowed, c.cost, sentinel)
    # imported here: scipy.optimize takes longer to import than a whole
    # small tracking run, and single-track lanes never get this far
    from scipy.optimize import linear_sum_assignment
    return sorted((int(r), int(col)) for r, col in zip(*linear_sum_assignment(work))
                  if allowed[r, col])


def penalized_mahalanobis_batch(y, S):
    """penalized_mahalanobis of N residuals y (N, m) with innovation
    covariances S (N, m, m); returns the (N,) distances."""
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not positive-definite") from exc
    sol = np.linalg.solve(chol, y[:, :, None])[:, :, 0]
    quad = (sol[:, None, :] @ sol[:, :, None])[:, 0, 0]
    log_det = 2.0 * np.log(chol.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return np.sqrt(np.maximum(0.0, quad + log_det))


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
    diagonal of R: y = z - H x and S = H P H^T + R with H selecting
    gamma_dot and v.  Returns the (N,) distances."""
    return penalized_mahalanobis_batch(z - x[:, 3:5],
                                       P[:, 3:5, 3:5] + r[..., None] * np.eye(2))


def nearest_allowed(cost, allowed, axis=-1):
    """Along `axis` of cost, the index of the smallest allowed cost (the
    lowest index on ties) and whether there is one.

    An allowed cost must not be NaN; an infinite one counts as not allowed.
    Returns two arrays of cost's shape without `axis`.
    """
    masked = np.where(allowed, cost, np.inf)
    return masked.argmin(axis=axis), np.minimum.reduce(masked, axis=axis) < np.inf


def assign_device(gamma_dot, v, sigma_v, tracks, n: MeasurementNoiseParams,
                  p: ProcessNoiseParams, gate: float = DEVICE_GATE):
    """Nearest-neighbor device-to-track binding.

    tracks is a sequence of predicted StateEstimates; returns the index of
    the track with the smallest penalized Mahalanobis distance if it is
    within the gate, else None.  Ties break to the lowest index.
    """
    if not tracks:
        return None
    distance = device_distances(
        np.array([gamma_dot, v]), np.array([e.state.as_array() for e in tracks]),
        np.array([e.covariance for e in tracks], dtype=float),
        measurement_noise_variances(n, p, sigma_v)[2:])
    idx, found = nearest_allowed(distance, distance <= gate)
    return int(idx) if found else None


def gated_cost_matrix(track_positions, detection_positions, gate: float) -> CostMatrix:
    """Euclidean distances with pairs beyond the gate marked forbidden."""
    tp = np.asarray(track_positions, dtype=float).reshape(-1, 2)
    dp = np.asarray(detection_positions, dtype=float).reshape(-1, 2)
    diff = tp[:, None, :] - dp[None, :, :]
    cost = np.hypot(diff[..., 0], diff[..., 1])
    return CostMatrix(cost=cost, forbidden=cost > gate)
