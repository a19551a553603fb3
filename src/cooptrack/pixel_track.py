"""Pixel-space constant-velocity Kalman filter for the 2D pre-tracking stage.

State: [u, v, u_dot, v_dot] in pixels and pixels per second.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError


@dataclass(frozen=True)
class PixelState:
    px_u: float
    px_v: float
    px_u_dot: float
    px_v_dot: float
    covariance: np.ndarray   # 4x4

    def as_array(self):
        return np.array([self.px_u, self.px_v, self.px_u_dot, self.px_v_dot])


def _require_finite(s: PixelState):
    if not all(map(math.isfinite, s.as_array())):
        raise InvalidStateError(f"non-finite pixel state: {s}")


def cv_predict(s: PixelState, dt: float, q_px: float) -> PixelState:
    """Constant-velocity prediction with white-acceleration process noise.

    q_px is the white-noise acceleration intensity in px^2/s^3; the
    discretized per-axis noise block is q * [[dt^3/3, dt^2/2], [dt^2/2, dt]].
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    _require_finite(s)
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    Q = np.zeros((4, 4))
    q_pp = q_px * dt ** 3 / 3.0
    q_pv = q_px * dt ** 2 / 2.0
    q_vv = q_px * dt
    for pos, vel in ((0, 2), (1, 3)):
        Q[pos, pos] = q_pp
        Q[pos, vel] = Q[vel, pos] = q_pv
        Q[vel, vel] = q_vv
    x = F @ s.as_array()
    P = F @ s.covariance @ F.T + Q
    P = 0.5 * (P + P.T)
    return PixelState(x[0], x[1], x[2], x[3], P)


def cv_update(s: PixelState, detection, r_px: float) -> PixelState:
    """Linear Kalman update on the (u, v) rows with isotropic noise r_px."""
    _require_finite(s)
    u, v = float(detection[0]), float(detection[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise InvalidStateError("non-finite detection")
    H = np.zeros((2, 4))
    H[0, 0] = H[1, 1] = 1.0
    R = np.eye(2) * r_px ** 2
    x = s.as_array()
    P = s.covariance
    y = np.array([u, v]) - H @ x
    S = H @ P @ H.T + R
    try:
        S_chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not invertible") from exc
    PHt = P @ H.T
    K = np.linalg.solve(S_chol.T, np.linalg.solve(S_chol, PHt.T)).T
    x_new = x + K @ y
    IKH = np.eye(4) - K @ H
    P_new = IKH @ P @ IKH.T + K @ R @ K.T
    P_new = 0.5 * (P_new + P_new.T)
    return PixelState(x_new[0], x_new[1], x_new[2], x_new[3], P_new)
