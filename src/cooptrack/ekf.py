"""Constant-turn-rate ("bike model") extended Kalman filter.

State vector: [x, y, gamma, gamma_dot, v] with x/y the position east/north
in meters, gamma the yaw in rad (kept in (-pi, pi]), gamma_dot the yaw rate
in rad/s and v the speed along the heading in m/s.  Over one step of length
T the position moves along a circular arc of radius v/gamma_dot; speed and
yaw rate are modeled constant, with process noise entering as a yaw-rate
offset and a constant acceleration.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidStateError, NumericalError

# Below this |gamma_dot| the transition and its derivatives switch to their
# analytic straight-line limits; the exact formulas divide by gamma_dot.
EPS_YAW = 1e-6

STATE_DIM = 5


def _read_only(a):
    a.setflags(write=False)
    return a


# identity matrices of the kernels (measurement sizes 2 and 4, the state),
# built once and never written
_IDENTITY = {m: _read_only(np.eye(m)) for m in (2, 4, STATE_DIM)}


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class BikeState:
    x: float
    y: float
    gamma: float
    gamma_dot: float
    v: float

    def as_array(self):
        return np.array([self.x, self.y, self.gamma, self.gamma_dot, self.v],
                        dtype=float)

    @classmethod
    def from_array(cls, arr):
        x, y, gamma, gamma_dot, v = (float(c) for c in arr)
        return cls(x, y, gamma, gamma_dot, v)


@dataclass(frozen=True)
class StateEstimate:
    """A bike state together with its 5x5 covariance."""

    state: BikeState
    covariance: np.ndarray


@dataclass(frozen=True)
class ProcessNoiseParams:
    """Process noise: yaw-rate offset and along-heading acceleration."""

    sigma_w_gamma_dot: float = 1.5   # rad/s
    sigma_w_v_dot: float = 2.5       # m/s^2
    T: float = 0.020                 # filter step, s

    def __post_init__(self):
        if not (self.sigma_w_gamma_dot > 0 and self.sigma_w_v_dot > 0 and self.T > 0):
            raise ValueError("process noise parameters must be strictly positive")


@dataclass(frozen=True)
class MeasurementNoiseParams:
    """Measurement noise standard deviations.

    sigma_v comes from the velocity estimator per measurement and is not
    stored here.  With r_divide_by_T (default) the per-step device noise
    entries of R are (sigma/T)^2 instead of sigma^2; the flag exists for
    ablation runs.
    """

    sigma_x: float = 0.15            # m
    sigma_y: float = 0.15            # m
    sigma_gamma_dot: float = 0.3     # rad/s
    r_divide_by_T: bool = True

    def __post_init__(self):
        if not (self.sigma_x > 0 and self.sigma_y > 0 and self.sigma_gamma_dot > 0):
            raise ValueError("measurement noise parameters must be strictly positive")


class MeasurementKind(Enum):
    POSITION_AND_DEVICE = "position_and_device"
    DEVICE_ONLY = "device_only"
    POSITION_ONLY = "position_only"


@dataclass(frozen=True)
class Measurement:
    """One fused observation; fields are present iff the kind requires them."""

    kind: MeasurementKind
    position: tuple | None = None    # (x, y) in m
    gamma_dot: float | None = None   # rad/s
    v: float | None = None           # m/s
    sigma_v: float | None = None     # m/s
    timestamp: float = 0.0

    def __post_init__(self):
        needs_pos = self.kind in (MeasurementKind.POSITION_AND_DEVICE,
                                  MeasurementKind.POSITION_ONLY)
        needs_dev = self.kind in (MeasurementKind.POSITION_AND_DEVICE,
                                  MeasurementKind.DEVICE_ONLY)
        if needs_pos != (self.position is not None):
            raise ValueError(f"position must be set iff kind requires it ({self.kind})")
        has_dev = (self.gamma_dot is not None and self.v is not None
                   and self.sigma_v is not None)
        no_dev = (self.gamma_dot is None and self.v is None and self.sigma_v is None)
        if needs_dev and not has_dev:
            raise ValueError(f"gamma_dot, v and sigma_v required for {self.kind}")
        if not needs_dev and not no_dev:
            raise ValueError(f"device fields must be absent for {self.kind}")
        if self.sigma_v is not None and not self.sigma_v > 0:
            raise ValueError("sigma_v must be strictly positive")

    @classmethod
    def position_only(cls, x, y, timestamp=0.0):
        return cls(MeasurementKind.POSITION_ONLY, position=(x, y), timestamp=timestamp)

    @classmethod
    def device_only(cls, gamma_dot, v, sigma_v, timestamp=0.0):
        return cls(MeasurementKind.DEVICE_ONLY, gamma_dot=gamma_dot, v=v,
                   sigma_v=sigma_v, timestamp=timestamp)

    @classmethod
    def position_and_device(cls, x, y, gamma_dot, v, sigma_v, timestamp=0.0):
        return cls(MeasurementKind.POSITION_AND_DEVICE, position=(x, y),
                   gamma_dot=gamma_dot, v=v, sigma_v=sigma_v, timestamp=timestamp)


def _require_finite(x):
    """InvalidStateError unless every row of x (N, 5) is finite."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = ~finite.all(axis=1)
        raise InvalidStateError(
            f"non-finite state: {BikeState.from_array(x[bad.argmax()])}")


def _pow2(values):
    """values ** 2 per element through Python's float power (libm pow).

    pow and x * x round differently on some inputs, and chaotic lanes
    carry a one-ulp difference into the printed results; numpy's `** 2` is
    x * x.
    """
    return np.array([value ** 2 for value in values.tolist()])


def _wrap_angles(angles):
    return np.array([wrap_angle(angle) for angle in angles.tolist()])


def _swap(a):
    """Transpose the last two axes (a matrix transpose per stacked matrix)."""
    return a.mT


def _columns(*columns):
    """The (N,) arrays as the columns of an (N, k) array (a view)."""
    return np.array(columns).T


def _transition(x, T):
    """Noise-free transition of each row of x (N, 5) over its step T (N,).

    Returns the propagated states, the Jacobians F (N, 5, 5) of the
    transition and the Jacobians G (N, 5, 2) of the noisy transition with
    respect to the noise at w = 0, all evaluated at x.  The arc terms a
    (along heading) and b (lateral) and their derivatives switch to their
    analytic straight-line limits below EPS_YAW; 1 - cos(wt) is written as
    2 sin^2(wt/2) to avoid cancellation.
    """
    if not (T > 0).all():
        raise ValueError("T must be positive")
    _require_finite(x)
    gamma, gamma_dot, v = x[:, 2], x[:, 3], x[:, 4]
    straight = np.abs(gamma_dot) < EPS_YAW
    gd = np.where(straight, 1.0, gamma_dot)     # straight rows take the limits
    wt = gd * T
    sin_wt = np.sin(wt)
    sin_half_sq = _pow2(np.sin(0.5 * wt))
    one_m_cos = 2.0 * sin_half_sq
    inv = 1.0 / gd
    da_dv = sin_wt * inv
    db_dv = one_m_cos * inv
    half_T = 0.5 * T
    # columns: a (along heading) or b (lateral), then its derivatives by
    # gamma_dot, by v and by the acceleration noise
    along = _columns(v * sin_wt / gd, v * (T * np.cos(wt) - da_dv) * inv,
                     da_dv, half_T * sin_wt / gd)
    lateral = _columns(v * 2.0 * sin_half_sq / gd, v * (T * sin_wt - db_dv) * inv,
                       db_dv, half_T * 2.0 * sin_half_sq / gd)
    if straight.any():
        # the second-order Taylor limits at gamma_dot -> 0
        zero = np.zeros_like(T)
        along = np.where(straight[:, None],
                         _columns(v * T, zero, T, half_T * T), along)
        lateral = np.where(straight[:, None],
                           _columns(zero, 0.5 * v * T * T, zero, zero), lateral)
    cg, sg = np.cos(gamma), np.sin(gamma)
    # the same columns rotated into east and north
    east = cg[:, None] * along - sg[:, None] * lateral
    north = sg[:, None] * along + cg[:, None] * lateral

    x_new = x.copy()
    x_new[:, 0] = x[:, 0] + cg * along[:, 0] - sg * lateral[:, 0]
    x_new[:, 1] = x[:, 1] + sg * along[:, 0] + cg * lateral[:, 0]
    x_new[:, 2] = _wrap_angles(gamma + gamma_dot * T)

    F = _IDENTITY[STATE_DIM][None].repeat(len(x), axis=0)
    F[:, 0, 2] = -north[:, 0]             # -sg * a - cg * b, negation is exact
    F[:, 0, 3:] = east[:, 1:3]
    F[:, 1, 2] = east[:, 0]
    F[:, 1, 3:] = north[:, 1:3]
    F[:, 2, 3] = T
    G = np.zeros((len(x), STATE_DIM, 2))
    G[:, 0] = east[:, 1::2]
    G[:, 1] = north[:, 1::2]
    G[:, 2, 0] = T
    G[:, 3, 0] = 1.0
    G[:, 4, 1] = T
    return x_new, F, G


def _one(s: BikeState, T):
    """_transition of a single state."""
    return _transition(s.as_array()[None], np.array([T], dtype=float))


def predict_state(s: BikeState, T: float) -> BikeState:
    """Propagate a state through one noise-free transition of length T."""
    return BikeState.from_array(_one(s, T)[0][0])


def noisy_transition(s: BikeState, w, T: float) -> BikeState:
    """Transition including the process noise w = [w_gamma_dot, w_v_dot].

    The noise acts as a constant yaw-rate offset and a constant acceleration
    over the step, so the effective speed for the arc is v + 0.5 T w_v_dot.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    _require_finite(s.as_array()[None])
    w_gd, w_vd = float(w[0]), float(w[1])
    omega = s.gamma_dot + w_gd
    v_eff = 0.5 * T * w_vd + s.v
    if abs(omega) < EPS_YAW:
        a, b = v_eff * T, 0.0
    else:
        wt = omega * T
        a = v_eff * math.sin(wt) / omega
        b = v_eff * 2.0 * math.sin(0.5 * wt) ** 2 / omega
    cg, sg = math.cos(s.gamma), math.sin(s.gamma)
    return BikeState(
        x=s.x + cg * a - sg * b,
        y=s.y + sg * a + cg * b,
        gamma=wrap_angle(s.gamma + omega * T),
        gamma_dot=omega,
        v=s.v + w_vd * T,
    )


def jacobian_f(s: BikeState, T: float) -> np.ndarray:
    """Jacobian of the noise-free transition, evaluated at s."""
    return _one(s, T)[1][0]


def noise_gain(s: BikeState, T: float) -> np.ndarray:
    """Jacobian of the noisy transition w.r.t. the noise, at w = 0 (5x2)."""
    return _one(s, T)[2][0]


def _symmetrize(P):
    return 0.5 * (P + _swap(P))


def _process_noise(G, q):
    """Q = Gamma diag(q) Gamma^T per row, symmetrized; q (N, 2) holds
    [sigma_w_gd^2, sigma_w_vd^2]."""
    return _symmetrize((G * q[:, None, :]) @ _swap(G))


def process_noise_variances(p: ProcessNoiseParams):
    """[sigma_w_gamma_dot^2, sigma_w_v_dot^2], the diagonal of the noise
    intensity that noise_gain maps into Q."""
    return [p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]


def process_noise_cov(s: BikeState, p: ProcessNoiseParams) -> np.ndarray:
    """Q = Gamma(s) diag[sigma_w_gd^2, sigma_w_vd^2] Gamma(s)^T, symmetrized."""
    return _process_noise(noise_gain(s, p.T)[None],
                          np.array([process_noise_variances(p)]))[0]


def ekf_predict_batch(x, P, T, q):
    """Time update of N filters at once: states x (N, 5), covariances
    P (N, 5, 5), step lengths T (N,) and process noise variances q (N, 2)
    as from process_noise_variances, or (1, 2) for every filter.  Returns
    the predicted (x, P).

    Every predicted covariance must be positive semidefinite within 1e-6,
    else NumericalError.
    """
    x_new, F, G = _transition(x, T)
    P_new = _symmetrize(F @ P @ _swap(F) + _process_noise(G, q))
    if (np.linalg.eigvalsh(P_new) < -1e-6).any():
        raise NumericalError("predicted covariance is indefinite")
    return x_new, P_new


def ekf_predict(e: StateEstimate, p: ProcessNoiseParams) -> StateEstimate:
    """Time update: state through the transition, P <- F P F^T + Q."""
    x, P = ekf_predict_batch(e.state.as_array()[None],
                             np.asarray(e.covariance, dtype=float)[None],
                             np.array([p.T], dtype=float),
                             np.array([process_noise_variances(p)]))
    return StateEstimate(BikeState.from_array(x[0]), P[0])


_MEASURED_ROWS = {
    MeasurementKind.POSITION_AND_DEVICE: (0, 1, 3, 4),
    MeasurementKind.DEVICE_ONLY: (3, 4),
    MeasurementKind.POSITION_ONLY: (0, 1),
}


def _selector(rows):
    H = np.zeros((len(rows), STATE_DIM))
    H[range(len(rows)), rows] = 1.0
    return _read_only(H)


# shared by every kernel call, so built once and never written
_H = {kind: _selector(rows) for kind, rows in _MEASURED_ROWS.items()}


def measurement_matrix(kind: MeasurementKind) -> np.ndarray:
    """H for the kind: the rows of the state it measures (read-only)."""
    return _H[kind]


def measurement_noise_variances(kind: MeasurementKind, n: MeasurementNoiseParams,
                                p: ProcessNoiseParams, sigma_v=None):
    """The diagonal of R for the given measurement kind: shape (m,) for one
    sigma_v (or none), (N, m) for an array of N values of sigma_v.

    Device entries are divided by T before squaring when n.r_divide_by_T is
    set (the per-step reading of the device noise); sigma_v comes from the
    velocity estimator and every value must be strictly positive.
    """
    scale = 1.0 / p.T if n.r_divide_by_T else 1.0
    position = []
    if kind in (MeasurementKind.POSITION_AND_DEVICE, MeasurementKind.POSITION_ONLY):
        position = [n.sigma_x ** 2, n.sigma_y ** 2]
    if kind is MeasurementKind.POSITION_ONLY:
        return np.array(position)
    if sigma_v is None:
        raise ValueError("sigma_v required for device measurements")
    sigma_v = np.asarray(sigma_v, dtype=float)
    if not (sigma_v > 0).all():
        raise ValueError("sigma_v must be strictly positive")
    diag = np.empty(sigma_v.shape + (len(position) + 2,))
    diag[..., :-2] = position
    diag[..., -2] = (n.sigma_gamma_dot * scale) ** 2
    diag[..., -1] = _pow2((sigma_v * scale).ravel()).reshape(sigma_v.shape)
    return diag


def measurement_noise_cov(kind: MeasurementKind, n: MeasurementNoiseParams,
                          p: ProcessNoiseParams, sigma_v=None) -> np.ndarray:
    """Diagonal R for the given measurement kind (see
    measurement_noise_variances)."""
    return np.diag(measurement_noise_variances(kind, n, p, sigma_v))


def _measurement_vector(m: Measurement) -> np.ndarray:
    z = []
    if m.position is not None:
        z += [m.position[0], m.position[1]]
    if m.gamma_dot is not None:
        z += [m.gamma_dot, m.v]
    return np.array(z, dtype=float)


def ekf_update_batch(x, P, z, r, kind: MeasurementKind):
    """Measurement update of N filters by measurements of one kind.

    z (N, m) holds the measured components in the order of the rows of
    measurement_matrix(kind) (x, y, gamma_dot, v as present) and r (N, m)
    their noise variances, the diagonal of R, or (1, m) for every filter.
    Returns the updated (x, P), gamma re-wrapped and P symmetrized;
    NumericalError if an innovation covariance has no Cholesky factor.
    """
    _require_finite(x)
    H = _H[kind]
    R = r[:, :, None] * _IDENTITY[len(H)]
    y = z - (H @ x[:, :, None])[:, :, 0]
    S = H @ P @ H.T + R
    try:
        S_chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not invertible") from exc
    # K = P H^T S^-1 via the Cholesky factor
    PHt = P @ H.T
    K = _swap(np.linalg.solve(_swap(S_chol), np.linalg.solve(S_chol, _swap(PHt))))
    x_new = x + (K @ y[:, :, None])[:, :, 0]
    x_new[:, 2] = _wrap_angles(x_new[:, 2])
    IKH = _IDENTITY[STATE_DIM] - K @ H
    P_new = _symmetrize(IKH @ P @ _swap(IKH) + K @ R @ _swap(K))
    return x_new, P_new


def ekf_update(e: StateEstimate, m: Measurement, n: MeasurementNoiseParams,
               p: ProcessNoiseParams) -> StateEstimate:
    """Measurement update; gamma re-wrapped, covariance symmetrized."""
    r = measurement_noise_variances(m.kind, n, p, sigma_v=m.sigma_v)
    x, P = ekf_update_batch(e.state.as_array()[None],
                            np.asarray(e.covariance, dtype=float)[None],
                            _measurement_vector(m)[None], np.array([r]), m.kind)
    return StateEstimate(BikeState.from_array(x[0]), P[0])


def newborn_covariance(n: MeasurementNoiseParams) -> np.ndarray:
    """Initial covariance for a track spawned from a single position fix.

    gamma and v are unobservable from one fix, so their variances are wide:
    (pi/2)^2 for yaw, 1 for yaw rate, 2^2 for speed.
    """
    return np.diag([n.sigma_x ** 2, n.sigma_y ** 2, (math.pi / 2) ** 2, 1.0, 4.0])
