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


# identity matrices of the kernels (the measurement slots, the state),
# built once and never written
_IDENTITY = {m: _read_only(np.eye(m)) for m in (4, STATE_DIM)}


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
        for name in ("sigma_w_gamma_dot", "sigma_w_v_dot", "T"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")


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
        for name in ("sigma_x", "sigma_y", "sigma_gamma_dot"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    @property
    def position_variances(self):
        """[sigma_x^2, sigma_y^2], the noise of one position fix."""
        return [self.sigma_x ** 2, self.sigma_y ** 2]


class MeasurementKind(Enum):
    POSITION_AND_DEVICE = "position_and_device"
    DEVICE_ONLY = "device_only"
    POSITION_ONLY = "position_only"


@dataclass(frozen=True)
class Measurement:
    """One fused observation: a position fix, a device reading or both.

    Its kind follows from the fields that are set; the device fields
    gamma_dot, v and sigma_v come all together or not at all.
    """

    position: tuple | None = None    # (x, y) in m
    gamma_dot: float | None = None   # rad/s
    v: float | None = None           # m/s
    sigma_v: float | None = None     # m/s

    def __post_init__(self):
        device = [f is not None for f in (self.gamma_dot, self.v, self.sigma_v)]
        if any(device) and not all(device):
            raise ValueError("gamma_dot, v and sigma_v must be set together")
        if self.position is None and not all(device):
            raise ValueError("a measurement needs a position, a device reading or both")
        if self.sigma_v is not None and not self.sigma_v > 0:
            raise ValueError("sigma_v must be strictly positive")

    @property
    def kind(self) -> MeasurementKind:
        if self.position is None:
            return MeasurementKind.DEVICE_ONLY
        if self.sigma_v is None:
            return MeasurementKind.POSITION_ONLY
        return MeasurementKind.POSITION_AND_DEVICE


def _require_finite(x):
    """InvalidStateError unless every row of x (N, 5) is finite."""
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite.all(axis=1)
        raise InvalidStateError(
            f"non-finite state: {BikeState.from_array(x[bad.argmax()])}")


def _pow2(values):
    """values ** 2 per element through libm pow, as Python's float ** 2.

    pow and x * x round differently on some inputs, and chaotic lanes
    carry a one-ulp difference into the printed results; numpy's `** 2`
    and `np.power` are x * x, `np.float_power` calls pow.
    """
    return np.float_power(values, 2.0)


def _wrap_angles(angles):
    """wrap_angle of each element, called only for those outside (-pi, pi]."""
    wrapped = angles.copy()
    outside = (angles > math.pi) | (angles <= -math.pi)
    if np.count_nonzero(outside):
        wrapped[outside] = [wrap_angle(angle) for angle in angles[outside].tolist()]
    return wrapped


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
    if np.count_nonzero(T > 0) < len(T):
        raise ValueError("T must be positive")
    _require_finite(x)
    gamma, gamma_dot, v = x[:, 2], x[:, 3], x[:, 4]
    straight = np.abs(gamma_dot) < EPS_YAW
    gd = np.where(straight, 1.0, gamma_dot)     # straight rows take the limits
    wt = gd * T
    sin_wt = np.sin(wt)
    sin_half_sq = _pow2(np.sin(0.5 * wt))
    inv = 1.0 / gd
    # d a / d v and d b / d v, with 1 - cos(wt) as 2 sin^2(wt/2)
    d_dv = np.array([sin_wt, 2.0 * sin_half_sq]) * inv
    # a and b, the arc's displacement along and across the heading, and
    # their derivatives by the acceleration noise (T / 2 in place of v)
    v_half_T = np.array([v, 0.5 * T])
    a_ends = v_half_T * sin_wt / gd
    b_ends = v_half_T * 2.0 * sin_half_sq / gd
    # d a / d gamma_dot and d b / d gamma_dot
    d_dgd = v * (T * np.array([np.cos(wt), sin_wt]) - d_dv) * inv
    # columns: a (along heading) or b (lateral), then its derivatives by
    # gamma_dot, by v and by the acceleration noise
    along = _columns(a_ends[0], d_dgd[0], d_dv[0], a_ends[1])
    lateral = _columns(b_ends[0], d_dgd[1], d_dv[1], b_ends[1])
    if np.count_nonzero(straight):
        # the second-order Taylor limits at gamma_dot -> 0
        zero = np.zeros_like(T)
        along = np.where(straight[:, None],
                         _columns(v * T, zero, T, 0.5 * T * T), along)
        lateral = np.where(straight[:, None],
                           _columns(zero, 0.5 * v * T * T, zero, zero), lateral)
    cg, sg = np.cos(gamma), np.sin(gamma)
    # the same columns rotated into east (row 0) and north (row 1):
    # cg a - sg b and sg a + cg b, as a + (-b) is a - b bit for bit
    turn_a = _columns(cg, sg)[:, :, None] * along[:, None]
    turn_b = _columns(-sg, cg)[:, :, None] * lateral[:, None]
    east_north = turn_a + turn_b

    x_new = x.copy()
    x_new[:, :2] = x[:, :2] + turn_a[:, :, 0] + turn_b[:, :, 0]
    x_new[:, 2] = _wrap_angles(gamma + gamma_dot * T)

    F = _IDENTITY[STATE_DIM][None].repeat(len(x), axis=0)
    F[:, 0, 2] = -east_north[:, 1, 0]     # d(x, y) / d gamma: (-north a, east a)
    F[:, 1, 2] = east_north[:, 0, 0]
    F[:, :2, 3:] = east_north[:, :, 1:3]
    F[:, 2, 3] = T
    G = np.zeros((len(x), STATE_DIM, 2))
    G[:, :2] = east_north[:, :, 1::2]
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


def jacobian_f(s: BikeState, T: float) -> np.ndarray:
    """Jacobian of the noise-free transition, evaluated at s."""
    return _one(s, T)[1][0]


def noise_gain(s: BikeState, T: float) -> np.ndarray:
    """Jacobian of the noisy transition w.r.t. the noise, at w = 0 (5x2)."""
    return _one(s, T)[2][0]


def _symmetrize(P):
    return 0.5 * (P + P.mT)


def _process_noise(G, q):
    """Q = Gamma diag(q) Gamma^T per row, symmetrized; q (N, 2) holds
    [sigma_w_gd^2, sigma_w_vd^2]."""
    return _symmetrize((G * q[:, None, :]) @ G.mT)


def process_noise_variances(p: ProcessNoiseParams):
    """[sigma_w_gamma_dot^2, sigma_w_v_dot^2], the diagonal of the noise
    intensity that noise_gain maps into Q."""
    return [p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]


def ekf_predict_batch(x, P, T, q):
    """Time update of N filters at once: states x (N, 5), covariances
    P (N, 5, 5), step lengths T (N,) and process noise variances q (N, 2)
    as from process_noise_variances, or (1, 2) for every filter.  Returns
    the predicted (x, P).

    Every predicted covariance must be positive semidefinite within 1e-6,
    else NumericalError.
    """
    x_new, F, G = _transition(x, T)
    P_new = _symmetrize(F @ P @ F.mT + _process_noise(G, q))
    _require_psd(P_new)
    return x_new, P_new


def _require_psd(P):
    """NumericalError unless every eigenvalue of each P (N, 5, 5) is at or
    above -1e-6.  P + 1e-6 I has a Cholesky factor when they are above it, so
    one batched Cholesky clears a batch; eigvalsh decides when it fails."""
    try:
        np.linalg.cholesky(P + 1e-6 * _IDENTITY[STATE_DIM])
    except np.linalg.LinAlgError:
        if (np.linalg.eigvalsh(P) < -1e-6).any():
            raise NumericalError("predicted covariance is indefinite") from None


def ekf_predict(e: StateEstimate, p: ProcessNoiseParams) -> StateEstimate:
    """Time update: state through the transition, P <- F P F^T + Q."""
    x, P = ekf_predict_batch(e.state.as_array()[None],
                             np.asarray(e.covariance, dtype=float)[None],
                             np.array([p.T], dtype=float),
                             np.array([process_noise_variances(p)]))
    return StateEstimate(BikeState.from_array(x[0]), P[0])


# the state rows a measurement can observe, in slot order: x, y, gamma_dot, v
MEASURED = _read_only(np.array([0, 1, 3, 4]))
# H of a measurement that observes every slot
_H = _read_only(np.eye(STATE_DIM)[MEASURED])


def measurement_noise_variances(n: MeasurementNoiseParams, p: ProcessNoiseParams,
                                sigma_v):
    """The diagonal of R over the slots (x, y, gamma_dot, v) of MEASURED:
    shape (4,) for one sigma_v, (N, 4) for an array of N values.

    The device entries are divided by T before squaring when
    n.r_divide_by_T is set (the per-step reading of the device noise);
    sigma_v comes from the velocity estimator and every value must be
    strictly positive.  The position entries do not depend on sigma_v.
    """
    sigma_v = np.asarray(sigma_v, dtype=float)
    if not (sigma_v > 0).all():
        raise ValueError("sigma_v must be strictly positive")
    scale = 1.0 / p.T if n.r_divide_by_T else 1.0
    diag = np.empty(sigma_v.shape + (len(MEASURED),))
    diag[..., :2] = n.position_variances
    diag[..., 2] = (n.sigma_gamma_dot * scale) ** 2
    diag[..., 3] = _pow2(sigma_v * scale)
    return diag


def ekf_update_masked(x, P, z, r, observed):
    """Measurement update of N filters, each by the slots it observes.

    z (N, 4) holds the values of the slots (x, y, gamma_dot, v) of
    MEASURED, r (N, 4) their noise variances (the diagonal of R) and
    observed (N, 4) which slots each row has.  An absent slot gets a zero
    row of H, a zero residual and unit noise, so each row ends as an update
    by its observed slots alone would leave it.  Returns the updated (x, P),
    gamma re-wrapped and P symmetrized; NumericalError if an innovation
    covariance has no Cholesky factor.
    """
    _require_finite(x)
    H = observed[:, :, None] * _H
    y = np.where(observed, z - x.take(MEASURED, axis=1), 0.0)
    r = np.where(observed, r, 1.0)
    PHt = P @ H.mT
    S = H @ PHt + r[:, :, None] * _IDENTITY[4]
    try:
        S_chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not invertible") from exc
    # K^T = S^-1 H P via the Cholesky factor
    Kt = np.linalg.solve(S_chol.mT, np.linalg.solve(S_chol, PHt.mT))
    K = Kt.mT
    # K y with each row's observed slots first: BLAS's matrix-vector kernel
    # rounds differently when zero terms lead, but not when they trail
    first = (~observed).argsort(axis=1, kind="stable")
    picked = np.arange(len(x))[:, None], first
    x_new = x + (Kt[picked].mT @ y[picked][:, :, None])[:, :, 0]
    x_new[:, 2] = _wrap_angles(x_new[:, 2])
    IKH = _IDENTITY[STATE_DIM] - K @ H
    P_new = _symmetrize(IKH @ P @ IKH.mT + (K * r[:, None, :]) @ Kt)
    return x_new, P_new


def ekf_update(e: StateEstimate, m: Measurement, n: MeasurementNoiseParams,
               p: ProcessNoiseParams) -> StateEstimate:
    """Measurement update; gamma re-wrapped, covariance symmetrized."""
    observed = np.repeat([[m.position is not None, m.gamma_dot is not None]], 2, axis=1)
    z = np.array([[*(m.position or (0.0, 0.0)), m.gamma_dot or 0.0, m.v or 0.0]])
    # the update ignores the noise of absent slots
    r = measurement_noise_variances(n, p, m.sigma_v or 1.0)[None]
    x, P = ekf_update_masked(e.state.as_array()[None],
                             np.asarray(e.covariance, dtype=float)[None],
                             z, r, observed)
    return StateEstimate(BikeState.from_array(x[0]), P[0])


def newborn_covariance(n: MeasurementNoiseParams) -> np.ndarray:
    """Initial covariance for a track spawned from a single position fix.

    gamma and v are unobservable from one fix, so their variances are wide:
    (pi/2)^2 for yaw, 1 for yaw rate, 2^2 for speed.
    """
    return np.diag([*n.position_variances, (math.pi / 2) ** 2, 1.0, 4.0])
