import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack import ekf
from cooptrack.ekf import (EPS_YAW, BikeState, Measurement, MeasurementKind,
                           MeasurementNoiseParams, ProcessNoiseParams,
                           StateEstimate, ekf_predict, ekf_predict_batch,
                           ekf_update, ekf_update_batch, jacobian_f,
                           measurement_noise_cov, newborn_covariance,
                           noise_gain, noisy_transition, predict_state,
                           process_noise_cov, wrap_angle)
from cooptrack.errors import InvalidStateError, NumericalError
from cooptrack.track_manager import ManagerConfig, TrackManager

from oracles import fd_noise_gain, fd_transition_jacobian, rk4_constant_turn

T = 0.02


def random_states(n, rng, min_yaw_rate=1e-3):
    """States away from the yaw-rate singularity and the angle wrap."""
    states = []
    for _ in range(n):
        gamma_dot = rng.uniform(min_yaw_rate, 3.0) * rng.choice([-1.0, 1.0])
        states.append(BikeState(
            x=rng.uniform(-10, 10), y=rng.uniform(-10, 10),
            gamma=rng.uniform(-3.0, 3.0), gamma_dot=gamma_dot,
            v=rng.uniform(0.0, 10.0)))
    return states


class TestPredictState:
    def test_zero_speed_and_yaw_rate_is_fixed_point(self):
        s = predict_state(BikeState(1, 2, 0.5, 0, 0), T)
        assert s == BikeState(1, 2, 0.5, 0, 0)

    def test_straight_line_limit(self):
        s = predict_state(BikeState(0, 0, 0, 0, 1), T)
        assert s.x == pytest.approx(0.02, abs=1e-15)
        assert s.y == 0.0
        assert (s.gamma, s.gamma_dot, s.v) == (0.0, 0.0, 1.0)

    def test_turning_step_against_rk4(self):
        s = predict_state(BikeState(0, 0, 0, math.pi / 2, 2), T)
        x, y, gamma = rk4_constant_turn(0, 0, 0, math.pi / 2, 2, T, step=1e-6)
        assert s.x == pytest.approx(x, abs=1e-7)
        assert s.y == pytest.approx(y, abs=1e-7)
        assert s.gamma == pytest.approx(gamma, abs=1e-12)
        # values quoted for this maneuver
        assert s.x == pytest.approx(0.039993, abs=1e-6)
        assert s.y == pytest.approx(0.000628, abs=1e-6)
        assert s.gamma == pytest.approx(0.031416, abs=1e-6)
        assert s.gamma_dot == math.pi / 2
        assert s.v == 2

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidStateError):
            predict_state(BikeState(math.nan, 0, 0, 0, 1), T)
        with pytest.raises(InvalidStateError):
            predict_state(BikeState(0, 0, 0, math.inf, 1), T)

    def test_non_positive_step_rejected(self):
        with pytest.raises(ValueError):
            predict_state(BikeState(0, 0, 0, 0, 1), 0.0)

    def test_gamma_wrapped_to_half_open_interval(self):
        s = predict_state(BikeState(0, 0, 3.14, 3.0, 1), T)
        assert -math.pi < s.gamma <= math.pi

    def test_singularity_branch_continuity(self):
        # exact formulas evaluated just below the branch threshold
        v, gamma_dot = 3.0, 1e-9
        a_exact = v * math.sin(gamma_dot * T) / gamma_dot
        b_exact = v * (1 - math.cos(gamma_dot * T)) / gamma_dot
        s = predict_state(BikeState(0, 0, 0.3, gamma_dot, v), T)
        cg, sg = math.cos(0.3), math.sin(0.3)
        assert s.x == pytest.approx(cg * a_exact - sg * b_exact, abs=1e-7)
        assert s.y == pytest.approx(sg * a_exact + cg * b_exact, abs=1e-7)

    def test_circular_motion_stays_on_circle(self):
        v, gamma_dot = 2.0, 0.5
        radius = v / gamma_dot
        s = BikeState(0.0, 0.0, 0.0, gamma_dot, v)
        cx, cy = s.x - radius * math.sin(s.gamma), s.y + radius * math.cos(s.gamma)
        for _ in range(600):
            s = predict_state(s, T)
            assert abs(math.hypot(s.x - cx, s.y - cy) - radius) < 1e-6


class TestJacobian:
    def test_straight_line_rows(self):
        F = jacobian_f(BikeState(0, 0, 0, 0, 1), T)
        assert F[0, 4] == pytest.approx(T)
        assert F[0, 2] == 0.0

    def test_yaw_rate_and_speed_rows_are_identity(self):
        rng = np.random.default_rng(7)
        for s in random_states(20, rng):
            F = jacobian_f(s, T)
            assert F[3, 3] == 1.0 and F[4, 4] == 1.0
            np.testing.assert_allclose(F[3], [0, 0, 0, 1, 0])
            np.testing.assert_allclose(F[4], [0, 0, 0, 0, 1])

    def test_matches_finite_differences_at_example_state(self):
        s = BikeState(0, 0, 0.3, 0.7, 1.5)
        np.testing.assert_allclose(jacobian_f(s, T),
                                   fd_transition_jacobian(s, T), atol=1e-6)

    def test_matches_finite_differences_on_ensemble(self):
        rng = np.random.default_rng(42)
        for s in random_states(1000, rng):
            np.testing.assert_allclose(jacobian_f(s, T),
                                       fd_transition_jacobian(s, T), atol=1e-5)


class TestNoiseGain:
    def test_fixed_rows(self):
        rng = np.random.default_rng(3)
        for s in random_states(20, rng):
            G = noise_gain(s, T)
            np.testing.assert_allclose(G[2], [T, 0])
            np.testing.assert_allclose(G[3], [1, 0])
            np.testing.assert_allclose(G[4], [0, T])

    def test_straight_line_acceleration_column(self):
        G = noise_gain(BikeState(0, 0, 0, 0, 1), T)
        assert G[0, 1] == pytest.approx(0.5 * T * T)

    def test_matches_finite_differences_at_example_state(self):
        s = BikeState(0, 0, 0.3, 0.7, 1.5)
        np.testing.assert_allclose(noise_gain(s, T), fd_noise_gain(s, T),
                                   atol=1e-5)

    def test_matches_finite_differences_on_ensemble(self):
        rng = np.random.default_rng(43)
        for s in random_states(1000, rng):
            np.testing.assert_allclose(noise_gain(s, T), fd_noise_gain(s, T),
                                       atol=1e-5)

    def test_noisy_transition_reduces_to_plain_transition(self):
        s = BikeState(1, -2, 0.4, 0.9, 3.0)
        assert noisy_transition(s, [0.0, 0.0], T) == predict_state(s, T)


class TestProcessNoise:
    def test_zero_noise_gives_zero_matrix(self):
        with pytest.raises(ValueError):
            ProcessNoiseParams(sigma_w_gamma_dot=0.0, sigma_w_v_dot=0.0)
        # limit behaviour via vanishing sigmas
        p = ProcessNoiseParams(sigma_w_gamma_dot=1e-12, sigma_w_v_dot=1e-12, T=T)
        Q = process_noise_cov(BikeState(0, 0, 0.3, 0.7, 1.5), p)
        assert np.abs(Q).max() < 1e-20

    def test_yaw_rate_variance_passes_through(self):
        rng = np.random.default_rng(5)
        p = ProcessNoiseParams()
        for s in random_states(20, rng):
            Q = process_noise_cov(s, p)
            assert Q[3, 3] == pytest.approx(p.sigma_w_gamma_dot ** 2)

    def test_full_matrix_matches_triple_product_with_fd_gain(self):
        s = BikeState(0, 0, 0.3, 0.7, 1.5)
        p = ProcessNoiseParams()
        G = fd_noise_gain(s, p.T)
        expected = G @ np.diag([p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]) @ G.T
        np.testing.assert_allclose(process_noise_cov(s, p), expected, atol=1e-5)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(11)
        p = ProcessNoiseParams()
        for s in random_states(50, rng):
            Q = process_noise_cov(s, p)
            np.testing.assert_allclose(Q, Q.T, atol=1e-15)
            assert np.linalg.eigvalsh(Q).min() > -1e-12


class TestEkfPredict:
    def test_zero_covariance_zero_noise_stays_zero(self):
        p = ProcessNoiseParams(sigma_w_gamma_dot=1e-12, sigma_w_v_dot=1e-12, T=T)
        e = StateEstimate(BikeState(0, 0, 0, 0.5, 2), np.zeros((5, 5)))
        out = ekf_predict(e, p)
        assert np.abs(out.covariance).max() < 1e-18

    def test_identity_covariance_matches_hand_multiply(self):
        # straight-line state: F and Gamma have simple closed forms
        p = ProcessNoiseParams()
        v = 1.0
        e = StateEstimate(BikeState(0, 0, 0, 0, v), np.eye(5))
        F = np.eye(5)
        F[0, 4] = T
        F[1, 2] = v * T
        F[1, 3] = 0.5 * v * T * T
        F[2, 3] = T
        G = np.array([[0.0, 0.5 * T * T],
                      [0.5 * v * T * T, 0.0],
                      [T, 0.0],
                      [1.0, 0.0],
                      [0.0, T]])
        Q = G @ np.diag([p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]) @ G.T
        expected = F @ np.eye(5) @ F.T + Q
        np.testing.assert_allclose(ekf_predict(e, p).covariance, expected,
                                   atol=1e-12)

    def test_trace_non_decreasing_without_updates(self):
        p = ProcessNoiseParams()
        e = StateEstimate(BikeState(0, 0, 0.2, 0.4, 3), np.eye(5) * 0.01)
        prev = np.trace(e.covariance)
        for _ in range(50):
            e = ekf_predict(e, p)
            tr = np.trace(e.covariance)
            assert tr >= prev - 1e-12
            prev = tr

    def test_indefinite_covariance_rejected(self):
        p = ProcessNoiseParams()
        P_bad = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
        with pytest.raises(NumericalError):
            ekf_predict(StateEstimate(BikeState(0, 0, 0, 0.1, 1), P_bad), p)

    def test_covariance_hygiene_over_long_run(self):
        p = ProcessNoiseParams()
        n = MeasurementNoiseParams()
        rng = np.random.default_rng(17)
        e = StateEstimate(BikeState(0, 0, 0, 0.3, 2), newborn_covariance(n))
        for i in range(200):
            e = ekf_predict(e, p)
            if i % 3 == 0:
                m = Measurement.position_only(e.state.x + rng.normal(0, 0.1),
                                              e.state.y + rng.normal(0, 0.1))
                e = ekf_update(e, m, n, p)
            P = e.covariance
            assert np.abs(P - P.T).max() < 1e-9
            assert np.linalg.eigvalsh(P).min() > -1e-9


class TestEkfUpdate:
    def test_zero_residual_keeps_state_and_shrinks_covariance(self):
        p, n = ProcessNoiseParams(), MeasurementNoiseParams()
        P0 = np.diag([1.0, 1.0, 0.5, 0.5, 0.5])
        s = BikeState(1.0, 2.0, 0.3, 0.2, 4.0)
        e = ekf_update(StateEstimate(s, P0),
                       Measurement.position_only(1.0, 2.0), n, p)
        assert e.state == s
        H = np.zeros((2, 5))
        H[0, 0] = H[1, 1] = 1.0
        shrink = H @ (P0 - e.covariance) @ H.T
        assert np.linalg.eigvalsh(shrink).min() > -1e-12

    def test_infinite_noise_limit_keeps_state(self):
        p = ProcessNoiseParams()
        n = MeasurementNoiseParams(sigma_x=1e9, sigma_y=1e9)
        s = BikeState(0.0, 0.0, 0.1, 0.2, 3.0)
        e = ekf_update(StateEstimate(s, np.eye(5)),
                       Measurement.position_only(5.0, -4.0), n, p)
        np.testing.assert_allclose(e.state.as_array(), s.as_array(), atol=1e-6)

    def test_scalar_case_matches_hand_kalman_update(self):
        # only x uncertain, measured with sigma_x = 1: posterior variance 0.5,
        # mean moves halfway to the measurement
        p = ProcessNoiseParams()
        n = MeasurementNoiseParams(sigma_x=1.0, sigma_y=1.0)
        e0 = StateEstimate(BikeState(0.0, 0.0, 0.0, 0.0, 0.0),
                           np.diag([1.0, 0.0, 0.0, 0.0, 0.0]))
        e = ekf_update(e0, Measurement.position_only(2.0, 0.0), n, p)
        assert e.state.x == pytest.approx(1.0, abs=1e-12)
        assert e.covariance[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_device_only_has_zero_position_columns(self):
        # with zero cross-covariance a device update cannot move the position
        p, n = ProcessNoiseParams(), MeasurementNoiseParams()
        P0 = np.diag([0.5, 0.5, 0.3, 0.8, 0.8])
        s = BikeState(3.0, -1.0, 0.2, 0.1, 2.0)
        e = ekf_update(StateEstimate(s, P0),
                       Measurement.device_only(0.9, 4.0, sigma_v=0.3), n, p)
        assert e.state.x == s.x and e.state.y == s.y
        assert (e.state.gamma_dot, e.state.v) != (s.gamma_dot, s.v)

    def test_r_division_by_step(self):
        p = ProcessNoiseParams()
        n = MeasurementNoiseParams()
        R = measurement_noise_cov(MeasurementKind.POSITION_AND_DEVICE, n, p,
                                  sigma_v=0.4)
        np.testing.assert_allclose(
            np.diag(R),
            [0.15 ** 2, 0.15 ** 2, (0.3 / p.T) ** 2, (0.4 / p.T) ** 2])
        n_flat = MeasurementNoiseParams(r_divide_by_T=False)
        R_flat = measurement_noise_cov(MeasurementKind.DEVICE_ONLY, n_flat, p,
                                       sigma_v=0.4)
        np.testing.assert_allclose(np.diag(R_flat), [0.3 ** 2, 0.4 ** 2])

    def test_gamma_renormalized(self):
        p, n = ProcessNoiseParams(), MeasurementNoiseParams()
        e0 = StateEstimate(BikeState(0.0, 0.0, 3.0, 0.0, 0.0), np.eye(5))
        e = ekf_update(e0, Measurement.position_only(0.0, 0.0), n, p)
        assert -math.pi < e.state.gamma <= math.pi


def random_batch(n, rng):
    """States (half of them straight-line) with SPD covariances."""
    x = np.array([s.as_array() for s in random_states(n, rng)])
    x[::2, 3] = rng.uniform(-1e-7, 1e-7, size=len(x[::2]))
    A = rng.normal(size=(n, 5, 5))
    return x, A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(5)


class TestBatchKernels:
    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(31)
        p, n = ProcessNoiseParams(), MeasurementNoiseParams()
        x, P = random_batch(12, rng)
        T_steps = rng.uniform(0.005, 0.05, size=12)
        q = np.array([[p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]] * 12)
        xb, Pb = ekf_predict_batch(x, P, T_steps, q)
        for k in range(12):
            pk = ProcessNoiseParams(T=T_steps[k])
            one = ekf_predict(StateEstimate(BikeState.from_array(x[k]), P[k]), pk)
            assert (one.state.as_array() == xb[k]).all()
            assert (one.covariance == Pb[k]).all()
        z = rng.normal(size=(12, 4))
        sigma_v = rng.uniform(0.1, 1.0, size=12)
        r = np.array([measurement_noise_cov(MeasurementKind.POSITION_AND_DEVICE,
                                            n, p, sigma_v=sv).diagonal()
                      for sv in sigma_v])
        xu, Pu = ekf_update_batch(xb, Pb, z, r, MeasurementKind.POSITION_AND_DEVICE)
        for k in range(12):
            m = Measurement.position_and_device(*z[k], sigma_v=sigma_v[k])
            one = ekf_update(StateEstimate(BikeState.from_array(xb[k]), Pb[k]),
                             m, n, p)
            assert (one.state.as_array() == xu[k]).all()
            assert (one.covariance == Pu[k]).all()

    def test_one_indefinite_covariance_fails_the_batch(self):
        rng = np.random.default_rng(32)
        p = ProcessNoiseParams()
        x, P = random_batch(6, rng)
        P[4] = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
        q = np.array([[p.sigma_w_gamma_dot ** 2, p.sigma_w_v_dot ** 2]] * 6)
        with pytest.raises(NumericalError):
            ekf_predict_batch(x, P, np.full(6, T), q)


class TestMeasurementValidation:
    def test_fields_present_iff_kind_requires(self):
        with pytest.raises(ValueError):
            Measurement(MeasurementKind.POSITION_ONLY)
        with pytest.raises(ValueError):
            Measurement(MeasurementKind.DEVICE_ONLY, position=(0, 0),
                        gamma_dot=0.1, v=1.0, sigma_v=0.1)
        with pytest.raises(ValueError):
            Measurement(MeasurementKind.POSITION_AND_DEVICE, position=(0, 0))
        with pytest.raises(ValueError):
            Measurement.device_only(0.1, 1.0, sigma_v=0.0)

    def test_constructors(self):
        m = Measurement.position_and_device(1, 2, 0.3, 4.0, 0.2, timestamp=1.5)
        assert m.kind is MeasurementKind.POSITION_AND_DEVICE
        assert m.timestamp == 1.5


class TestWrapAngle:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-0.1, -0.1),
    ])
    def test_known_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_range_over_random_angles(self):
        rng = np.random.default_rng(9)
        for angle in rng.uniform(-50, 50, size=500):
            w = wrap_angle(angle)
            assert -math.pi < w <= math.pi
            # same point on the circle
            assert math.cos(w) == pytest.approx(math.cos(angle), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(angle), abs=1e-9)


class TestEdgeProperties:
    """Hypothesis properties at the yaw-rate switch and over long coasts."""

    @given(gamma=st.floats(-3.0, 3.0), v=st.floats(-20.0, 20.0),
           step=st.one_of(st.just(T), st.floats(1e-3, 4.0)),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_transition_continuous_across_eps_yaw(self, gamma, v, step, sign):
        # just above EPS_YAW the exact arc formulas apply, just below their
        # straight-line limits; the limits drop terms of first order in
        # gamma_dot, each at most (1 + |v|) (T + T^3) gamma_dot in size, so
        # the state change, F and G may jump by no more than that at the
        # switch
        x = np.array([[1.0, -2.0, gamma, sign * EPS_YAW * (1 + 1e-3), v],
                      [1.0, -2.0, gamma, sign * EPS_YAW * (1 - 1e-3), v]])
        x_new, F, G = ekf._transition(x, np.array([step, step]))
        tol = EPS_YAW * (1 + abs(v)) * (step + step ** 3)
        change = x_new - x
        jump = change[0] - change[1]
        jump[2] = wrap_angle(jump[2])
        assert np.abs(jump).max() <= tol
        assert np.abs(F[0] - F[1]).max() <= tol
        assert np.abs(G[0] - G[1]).max() <= tol

    @given(k=st.integers(2, 200), start=st.integers(0, 3000),
           gamma=st.floats(-3.0, 3.0),
           gamma_dot=st.one_of(st.floats(-1.0, 1.0), st.floats(-2e-6, 2e-6)),
           v=st.floats(0.0, 12.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_long_coast_matches_single_step_predicts(self, k, start, gamma,
                                                     gamma_dot, v):
        # a track that gets no detection for k frames is predicted over
        # dt = k T in one step; it must land where k predicts of T take it,
        # within 1e-11 (1 + |value|): it takes the same T sub-steps, and only
        # the last differs from T, by the rounding of t0 + k T
        p = ProcessNoiseParams()
        # a timeout past the longest coast, which the 2 s default would end
        manager = TrackManager(ManagerConfig(gate_distance=2.0, miss_ratio_max=0.5,
                                             update_timeout=10.0, min_valid_age=4), p)
        t0 = start * p.T
        manager.step([(1.0, -2.0)], t0)
        [track] = manager.tracks
        track.x = [1.0, -2.0, gamma, gamma_dot, v]
        expected = StateEstimate(BikeState.from_array(track.x), track.P)
        for _ in range(k):
            expected = ekf_predict(expected, p)
        manager.step([], t0 + k * p.T)
        [coasted] = manager.tracks
        x, x_ref = coasted.x, expected.state.as_array()
        x[2] = x_ref[2] + wrap_angle(x[2] - x_ref[2])
        np.testing.assert_allclose(x, x_ref, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(coasted.P, expected.covariance,
                                   rtol=1e-11, atol=1e-11)
