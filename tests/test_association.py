import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cooptrack.association import (CostMatrix, DeviceResidual, assign_device,
                                   device_residual, gated_cost_matrix,
                                   munkres_solve, penalized_mahalanobis)
from cooptrack.ekf import (BikeState, MeasurementNoiseParams,
                           ProcessNoiseParams, StateEstimate)
from cooptrack.errors import NumericalError

from oracles import brute_force_assignment


def total_cost(cost, pairs):
    return sum(cost[r, c] for r, c in pairs)


class TestMunkres:
    def test_diagonal_optimum(self):
        pairs = munkres_solve(CostMatrix(np.array([[0.0, 9.0], [9.0, 0.0]])))
        assert pairs == [(0, 0), (1, 1)]

    def test_single_cell(self):
        assert munkres_solve(CostMatrix(np.array([[5.0]]))) == [(0, 0)]

    def test_all_forbidden_returns_empty(self):
        cm = CostMatrix(np.ones((3, 3)), forbidden=np.ones((3, 3), dtype=bool))
        assert munkres_solve(cm) == []

    def test_empty_matrix(self):
        assert munkres_solve(CostMatrix(np.empty((0, 4)))) == []

    def test_matches_brute_force_on_random_5x5(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            cost = rng.random((5, 5))
            pairs = munkres_solve(CostMatrix(cost))
            best, _ = brute_force_assignment(cost)
            assert total_cost(cost, pairs) == pytest.approx(best, abs=1e-12)

    def test_matches_brute_force_on_random_rectangular(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            shape = rng.integers(1, 8, size=2)
            cost = rng.random(shape)
            pairs = munkres_solve(CostMatrix(cost))
            assert len(pairs) == min(shape)
            best, _ = brute_force_assignment(cost)
            assert total_cost(cost, pairs) == pytest.approx(best, abs=1e-12)

    def test_forbidden_pairs_never_assigned(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            cost = rng.random((4, 4))
            forbidden = rng.random((4, 4)) < 0.4
            pairs = munkres_solve(CostMatrix(cost, forbidden=forbidden))
            for r, c in pairs:
                assert not forbidden[r, c]

    def test_row_and_column_shift_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            cost = rng.random((5, 5))
            base = munkres_solve(CostMatrix(cost))
            shifted = cost.copy()
            shifted[2, :] += 3.7
            shifted[:, 4] += 1.3
            assert munkres_solve(CostMatrix(shifted)) == base

    def test_single_row_or_column_matches_linear_sum_assignment(self):
        # the argmin fast path against the solver it stands in for, on
        # tie-heavy costs with forbidden cells (sentinel cost as in the solver)
        rng = np.random.default_rng(104)
        for _ in range(500):
            k = int(rng.integers(1, 7))
            shape = (1, k) if rng.random() < 0.5 else (k, 1)
            cost = rng.integers(0, 3, size=shape).astype(float)
            forbidden = rng.random(shape) < 0.3
            cm = CostMatrix(cost, forbidden=forbidden)
            allowed = ~forbidden
            expected = []
            if allowed.any():
                sentinel = (abs(cost[allowed].max()) + 1.0) * 2
                rows, cols = linear_sum_assignment(np.where(allowed, cost, sentinel))
                expected = [(int(r), int(c)) for r, c in zip(rows, cols)
                            if allowed[r, c]]
            assert munkres_solve(cm) == expected

    def test_rejects_nan_in_allowed_cells(self):
        cost = np.array([[1.0, np.nan], [0.5, 2.0]])
        with pytest.raises(ValueError):
            CostMatrix(cost)
        # the same NaN is fine when the cell is forbidden
        cm = CostMatrix(cost, forbidden=np.array([[False, True],
                                                  [False, False]]))
        assert munkres_solve(cm) == [(0, 0), (1, 1)]


class TestPenalizedMahalanobis:
    def test_zero_residual_identity_covariance(self):
        assert penalized_mahalanobis(DeviceResidual(np.zeros(2), np.eye(2))) == 0.0

    def test_unit_residual_identity_covariance(self):
        d = penalized_mahalanobis(DeviceResidual(np.array([1.0, 0.0]), np.eye(2)))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_value(self):
        d = penalized_mahalanobis(DeviceResidual(np.array([2.0, 1.0]),
                                                 np.diag([4.0, 1.0])))
        assert d == pytest.approx(math.sqrt(1.0 + 1.0 + math.log(4.0)), abs=1e-12)

    def test_negative_radicand_clamped_to_zero(self):
        # tiny determinant drives the log penalty below zero
        d = penalized_mahalanobis(DeviceResidual(np.zeros(2),
                                                 np.eye(2) * 1e-6))
        assert d == 0.0

    def test_non_positive_definite_rejected(self):
        with pytest.raises(NumericalError):
            penalized_mahalanobis(DeviceResidual(np.zeros(2),
                                                 np.array([[1.0, 2.0],
                                                           [2.0, 1.0]])))

    @given(y0=st.floats(-5, 5), y1=st.floats(-5, 5),
           s0=st.floats(0.1, 10), corr=st.floats(-0.9, 0.9))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_reduces_to_mahalanobis_when_det_is_one(self, y0, y1, s0, corr):
        # scale a random SPD matrix to unit determinant
        S = np.array([[s0, corr * s0], [corr * s0, s0]])
        S = S / math.sqrt(np.linalg.det(S))
        y = np.array([y0, y1])
        d = penalized_mahalanobis(DeviceResidual(y, S))
        plain_sq = float(y @ np.linalg.solve(S, y))
        # compare squared distances: sqrt amplifies rounding near zero
        assert d ** 2 == pytest.approx(plain_sq, abs=1e-9)


def make_estimate(gamma_dot, v, var=0.1):
    state = BikeState(0.0, 0.0, 0.0, gamma_dot, v)
    return StateEstimate(state, np.eye(5) * var)


class TestAssignDevice:
    def setup_method(self):
        self.noise = MeasurementNoiseParams(r_divide_by_T=False)
        self.process = ProcessNoiseParams()

    def test_empty_track_list(self):
        assert assign_device(0.1, 2.0, 0.3, [], self.noise, self.process) is None

    def test_single_matching_track_chosen(self):
        tracks = [make_estimate(0.1, 2.0, var=1.0)]   # det S >= 1
        idx = assign_device(0.1, 2.0, 0.3, tracks, self.noise, self.process,
                            gate=5.0)
        assert idx == 0

    def test_determinant_penalty_prefers_confident_track(self):
        # identical residuals; the second track carries a larger covariance
        tracks = [make_estimate(0.1, 2.0, var=0.5),
                  make_estimate(0.1, 2.0, var=50.0)]
        d_small = penalized_mahalanobis(
            device_residual(0.1, 2.0, 0.3, tracks[0], self.noise, self.process))
        d_large = penalized_mahalanobis(
            device_residual(0.1, 2.0, 0.3, tracks[1], self.noise, self.process))
        assert d_small < d_large
        idx = assign_device(0.1, 2.0, 0.3, tracks, self.noise, self.process,
                            gate=50.0)
        assert idx == 0

    def test_gate_rejects_distant_measurement(self):
        tracks = [make_estimate(0.0, 0.0, var=0.01)]
        idx = assign_device(3.0, 9.0, 0.1, tracks, self.noise, self.process,
                            gate=5.0)
        assert idx is None

    def test_permutation_invariance_with_lowest_index_ties(self):
        rng = np.random.default_rng(200)
        tracks = [make_estimate(rng.normal(0, 1), rng.uniform(0, 5),
                                var=rng.uniform(0.05, 2.0)) for _ in range(6)]
        idx = assign_device(0.2, 2.5, 0.3, tracks, self.noise, self.process,
                            gate=100.0)
        perm = [3, 1, 5, 0, 4, 2]
        idx_perm = assign_device(0.2, 2.5, 0.3, [tracks[i] for i in perm],
                                 self.noise, self.process, gate=100.0)
        assert perm[idx_perm] == idx
        # exact ties break to the lowest index
        twins = [make_estimate(0.1, 2.0), make_estimate(0.1, 2.0)]
        assert assign_device(0.1, 2.0, 0.3, twins, self.noise, self.process,
                             gate=100.0) == 0


class TestGatedCostMatrix:
    def test_distances_and_gate(self):
        cm = gated_cost_matrix([(0.0, 0.0), (10.0, 0.0)], [(3.0, 4.0)], gate=6.0)
        assert cm.cost[0, 0] == pytest.approx(5.0)
        assert not cm.forbidden[0, 0]
        assert cm.forbidden[1, 0]
