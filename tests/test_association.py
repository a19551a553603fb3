import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cooptrack.association import (CostMatrix, DeviceResidual, assign_device,
                                   device_distances, gated_cost_matrix,
                                   munkres_solve, penalized_mahalanobis,
                                   penalized_mahalanobis_batch)
from cooptrack.ekf import (BikeState, MeasurementNoiseParams, ProcessNoiseParams,
                           StateEstimate, measurement_noise_variances)
from cooptrack.errors import NumericalError

from oracles import brute_force_assignment, penalized_mahalanobis_cholesky


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


class TestDeviceDistances:
    """Each row of device_distances is penalized_mahalanobis of that row's
    residual and innovation covariance, bit for bit."""

    @given(n=st.integers(1, 8), twins=st.lists(st.integers(0, 7), max_size=4),
           near_singular=st.lists(st.booleans(), min_size=8, max_size=8),
           ridge=st.sampled_from([0.0, 1e-12, 1e-6]),
           sigma_v=st.floats(1e-4, 3.0), divide_by_T=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rows_equal_the_scalar_distance(self, n, twins, near_singular, ridge,
                                            sigma_v, divide_by_T, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5)) * [50.0, 50.0, 3.0, 2.0, 8.0]
        A = rng.normal(size=(n, 5, 5)) * rng.uniform(0.01, 3.0, (n, 1, 1))
        P = A @ A.mT
        # near-singular (gamma_dot, v) blocks: rank one plus a tiny ridge
        u = rng.normal(size=(n, 2, 1)) * rng.uniform(0.1, 30.0, (n, 1, 1))
        singular = np.array(near_singular[:n])
        P[singular, 3:5, 3:5] = (u @ u.mT + ridge * np.eye(2))[singular]
        z = x[:, 3:5] + rng.normal(size=(n, 2)) * [0.5, 2.0]
        r = measurement_noise_variances(
            MeasurementNoiseParams(r_divide_by_T=divide_by_T), ProcessNoiseParams(),
            sigma_v * rng.uniform(0.5, 2.0, n))[:, 2:]
        # ties: exact copies of some rows
        copies = [k for k in twins if k < n]
        z, x, P, r = (np.concatenate([a, a[copies]]) for a in (z, x, P, r))
        distance = device_distances(z, x, P, r)
        for k, d in enumerate(distance.tolist()):
            S = P[k, 3:5, 3:5] + np.diag(r[k])
            assert d == penalized_mahalanobis(DeviceResidual(z[k] - x[k, 3:5], S))
        assert np.array_equal(distance[n:], distance[copies])
        # one noise row for every reading broadcasts as its copies would
        assert np.array_equal(device_distances(z, x, P, r[0]),
                              device_distances(z, x, P, np.tile(r[0], (len(r), 1))))


def rotated_blocks(lam0, lam1, theta):
    """2x2 blocks R(theta) diag(lam0, lam1) R(theta)^T, exactly symmetric."""
    c, s = np.cos(theta), np.sin(theta)
    s00 = lam0 * c * c + lam1 * s * s
    s11 = lam0 * s * s + lam1 * c * c
    s01 = (lam0 - lam1) * c * s
    return np.stack([np.stack([s00, s01], -1), np.stack([s01, s11], -1)], -2)


# blocks reach condition number COND_MAX; l11^2 = S11 - l10^2 then loses up
# to about log2(COND_MAX) bits to cancellation in either factorisation
COND_MAX = 1e8
RTOL = 64 * np.finfo(float).eps * COND_MAX


class TestWrittenOutCholesky:
    """penalized_mahalanobis_batch, the 2x2 Cholesky factor written out,
    against numpy's batched Cholesky factor and solve."""

    @given(blocks=st.lists(st.tuples(st.floats(-3, 3), st.floats(0, math.log10(COND_MAX)),
                                     st.floats(0, 2 * math.pi), st.floats(-1, 1),
                                     st.floats(-1, 1)), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_cholesky_solve_reference(self, blocks):
        scale_exp, cond_exp, theta, w0, w1 = np.array(blocks).T
        lam0 = 10.0 ** scale_exp
        S = rotated_blocks(lam0, lam0 * 10.0 ** -cond_exp, theta)
        # residuals from well inside the gate to far outside it
        y = np.column_stack([w0, w1]) * 10.0 * np.sqrt(lam0)[:, None]
        got = penalized_mahalanobis_batch(y, S)
        ref = penalized_mahalanobis_cholesky(y, S)
        # the squared distance is y^T S^-1 y + ln det S clamped at 0; both
        # terms are bounded by ref^2 + 2 |ln det S|
        bound = RTOL * (1.0 + ref ** 2 + 2.0 * np.abs(np.linalg.slogdet(S)[1]))
        assert (np.abs(got ** 2 - ref ** 2) <= bound).all()

    @given(good=st.integers(0, 4), bad=st.sampled_from(["indefinite", "negative_s00",
                                                         "zero"]),
           scale_exp=st.floats(-3, 3), cond_exp=st.floats(0, 6),
           theta=st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_same_non_positive_definite_blocks_rejected(self, good, bad, scale_exp,
                                                        cond_exp, theta):
        lam0 = 10.0 ** scale_exp
        S = rotated_blocks(np.full(good + 1, lam0), np.full(good + 1, lam0 / 2),
                           np.full(good + 1, theta))
        if bad == "indefinite":
            S[good] = rotated_blocks(lam0, -lam0 * 10.0 ** -cond_exp, theta)
        elif bad == "negative_s00":
            S[good, 0, 0] = -lam0
        else:
            S[good] = 0.0
        y = np.ones((good + 1, 2))
        with pytest.raises(NumericalError):
            penalized_mahalanobis_batch(y, S)
        with pytest.raises(NumericalError):
            penalized_mahalanobis_cholesky(y, S)
        # the good blocks alone pass both
        if good:
            penalized_mahalanobis_batch(y[:good], S[:good])
            penalized_mahalanobis_cholesky(y[:good], S[:good])

    @pytest.mark.parametrize("cells", [[(0, 0)], [(1, 0), (0, 1)], [(1, 1)]])
    def test_nan_block_rejected(self, cells):
        S = np.array([np.eye(2), 2.0 * np.eye(2)])
        for i, j in cells:
            S[1, i, j] = np.nan
        y = np.ones((2, 2))
        with pytest.raises(NumericalError):
            penalized_mahalanobis_batch(y, S)
        # numpy's factorisation does not fail on NaN: the reference's
        # distance is NaN, which no gate passes
        ref = penalized_mahalanobis_cholesky(y, S)
        assert np.isnan(ref[1]) and not np.isnan(ref[0])


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
        r = measurement_noise_variances(self.noise, self.process, 0.3)[2:]
        y = np.array([0.1, 2.0]) - np.array([e.state.as_array()[3:5] for e in tracks])
        S = np.array([e.covariance[3:5, 3:5] for e in tracks]) + np.diag(r)
        d_small, d_large = (penalized_mahalanobis(DeviceResidual(y[k], S[k]))
                            for k in range(2))
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
