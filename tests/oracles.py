"""Independent oracles shared by the test modules.

Everything here is deliberately written against the mathematical definitions
(finite differences, brute-force enumeration, direct integration) rather
than reusing the library's code paths.
"""

import collections
import functools
import itertools
import json
import math
import operator

import numpy as np

from cooptrack.ekf import (EPS_YAW, BikeState, MeasurementKind, predict_state,
                           wrap_angle)
from cooptrack.errors import NumericalError
from cooptrack.features import (DFT_ORDERS, DFT_WINDOW_SAMPLES, STAT_WINDOW,
                                gnss_poly_track, motion_feature_matrix,
                                moving_average)
from cooptrack import scene_sim, velocity
from cooptrack.metrics import FrameRecord
from cooptrack.velocity import GNSS_STALENESS, SIGMA_V_FLOOR


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


def noisy_transition(s: BikeState, w, T: float) -> BikeState:
    """Transition including the process noise w = [w_gamma_dot, w_v_dot].

    The noise acts as a constant yaw-rate offset and a constant acceleration
    over the step, so the effective speed for the arc is v + 0.5 T w_v_dot.
    """
    if not T > 0:
        raise ValueError("T must be positive")
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


# the state rows each measurement kind observes, in measurement order
MEASURED_ROWS = {
    MeasurementKind.POSITION_AND_DEVICE: (0, 1, 3, 4),
    MeasurementKind.DEVICE_ONLY: (3, 4),
    MeasurementKind.POSITION_ONLY: (0, 1),
}
# the entry of measurement_noise_variances' (x, y, gamma_dot, v) diagonal
# that holds the noise of a measured state row
NOISE_ENTRY = {0: 0, 1: 1, 3: 2, 4: 3}


def ekf_update_batch(x, P, z, r, kind):
    """Measurement update of N filters by measurements of one kind, with
    the kind's own (m, 5) selector H and R = diag(r): the textbook EKF
    update that ekf_update_masked must reproduce bit for bit.

    z (N, m) holds the measured components of MEASURED_ROWS[kind] and r
    (N, 4) or (1, 4) the noise variances of all four slots, as
    measurement_noise_variances gives them; R takes the kind's entries.
    K = P H^T S^-1 goes through the Cholesky factor of S; P is updated in
    Joseph form.
    """
    rows = MEASURED_ROWS[kind]
    H = np.zeros((len(rows), 5))
    H[range(len(rows)), rows] = 1.0
    R = r[:, [NOISE_ENTRY[row] for row in rows], None] * np.eye(len(rows))
    y = z - (H @ x[:, :, None])[:, :, 0]
    S = H @ P @ H.T + R
    try:
        S_chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not invertible") from exc
    PHt = P @ H.T
    K = np.linalg.solve(S_chol.mT, np.linalg.solve(S_chol, PHt.mT)).mT
    x_new = x + (K @ y[:, :, None])[:, :, 0]
    x_new[:, 2] = [wrap_angle(g) for g in x_new[:, 2].tolist()]
    IKH = np.eye(5) - K @ H
    P_new = IKH @ P @ IKH.mT + K @ R @ K.mT
    return x_new, 0.5 * (P_new + P_new.mT)


def penalized_mahalanobis_cholesky(y, S):
    """sqrt(max(0, y^T S^-1 y + ln det S)) of N residuals y (N, m) with
    innovation covariances S (N, m, m) through numpy's batched Cholesky
    factor L and the solve L u = y: the general m x m computation that
    association.penalized_mahalanobis_batch writes out for m = 2.

    NumericalError when numpy's factorisation fails; numpy's cholesky
    returns a NaN factor for a NaN block instead of failing, and the
    distance is then NaN.
    """
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not positive-definite") from exc
    sol = np.linalg.solve(chol, y[:, :, None])[:, :, 0]
    quad = (sol[:, None, :] @ sol[:, :, None])[:, 0, 0]
    log_det = 2.0 * np.log(chol.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return np.sqrt(np.maximum(0.0, quad + log_det))


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


@functools.lru_cache(maxsize=4)
def _twiddles(n, orders):
    """cos and sin of 2 pi ((k j) mod n) / n for k < orders, j < n: the
    argument is reduced exactly before it is rounded."""
    return tuple(([math.cos(2.0 * math.pi * (k * j % n) / n) for j in range(n)],
                  [math.sin(2.0 * math.pi * (k * j % n) / n) for j in range(n)])
                 for k in range(orders))


def naive_dft_magnitudes(window, orders):
    """O(n^2) DFT magnitudes straight from the definition; each sum of
    products is exact (math.fsum), so only the products and the twiddles
    round."""
    window = np.asarray(window, dtype=float).tolist()
    return np.array([math.hypot(math.fsum(map(operator.mul, window, cos)),
                                math.fsum(map(operator.mul, window, sin)))
                     for cos, sin in _twiddles(len(window), orders)])


def exact_dft_features(window):
    """dft_features from the definition: exact sums for the magnitudes and
    the energy, six NaN for a window holding a non-finite sample and six
    zeros for a window of energy 0."""
    window = np.asarray(window, dtype=float)
    if not np.isfinite(window).all():
        return np.full(DFT_ORDERS, np.nan)
    energy = math.fsum((window ** 2).tolist())
    if energy == 0.0:
        return np.zeros(DFT_ORDERS)
    return naive_dft_magnitudes(window, DFT_ORDERS) / energy


def per_signal_motion_features(imu):
    """motion_feature_matrix one signal and one window at a time.

    Each of acc_h, acc_v, gyr_h, gyr_v gets its moving mean and energy from
    the 1-D moving_average, which the batched pass must reproduce bit for
    bit, and its DFT block from exact_dft_features of every trailing
    window, which the running sums match only to within their rounding.
    """
    imu = np.asarray(imu, dtype=float)
    signals = (np.hypot(imu[:, 1], imu[:, 2]), imu[:, 3],
               np.hypot(imu[:, 4], imu[:, 5]), imu[:, 6])
    stats, dfts = [], []
    for x in signals:
        stats += [moving_average(x, STAT_WINDOW), moving_average(x ** 2, STAT_WINDOW)]
        rows = [exact_dft_features(x[end - DFT_WINDOW_SAMPLES:end])
                for end in range(DFT_WINDOW_SAMPLES, len(x) + 1)]
        dfts.append(np.reshape(rows, (-1, DFT_ORDERS)))
    return np.column_stack([np.column_stack(stats)[DFT_WINDOW_SAMPLES - 1:], *dfts])


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


def reference_scaled_targets(y):
    """(y_int, e): each target times 2**e rounded half to even, as a float
    holding an integer, with e = 52 - (the bit length of len(y)) - (the
    binary exponent of max|y|), so that no sum of len(y) of them reaches
    2**53; e = 0 when every target is 0."""
    values = [float(v) for v in y]
    peak = max(abs(v) for v in values)
    e = 0 if peak == 0.0 else 52 - len(values).bit_length() - math.frexp(peak)[1]
    return np.array([float(round(math.ldexp(v, e))) for v in values]), e


def _reference_best_split(counts, sums, keys):
    """Best (feature, bin) cut of one node, or None.

    counts and sums are the node's (n_features, n_bins) histograms and
    keys its random number per feature.  The cut maximises
    cs^2 / cn + rs^2 / rn over the rows left (cn, cs) and right (rn, rs)
    of it.  Each feature with a cut at the maximum offers its first one,
    and the offer of the feature with the lowest key wins.  None when no
    cut has rows on both sides or the best one gives both sides the same
    mean (cs * rn == rs * cn).
    """
    total_n = counts[0].sum()
    total_s = sums[0].sum()
    cn = np.cumsum(counts, axis=1)[:, :-1]
    cs = np.cumsum(sums, axis=1)[:, :-1]
    rn = total_n - cn
    rs = total_s - cs
    with np.errstate(divide="ignore", invalid="ignore"):
        score = cs ** 2 / cn + rs ** 2 / rn
    score = np.where((cn > 0) & (rn > 0), score, -np.inf)
    top = score.max()
    if top == -np.inf:
        return None
    offers = []
    for f in range(len(score)):
        at_top = np.flatnonzero(score[f] == top)
        if len(at_top):
            b = int(at_top[0])
            offers.append((float(keys[f]), f, b))
    _, f, b = min(offers)
    if cs[f, b] * rn[f, b] == rs[f, b] * cn[f, b]:
        return None
    return f, b


def _reference_tree(binned, y, rng, bin_edges, max_depth):
    """One tree grown node by node, breadth first, then numbered in
    depth-first pre-order, left child first.

    A node holds its bootstrap draws with their repeats; its histograms
    are binned straight from them, and its value is the mean of its
    scaled targets scaled back.  After the draw, every node above
    max_depth takes its split keys from the tree's RNG, in the order the
    nodes are reached.
    """
    n, n_features = binned.shape
    boot = rng.integers(0, n, size=n)
    y_int, e = reference_scaled_targets(y)
    nb = max(len(edges) for edges in bin_edges) + 1
    root = {"rows": boot, "depth": 0}
    queue = collections.deque([root])
    while queue:
        node = queue.popleft()
        rows, depth = node.pop("rows"), node["depth"]
        yv = y_int[rows]
        node["value"] = math.ldexp(int(yv.sum()) / len(rows), -e)
        if depth >= max_depth:
            continue
        keys = rng.random(n_features)
        if np.ptp(yv) == 0.0:
            continue
        sub = binned[rows]
        counts = np.empty((n_features, nb))
        sums = np.empty((n_features, nb))
        for f in range(n_features):
            counts[f] = np.bincount(sub[:, f], minlength=nb)
            sums[f] = np.bincount(sub[:, f], weights=yv, minlength=nb)
        cut = _reference_best_split(counts, sums, keys)
        if cut is None:
            continue
        f, b = int(cut[0]), int(cut[1])
        go_left = sub[:, f] <= b
        node["split"] = (f, float(bin_edges[f][b]))
        node["children"] = [{"rows": rows[go_left], "depth": depth + 1},
                            {"rows": rows[~go_left], "depth": depth + 1}]
        queue.extend(node["children"])

    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def number(node):
        index = len(tree["feature"])
        feature, threshold = node.get("split", (-1, 0.0))
        for key, item in (("feature", feature), ("threshold", threshold),
                          ("left", -1), ("right", -1), ("value", node["value"])):
            tree[key].append(item)
        if "children" in node:
            tree["left"][index] = number(node["children"][0])
            tree["right"][index] = number(node["children"][1])
        return index

    number(root)
    return tree


def reference_forest_json(X, y, seed, n_trees, max_depth, n_bins,
                          feature_layout=None):
    """The forest file of RegressionForest(...).fit(X, y), grown recursively.

    Quantile bin edges, bootstrap draws and the depth-first node numbering
    follow the file format's definition one tree and one node at a time.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    bin_edges = [np.unique(np.quantile(X[:, f], qs)) for f in range(X.shape[1])]
    binned = np.empty(X.shape, dtype=np.int16)
    for f in range(X.shape[1]):
        binned[:, f] = np.searchsorted(bin_edges[f], X[:, f], side="left")
    seqs = np.random.SeedSequence(seed).spawn(n_trees)
    trees = [_reference_tree(binned, y, np.random.default_rng(seq), bin_edges,
                             max_depth) for seq in seqs]
    payload = {
        "format": "cooptrack-forest-v1",
        "seed": seed,
        "n_trees": n_trees,
        "max_depth": max_depth,
        "n_bins": n_bins,
        "n_features": X.shape[1],
        "feature_layout": feature_layout,
        "bin_edges": [edges.tolist() for edges in bin_edges],
        "trees": trees,
    }
    return json.dumps(payload, sort_keys=True)


def reference_tree_predictions(forest_json, X):
    """(n_trees, n) tree outputs, each tree walked on its own until every
    row sits at a leaf."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    preds = []
    for tree in json.loads(forest_json)["trees"]:
        feature = np.asarray(tree["feature"])
        threshold = np.asarray(tree["threshold"])
        left = np.asarray(tree["left"])
        right = np.asarray(tree["right"])
        value = np.asarray(tree["value"])
        node = np.zeros(len(X), dtype=int)
        while True:
            at_leaf = feature[node] < 0
            if at_leaf.all():
                break
            go_left = (X[np.arange(len(X)), np.maximum(feature[node], 0)]
                       <= threshold[node])
            node = np.where(at_leaf, node, np.where(go_left, left[node],
                                                    right[node]))
        preds.append(value[node])
    return np.stack(preds)


def whole_matrix_predict(forest, X):
    """(mean, variance) over the trees from the whole (trees, rows) matrix
    of tree outputs at once."""
    preds = forest.tree_predictions(X)
    mean = preds.mean(axis=0)
    return mean, np.mean((preds - mean) ** 2, axis=0)


def concatenated_training_set(seed, n_scenes):
    """build_training_set's (X, y, scene ids) from one block per ride,
    stacked at the end."""
    blocks = []
    for scene_idx, spec in enumerate(velocity._training_specs(seed, n_scenes)):
        gt = scene_sim.generate_ground_truth(spec)
        rng = np.random.default_rng(spec.seed + 1)
        imu = scene_sim.synthesize_imu(gt, rng)
        gnss = scene_sim.simulate_gnss(gt, spec, rng)
        _, motion, coeffs, ok = velocity._feature_rows(imu, gnss)
        blocks.append((np.column_stack([motion[ok], coeffs[ok]]),
                       gt[DFT_WINDOW_SAMPLES - 1:, 5][ok],
                       np.full(int(ok.sum()), scene_idx)))
    return tuple(np.concatenate(col) for col in zip(*blocks))


def whole_ride_velocity(imu, gnss, model):
    """estimate_velocity's (t, v_hat, sigma_v, used_gnss) rows, each forest
    run once over all of its rows of the ride by whole_matrix_predict."""
    times = imu[DFT_WINDOW_SAMPLES - 1:, 0]
    coeffs, age = gnss_poly_track(times, gnss)
    fresh = (age <= GNSS_STALENESS) & ~np.isnan(coeffs).any(axis=1)
    motion = motion_feature_matrix(imu)
    v_hat = np.empty(len(times))
    var = np.empty(len(times))
    if fresh.any():
        v_hat[fresh], var[fresh] = whole_matrix_predict(
            model.with_gnss, np.column_stack([motion[fresh], coeffs[fresh]]))
    if (~fresh).any():
        v_hat[~fresh], var[~fresh] = whole_matrix_predict(model.no_gnss,
                                                          motion[~fresh])
    sigma = np.maximum(np.sqrt(var), SIGMA_V_FLOOR)
    return np.column_stack([times, v_hat, sigma, fresh.astype(float)])
