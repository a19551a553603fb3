import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptrack import forest as forest_mod
from cooptrack.forest import RegressionForest, scaled_targets, train_forest
from oracles import (reference_forest_json, reference_scaled_targets,
                     reference_tree_predictions, whole_matrix_predict)


def toy_data(n=400, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + rng.normal(0, 0.1, n)
    return X, y


class TestTraining:
    def test_constant_targets_predict_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (200, 4))
        y = np.full(200, 3.25)
        forest = train_forest(X, y, seed=0, n_trees=20)
        mean, var = forest.predict(X[:10])
        np.testing.assert_array_equal(mean, 3.25)
        np.testing.assert_array_equal(var, 0.0)

    def test_copied_feature_gives_high_training_r2(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (2000, 6))
        y = X[:, 3].copy()
        forest = train_forest(X, y, seed=0, n_trees=30)
        pred, _ = forest.predict(X)
        ss_res = np.sum((pred - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99

    def test_same_seed_bit_identical_different_seed_differs(self):
        X, y = toy_data()
        a = train_forest(X, y, seed=7, n_trees=10).to_json()
        b = train_forest(X, y, seed=7, n_trees=10).to_json()
        c = train_forest(X, y, seed=8, n_trees=10).to_json()
        assert a == b
        assert a != c

    def test_n_bins_above_int16_bin_indices_rejected(self):
        # _bin stores bin indices 0..n_bins-1 as int16
        assert RegressionForest(n_bins=32768).n_bins == 32768
        with pytest.raises(ValueError, match="n_bins"):
            RegressionForest(n_bins=32769)

    def test_insufficient_data_rejected(self):
        X, y = toy_data(n=50)
        with pytest.raises(ValueError):
            train_forest(X, y, seed=0)

    @pytest.mark.parametrize("cell", ["y_nan", "x_inf", "x_minus_inf"])
    def test_non_finite_training_data_rejected(self, cell):
        X, y = toy_data(n=200)
        if cell == "y_nan":
            y[5] = np.nan
        else:
            X[5, 2] = np.inf if cell == "x_inf" else -np.inf
        X[9, 0] = np.nan
        with pytest.raises(ValueError, match="row 5"):
            train_forest(X, y, seed=0, n_trees=2)

    def test_depth_bound_respected(self):
        X, y = toy_data(n=500)
        forest = train_forest(X, y, seed=0, n_trees=5, max_depth=3)
        for tree in json.loads(forest.to_json())["trees"]:
            # depth <= 3 means at most 2^4 - 1 nodes
            assert len(tree["feature"]) <= 15

    def test_learns_signal(self):
        X, y = toy_data(n=1500, seed=3)
        X_test, y_test = toy_data(n=500, seed=4)
        forest = train_forest(X, y, seed=0, n_trees=60)
        pred, _ = forest.predict(X_test)
        baseline = np.mean((y_test - y.mean()) ** 2)
        assert np.mean((pred - y_test) ** 2) < 0.4 * baseline


class TestExactHistograms:
    """Integer targets make every histogram cell exact: the same bits in
    any row order, and a sibling's histograms by subtraction equal to
    those binned from its rows."""

    @pytest.mark.parametrize("y", [
        [0.0, 0.0, 0.0], [1e-300, -3e-301], [1e300, -1.7e308], [0.1, 0.2, 0.3],
        [3.25] * 7, [-5.0, 4.0]])
    def test_scaled_targets_by_definition(self, y):
        y = np.array(y)
        y_int, e = scaled_targets(y)
        want_int, want_e = reference_scaled_targets(y)
        assert e == want_e and np.array_equal(y_int, want_int)
        assert len(y) * np.abs(y_int).max() < 2.0 ** 53

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
           n_features=st.integers(1, 5), n_bins=st.integers(2, 40),
           log_scale=st.floats(-30, 30))
    def test_histograms_exact_in_any_order_and_by_subtraction(
            self, seed, n, n_features, n_bins, log_scale):
        rng = np.random.default_rng(seed)
        binned = rng.integers(0, n_bins, (n, n_features)).astype(np.int16)
        # heavy tails and repeated values, scaled over 60 decades
        y = rng.standard_cauchy(n).round(int(rng.integers(0, 4))) * 10.0 ** log_scale
        y_int, _ = scaled_targets(y)
        weight = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        weighted = weight * y_int
        rows = np.flatnonzero(weight)
        whole = np.array([0, len(rows)])
        root = np.array([0])
        hist = forest_mod._histograms(binned, weight, weighted, rows, whole,
                                      root, n_bins)
        shuffled = rng.permutation(rows)
        assert np.array_equal(hist, forest_mod._histograms(
            binned, weight, weighted, shuffled, whole, root, n_bins))
        # children of a random cut, each in a shuffled order
        go_left = binned[shuffled, int(rng.integers(n_features))] <= rng.integers(n_bins)
        children = np.concatenate([shuffled[go_left], shuffled[~go_left]])
        bounds = np.array([0, go_left.sum(), len(rows)])
        direct = forest_mod._histograms(binned, weight, weighted, children, bounds,
                                        np.array([0, 1]), n_bins)
        by_subtraction = forest_mod._child_histograms(
            hist, root, binned, weight, weighted, children, bounds, n_bins)
        assert np.array_equal(direct, by_subtraction)

    def test_level_bound_does_not_move_a_bit(self, monkeypatch):
        X, y = toy_data(n=600, d=8, seed=21)
        want = train_forest(X, y, seed=3, n_trees=4, max_depth=7).to_json()
        # no level held whole (all binned in batches), then one node a batch
        monkeypatch.setattr(forest_mod, "_LEVEL_CELLS", 0)
        assert train_forest(X, y, seed=3, n_trees=4, max_depth=7).to_json() == want
        monkeypatch.setattr(forest_mod, "_FIT_CELLS", 1)
        assert train_forest(X, y, seed=3, n_trees=4, max_depth=7).to_json() == want

    @pytest.mark.parametrize("k", [-40, 7])
    def test_power_of_two_target_scale_scales_only_the_values(self, k):
        X, y = toy_data(n=300, seed=22)
        a = json.loads(train_forest(X, y, seed=5, n_trees=3).to_json())
        b = json.loads(train_forest(X, np.ldexp(y, k), seed=5, n_trees=3).to_json())
        for ta, tb in zip(a["trees"], b["trees"]):
            assert {key: ta[key] for key in ("feature", "threshold", "left", "right")} \
                == {key: tb[key] for key in ("feature", "threshold", "left", "right")}
            assert np.array_equal(np.ldexp(ta["value"], k), tb["value"])

    def test_kept_histograms_bounded_on_deep_trees(self):
        # levels of up to 2048 nodes: their histograms, all held whole,
        # would take 16 bytes x 2048 x 36 features x 64 bins = 75 MB
        X, y = toy_data(n=4000, d=36, seed=23)
        tracemalloc.start()
        try:
            train_forest(X, y, seed=0, n_trees=2, max_depth=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.6 MB here, 77 MB with every level held whole
        assert peak < 8e6


class TestTiedCuts:
    """Cuts that split a node's rows the same way tie exactly; the tie goes
    to the first such cut of a feature, and between features to the one
    with the node's lowest key."""

    @staticmethod
    def _cuts(counts, sums, keys):
        hist = np.cumsum(np.array([[counts], [sums]], dtype=float), axis=3)
        feature, cut = forest_mod._best_cuts(hist, np.array([keys]))
        return int(feature[0]), int(cut[0])

    @pytest.mark.parametrize("keys, want", [([0.2, 0.7], (0, 0)), ([0.7, 0.2], (1, 0))])
    def test_lowest_key_then_first_cut_of_the_run(self, keys, want):
        # rows y = 0, 0 | 10, 10, 10 in both features; cuts 0-3 of
        # feature 1 split them alike, as bins 1-3 hold none of them
        counts = [[2, 1, 1, 0, 0, 1], [2, 0, 0, 0, 2, 1]]
        sums = [[0, 10, 10, 0, 0, 10], [0, 0, 0, 0, 20, 10]]
        assert self._cuts(counts, sums, keys) == want

    def test_trees_share_ties_between_copied_columns(self):
        # two copies of one column split every node alike; the trees must
        # not all send those ties to the first copy
        rng = np.random.default_rng(24)
        x = rng.normal(0, 1, 600)
        X = np.column_stack([x, x, rng.normal(0, 1, 600)])
        y = 2.0 * x + rng.normal(0, 0.3, 600)
        forest = train_forest(X, y, seed=0, n_trees=30)
        uses = np.bincount(forest.nodes.feature[forest.nodes.feature >= 0],
                           minlength=3)
        assert min(uses[0], uses[1]) > 0.3 * (uses[0] + uses[1])


class TestPrediction:
    def test_two_tree_mean_and_variance_by_definition(self):
        X, y = toy_data(n=300, seed=5)
        forest = train_forest(X, y, seed=11, n_trees=2)
        x = X[:3]
        preds = forest.tree_predictions(x)
        mean, var = forest.predict(x)
        np.testing.assert_allclose(mean, preds.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(
            var, ((preds - preds.mean(axis=0)) ** 2).mean(axis=0), atol=1e-15)

    def test_variance_equals_recomputed_tree_deviation(self):
        X, y = toy_data(n=800, seed=6)
        forest = train_forest(X, y, seed=0, n_trees=40)
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (50, X.shape[1]))
        preds = forest.tree_predictions(x)
        _, var = forest.predict(x)
        expected = np.mean((preds - preds.mean(axis=0)) ** 2, axis=0)
        np.testing.assert_allclose(var, expected, atol=1e-12)

    def test_mean_is_permutation_invariant_over_trees(self):
        X, y = toy_data(n=400, seed=7)
        forest = train_forest(X, y, seed=0, n_trees=15)
        x = X[:5]
        mean, var = forest.predict(x)
        rng = np.random.default_rng(1)
        payload = json.loads(forest.to_json())
        order = rng.permutation(len(payload["trees"]))
        payload["trees"] = [payload["trees"][i] for i in order]
        mean_p, var_p = RegressionForest.from_json(json.dumps(payload)).predict(x)
        np.testing.assert_allclose(mean, mean_p, atol=1e-12)
        np.testing.assert_allclose(var, var_p, atol=1e-12)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_peak_independent_of_rows(self):
        X, y = toy_data(n=400, seed=13)
        forest = train_forest(X, y, seed=0, n_trees=64)
        block = forest_mod._WALK_CELLS // 64
        Q = np.random.default_rng(3).normal(0, 1, (20 * block, X.shape[1]))
        one = self._peak(forest.predict, Q[:block])
        # the whole (trees, rows) matrix and its squared deviations would
        # grow 20-fold; the returned mean and variance are 2 x 8 bytes a row
        assert self._peak(forest.predict, Q) < 2 * one

    # a walk block holds 1024 rows at 64 trees and 65 536 at one tree
    @pytest.mark.parametrize("n_trees, n_rows", [
        (64, 1), (64, 2), (64, 1024), (64, 1025), (64, 3 * 1024 + 1),
        (64, 3 * 1024 + 7), (1, 65536 + 1), (1, 3)])
    def test_bits_of_the_whole_matrix_formula(self, n_trees, n_rows):
        X, y = toy_data(n=400, seed=14)
        forest = train_forest(X, y, seed=2, n_trees=n_trees)
        rng = np.random.default_rng(n_rows)
        # every other column of a wider array: a non-contiguous view
        wide = rng.normal(0, 1.5, (n_rows, 2 * X.shape[1]))
        wide[rng.random(wide.shape) < 0.1] = np.nan
        Q = wide[:, ::2]
        assert not Q.flags.c_contiguous
        mean, var = forest.predict(Q)
        want_mean, want_var = whole_matrix_predict(forest, Q)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(var, want_var)

    def test_layout_mismatch_rejected(self):
        X, y = toy_data()
        forest = train_forest(X, y, seed=0, n_trees=5)
        with pytest.raises(ValueError, match="feature layout"):
            forest.predict(np.zeros((2, 3)))

    def test_unfitted_forest_rejected(self):
        with pytest.raises(ValueError):
            RegressionForest().predict(np.zeros((1, 3)))


class TestSerialization:
    def test_json_roundtrip_preserves_predictions(self):
        X, y = toy_data(n=300, seed=8)
        forest = train_forest(X, y, seed=0, n_trees=8,
                              feature_layout={"version": "v1", "names": []})
        restored = RegressionForest.from_json(forest.to_json())
        x = X[:20]
        np.testing.assert_array_equal(forest.predict(x)[0], restored.predict(x)[0])
        np.testing.assert_array_equal(forest.predict(x)[1], restored.predict(x)[1])
        assert restored.feature_layout == {"version": "v1", "names": []}
        # a fitted forest keeps its nodes in growth order, a loaded one in
        # the file's depth-first order: the same trees either way
        assert restored.to_json() == forest.to_json()
        np.testing.assert_array_equal(forest.tree_predictions(X),
                                      restored.tree_predictions(X))

    def test_schema_fields(self):
        X, y = toy_data(n=200)
        forest = train_forest(X, y, seed=3, n_trees=2, max_depth=2)
        payload = json.loads(forest.to_json())
        assert payload["format"] == "cooptrack-forest-v1"
        assert payload["seed"] == 3
        tree = payload["trees"][0]
        assert set(tree) == {"feature", "threshold", "left", "right", "value"}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            RegressionForest.from_json(json.dumps({"format": "other"}))

    @pytest.mark.parametrize("defect, message", [
        ("unequal_lengths", "equal length"),
        ("empty_tree", "non-empty"),
        ("no_trees", "no trees"),
        ("feature_too_high", "feature index outside"),
        ("feature_below_leaf", "feature index outside"),
        ("float_feature", "integers"),
        ("child_self_loop", "child index"),
        ("child_before_node", "child index"),
        ("child_past_end", "child index"),
        ("leaf_with_children", "leaf has children"),
        ("nan_threshold", "non-finite"),
        ("inf_value", "non-finite"),
        ("bin_edges_count", "bin edge lists"),
        ("n_trees_not_tree_count", "n_trees"),
        ("max_depth_below_depth", "max_depth"),
    ])
    def test_malformed_tree_rejected(self, defect, message):
        X, y = toy_data(n=300, seed=10)
        payload = json.loads(train_forest(X, y, seed=0, n_trees=3).to_json())
        tree = payload["trees"][1]
        splits = [i for i, f in enumerate(tree["feature"]) if f >= 0]
        leaf = tree["feature"].index(-1)
        if defect == "unequal_lengths":
            tree["value"].append(0.0)
        elif defect == "empty_tree":
            for key in tree:
                tree[key] = []
        elif defect == "no_trees":
            payload["trees"] = []
        elif defect == "feature_too_high":
            tree["feature"][splits[0]] = payload["n_features"]
        elif defect == "feature_below_leaf":
            tree["feature"][splits[0]] = -2
        elif defect == "float_feature":
            tree["feature"][splits[0]] = 0.5
        elif defect == "child_self_loop":
            tree["left"][0] = 0
        elif defect == "child_before_node":
            tree["right"][splits[-1]] = 0
        elif defect == "child_past_end":
            tree["right"][splits[-1]] = len(tree["feature"])
        elif defect == "leaf_with_children":
            tree["left"][leaf] = leaf + 1
        elif defect == "nan_threshold":
            tree["threshold"][splits[0]] = float("nan")
        elif defect == "inf_value":
            tree["value"][leaf] = float("inf")
        elif defect == "bin_edges_count":
            payload["bin_edges"].pop()
        elif defect == "n_trees_not_tree_count":
            payload["n_trees"] = 300
        elif defect == "max_depth_below_depth":
            payload["max_depth"] = 1
        with pytest.raises(ValueError, match=message):
            RegressionForest.from_json(json.dumps(payload))

    def test_header_max_depth_above_tree_depth_loads(self):
        X, y = toy_data(n=300, seed=10)
        forest = train_forest(X, y, seed=0, n_trees=3, max_depth=2)
        payload = json.loads(forest.to_json())
        payload["max_depth"] = 8
        loaded = RegressionForest.from_json(json.dumps(payload))
        assert loaded.max_depth == 8 and loaded.nodes.depth == 2
        np.testing.assert_array_equal(loaded.tree_predictions(X),
                                      forest.tree_predictions(X))


class TestOracleParity:
    """The level-order grower and all-trees walk against the recursive
    node-by-node definition: identical files, identical tree outputs."""

    @staticmethod
    def _queries(rng, n, d):
        Q = rng.normal(0, 1.5, (n, d))
        Q[rng.random(Q.shape) < 0.1] = np.nan
        Q[rng.random(Q.shape) < 0.05] = np.inf
        Q[rng.random(Q.shape) < 0.05] = -np.inf
        return Q

    def _check(self, X, y, seed, n_trees, max_depth, n_bins, queries):
        forest = RegressionForest(n_trees, max_depth, n_bins, seed=seed).fit(X, y)
        expected = reference_forest_json(X, y, seed, n_trees, max_depth, n_bins)
        assert forest.to_json() == expected
        np.testing.assert_array_equal(
            forest.tree_predictions(queries),
            reference_tree_predictions(expected, queries))
        restored = RegressionForest.from_json(expected)
        np.testing.assert_array_equal(restored.tree_predictions(queries),
                                      forest.tree_predictions(queries))

    @pytest.mark.parametrize("case", range(12))
    def test_random_data(self, case):
        rng = np.random.default_rng(100 + case)
        n = int(rng.integers(100, 500))
        d = int(rng.integers(1, 41))
        X = rng.normal(0, 1, (n, d))
        for f in range(d):
            kind = rng.random()
            if kind < 0.2:      # few values: tied and empty bins
                X[:, f] = rng.integers(0, 3, n)
            elif kind < 0.3:    # constant column
                X[:, f] = 1.5
        y = X[:, 0] * 2.0 + rng.normal(0, 0.5, n)
        if case % 4 == 1:
            y[:] = -0.75
        if case % 3 == 2:       # duplicated rows
            X[n // 2:] = X[:n - n // 2]
            y[n // 2:] = y[:n - n // 2]
        self._check(X, y, seed=case, n_trees=int(rng.integers(1, 5)),
                    max_depth=1 + case % 10, n_bins=int(rng.integers(2, 65)),
                    queries=self._queries(rng, 200, d))

    @pytest.mark.parametrize("n_features, n_bins, max_depth",
                             [(40, 64, 10), (1, 2, 1), (3, 64, 8)])
    def test_edge_sizes(self, n_features, n_bins, max_depth):
        rng = np.random.default_rng(n_features)
        X = rng.normal(0, 1, (600, n_features))
        y = np.sin(X[:, 0] * 3.0) + rng.normal(0, 0.1, 600)
        self._check(X, y, seed=1, n_trees=3, max_depth=max_depth,
                    n_bins=n_bins, queries=self._queries(rng, 100, n_features))

    @pytest.mark.parametrize("scale", [1e-6, 1e4])
    def test_targets_far_from_one(self, scale):
        rng = np.random.default_rng(31)
        X = rng.normal(0, 1, (400, 6))
        y = scale * (1.0 + X[:, 0] + rng.normal(0, 0.2, 400))
        self._check(X, y, seed=2, n_trees=3, max_depth=8, n_bins=32,
                    queries=self._queries(rng, 200, 6))

    @pytest.mark.parametrize("value", [0.0, 0.1, -7.25e5])
    def test_constant_targets(self, value):
        rng = np.random.default_rng(32)
        X = rng.normal(0, 1, (150, 4))
        self._check(X, np.full(150, value), seed=3, n_trees=2, max_depth=5,
                    n_bins=16, queries=self._queries(rng, 50, 4))

    def test_one_row_many_times(self):
        # nine in ten rows are one row: nodes hold it many times over,
        # next to rows drawn once or not at all
        rng = np.random.default_rng(33)
        X = rng.normal(0, 1, (200, 5))
        y = X[:, 1] + rng.normal(0, 0.3, 200)
        X[20:], y[20:] = X[0], y[0]
        self._check(X, y, seed=4, n_trees=6, max_depth=10, n_bins=64,
                    queries=self._queries(rng, 100, 5))

    def test_rows_beyond_one_walk_block(self):
        X, y = toy_data(n=400, seed=12)
        # 80 trees x 3000 rows is several blocks of tree x row cells
        self._check(X, y, seed=4, n_trees=80, max_depth=8, n_bins=32,
                    queries=self._queries(np.random.default_rng(5), 3000, 5))
