"""Random forest regression with an ensemble-variance uncertainty estimate.

Bootstrap-sampled regression trees grown with variance-reduction splits over
quantile-binned feature values.  The prediction is the mean of the tree
outputs; the reported variance is the mean squared deviation of the tree
outputs from that mean, which feeds the tracker's measurement noise.
Training is deterministic for a given seed: every tree draws its bootstrap
sample from its own RNG stream spawned from the seed.
"""

import json
from dataclasses import dataclass, field

import numpy as np

MIN_TRAIN_SAMPLES = 100

FOREST_FORMAT = "cooptrack-forest-v1"

# hyperparameter defaults; the trainers and the run configuration take them
# from here
N_TREES = 300
MAX_DEPTH = 6
N_BINS = 64


@dataclass
class _Tree:
    """Flat node arrays; leaves have feature == -1."""

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)

    def add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, X):
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        node = np.zeros(len(X), dtype=int)
        while True:
            at_leaf = feature[node] < 0
            if at_leaf.all():
                break
            go_left = X[np.arange(len(X)), np.maximum(feature[node], 0)] <= threshold[node]
            nxt = np.where(go_left, left[node], right[node])
            node = np.where(at_leaf, node, nxt)
        return value[node]


def _best_split(counts, sums, sumsqs):
    """Best (feature, bin) cut by squared-error reduction, or None.

    counts/sums/sumsqs are (n_features, n_bins) per-bin histograms of the
    node's samples; a cut at bin b sends bins <= b left.
    """
    total_n = counts[0].sum()
    total_s = sums[0].sum()
    total_ss = sumsqs[0].sum()
    parent_sse = total_ss - total_s ** 2 / total_n

    cn = np.cumsum(counts, axis=1)[:, :-1]
    cs = np.cumsum(sums, axis=1)[:, :-1]
    css = np.cumsum(sumsqs, axis=1)[:, :-1]
    rn = total_n - cn
    valid = (cn > 0) & (rn > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (css - cs ** 2 / cn) + ((total_ss - css) - (total_s - cs) ** 2 / rn)
    sse = np.where(valid, sse, np.inf)
    flat = int(np.argmin(sse))
    best = sse.flat[flat]
    if not np.isfinite(best) or not parent_sse - best > 1e-12:
        return None
    return np.unravel_index(flat, sse.shape)


class RegressionForest:
    """Forest of depth-bounded regression trees with seed-deterministic fit."""

    def __init__(self, n_trees=N_TREES, max_depth=MAX_DEPTH, n_bins=N_BINS,
                 seed=0):
        if n_trees < 1 or max_depth < 1 or n_bins < 2:
            raise ValueError("need n_trees >= 1, max_depth >= 1 and n_bins >= 2")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.n_bins = int(n_bins)
        self.seed = int(seed)
        self.trees = []
        self.bin_edges = None
        self.feature_layout = None
        self.n_features = None

    # -- training ----------------------------------------------------------

    def fit(self, X, y, feature_layout=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with matching targets")
        if len(X) < MIN_TRAIN_SAMPLES:
            raise ValueError(f"need at least {MIN_TRAIN_SAMPLES} samples, "
                             f"got {len(X)}")
        self.n_features = X.shape[1]
        self.feature_layout = feature_layout
        self.bin_edges = self._quantile_edges(X)
        binned = self._bin(X)
        seqs = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = [self._grow_tree(binned, y, np.random.default_rng(seq))
                      for seq in seqs]
        return self

    def _quantile_edges(self, X):
        qs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        return [np.unique(np.quantile(X[:, f], qs)) for f in range(X.shape[1])]

    def _bin(self, X):
        binned = np.empty(X.shape, dtype=np.int16)
        for f in range(X.shape[1]):
            binned[:, f] = np.searchsorted(self.bin_edges[f], X[:, f], side="left")
        return binned

    def _grow_tree(self, binned, y, rng):
        n = len(y)
        boot = rng.integers(0, n, size=n)
        tree = _Tree()
        y2 = y ** 2
        nb = max(len(e) for e in self.bin_edges) + 1

        def build(rows, depth):
            node = tree.add_node()
            yv = y[rows]
            tree.value[node] = float(yv.mean())
            if depth >= self.max_depth or len(rows) < 2 or np.ptp(yv) == 0.0:
                return node
            sub = binned[rows]
            yv2 = y2[rows]
            counts = np.empty((self.n_features, nb))
            sums = np.empty((self.n_features, nb))
            sumsqs = np.empty((self.n_features, nb))
            for f in range(self.n_features):
                b = sub[:, f]
                counts[f] = np.bincount(b, minlength=nb)
                sums[f] = np.bincount(b, weights=yv, minlength=nb)
                sumsqs[f] = np.bincount(b, weights=yv2, minlength=nb)
            cut = _best_split(counts, sums, sumsqs)
            if cut is None:
                return node
            f, b = int(cut[0]), int(cut[1])
            go_left = sub[:, f] <= b
            tree.feature[node] = f
            tree.threshold[node] = float(self.bin_edges[f][b])
            tree.left[node] = build(rows[go_left], depth + 1)
            tree.right[node] = build(rows[~go_left], depth + 1)
            return node

        build(boot, 0)
        return tree

    # -- prediction ----------------------------------------------------------

    def _check_input(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not self.trees:
            raise ValueError("forest is not fitted")
        if X.shape[1] != self.n_features:
            raise ValueError(f"feature layout mismatch: expected "
                             f"{self.n_features} features, got {X.shape[1]}")
        return X

    def tree_predictions(self, X):
        """(n_trees, n) matrix of individual tree outputs."""
        X = self._check_input(X)
        return np.stack([tree.predict(X) for tree in self.trees])

    def predict(self, X):
        """(mean, ensemble variance) arrays over the samples."""
        preds = self.tree_predictions(X)
        mean = preds.mean(axis=0)
        var = np.mean((preds - mean) ** 2, axis=0)
        return mean, var

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        if not self.trees:
            raise ValueError("forest is not fitted")
        payload = {
            "format": FOREST_FORMAT,
            "seed": self.seed,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "n_bins": self.n_bins,
            "n_features": self.n_features,
            "feature_layout": self.feature_layout,
            "bin_edges": [edges.tolist() for edges in self.bin_edges],
            "trees": [{"feature": tree.feature, "threshold": tree.threshold,
                       "left": tree.left, "right": tree.right,
                       "value": tree.value} for tree in self.trees],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        payload = json.loads(text)
        if payload.get("format") != FOREST_FORMAT:
            raise ValueError(f"unsupported forest format: {payload.get('format')}")
        forest = cls(n_trees=payload["n_trees"], max_depth=payload["max_depth"],
                     n_bins=payload["n_bins"], seed=payload["seed"])
        forest.n_features = payload["n_features"]
        forest.feature_layout = payload["feature_layout"]
        forest.bin_edges = [np.asarray(e, dtype=float) for e in payload["bin_edges"]]
        forest.trees = [_Tree(feature=t["feature"], threshold=t["threshold"],
                              left=t["left"], right=t["right"], value=t["value"])
                        for t in payload["trees"]]
        return forest


def train_forest(features, targets, seed, feature_layout=None,
                 **hyperparams) -> RegressionForest:
    """Convenience constructor-plus-fit; hyperparams go to RegressionForest."""
    forest = RegressionForest(seed=seed, **hyperparams)
    return forest.fit(features, targets, feature_layout=feature_layout)
