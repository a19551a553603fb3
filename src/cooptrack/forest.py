"""Random forest regression with an ensemble-variance uncertainty estimate.

Bootstrap-sampled regression trees grown with variance-reduction splits over
quantile-binned feature values.  The prediction is the mean of the tree
outputs; the reported variance is the mean squared deviation of the tree
outputs from that mean, which feeds the tracker's measurement noise.
Training is deterministic for a given seed: every tree draws its bootstrap
sample from its own RNG stream spawned from the seed.

All nodes of a forest live in one `NodeTable`.  Trees are grown level by
level, with the histograms and split searches of a level's nodes batched,
and then numbered in depth-first pre-order, which is the order of the
forest file.
"""

import json

import numpy as np

MIN_TRAIN_SAMPLES = 100

FOREST_FORMAT = "cooptrack-forest-v1"

# hyperparameter defaults; the trainers and the run configuration take them
# from here
N_TREES = 300
MAX_DEPTH = 6
N_BINS = 64

# bound on the (node, feature, bin) cells of one split search and on the
# (tree, row) cells of one prediction walk, which keeps their temporaries
# to a few MB at any forest size
_FIT_CELLS = 1 << 16
_WALK_CELLS = 1 << 16


class NodeTable:
    """Struct-of-arrays nodes of a whole forest.

    Tree t's nodes are roots[t] up to the next root, in depth-first
    pre-order.  A split node sends x[feature] <= threshold to `left` (so
    NaN goes right); a leaf has feature -1 and points at itself, so a walk
    of `depth` steps from the roots ends at a leaf in every tree.
    """

    def __init__(self, trees):
        """trees: per-tree (feature, threshold, left, right, value) arrays
        in pre-order, children as tree-local indices and -1 at leaves."""
        sizes = [len(tree[0]) for tree in trees]
        self.roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, value = (
            np.concatenate(col) for col in zip(*trees))
        self.feature = feature.astype(np.intp)
        self.threshold = threshold.astype(float)
        self.value = value.astype(float)
        offset = np.repeat(self.roots, sizes)
        leaf = self.feature < 0
        index = np.arange(len(leaf))
        self.left = np.where(leaf, index, left + offset)
        self.right = np.where(leaf, index, right + offset)
        self.depth = 0
        frontier = self.roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if len(frontier) == 0:
                break
            frontier = np.unique(np.concatenate([self.left[frontier],
                                                 self.right[frontier]]))
            self.depth += 1

    def tree_payloads(self):
        """Per-tree payloads of the forest file: node lists with tree-local
        children, -1 at leaves."""
        ends = list(self.roots[1:]) + [len(self.feature)]
        leaf = self.feature < 0
        out = []
        for root, end in zip(self.roots, ends):
            part = slice(root, end)
            left = np.where(leaf[part], -1, self.left[part] - root)
            right = np.where(leaf[part], -1, self.right[part] - root)
            out.append({"feature": self.feature[part].tolist(),
                        "threshold": self.threshold[part].tolist(),
                        "left": left.tolist(), "right": right.tolist(),
                        "value": self.value[part].tolist()})
        return out

    def walk(self, X):
        """(n_trees, len(X)) leaf values, all trees stepped together."""
        n_rows, n_cols = X.shape
        cells = X.ravel()
        row_start = np.arange(n_rows) * n_cols
        node = np.repeat(self.roots[:, None], n_rows, axis=1)
        for _ in range(self.depth):
            # a leaf's feature -1 reads the cell before its row (or the
            # last cell); the leaf stays put either way
            x = cells.take(row_start + self.feature.take(node))
            node = np.where(x <= self.threshold.take(node),
                            self.left.take(node), self.right.take(node))
        return self.value.take(node)


def _best_cuts(counts, sums, sumsqs):
    """Best (feature, bin) cut of each node by squared-error reduction.

    counts/sums/sumsqs are (nodes, n_features, n_bins) per-bin histograms of
    each node's samples; a cut at bin b sends bins <= b left.  Ties go to
    the lowest feature, then the lowest bin.  Returns (feature, bin)
    arrays, feature -1 where no cut reduces the error.
    """
    total_n = counts[:, 0].sum(axis=1)[:, None, None]
    total_s = sums[:, 0].sum(axis=1)[:, None, None]
    total_ss = sumsqs[:, 0].sum(axis=1)[:, None, None]
    parent_sse = (total_ss - total_s ** 2 / total_n).ravel()

    cn = np.cumsum(counts, axis=2)[:, :, :-1]
    cs = np.cumsum(sums, axis=2)[:, :, :-1]
    css = np.cumsum(sumsqs, axis=2)[:, :, :-1]
    rn = total_n - cn
    valid = (cn > 0) & (rn > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (css - cs ** 2 / cn) + ((total_ss - css) - (total_s - cs) ** 2 / rn)
    sse = np.where(valid, sse, np.inf).reshape(len(sse), -1)
    flat = np.argmin(sse, axis=1)
    best = sse[np.arange(len(flat)), flat]
    ok = np.isfinite(best) & (parent_sse - best > 1e-12)
    feature, cut = np.divmod(flat, counts.shape[2] - 1)
    return np.where(ok, feature, -1), cut


class RegressionForest:
    """Forest of depth-bounded regression trees with seed-deterministic fit."""

    def __init__(self, n_trees=N_TREES, max_depth=MAX_DEPTH, n_bins=N_BINS,
                 seed=0):
        if n_trees < 1 or max_depth < 1 or n_bins < 2:
            raise ValueError("need n_trees >= 1, max_depth >= 1 and n_bins >= 2")
        if n_bins > 32768:
            # _bin stores the bin indices 0..n_bins-1 as int16
            raise ValueError(f"n_bins must be at most 32768, got {n_bins}")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.n_bins = int(n_bins)
        self.seed = int(seed)
        self.nodes = None
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
        finite = np.isfinite(X).all(axis=1) & np.isfinite(y)
        if not finite.all():
            raise ValueError(f"non-finite training data in row "
                             f"{int(np.argmin(finite))}")
        self.n_features = X.shape[1]
        self.feature_layout = feature_layout
        self.bin_edges = self._quantile_edges(X)
        binned = self._bin(X)
        seqs = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.nodes = NodeTable([
            self._grow_tree(binned, y, np.random.default_rng(seq))
            for seq in seqs])
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
        """One tree on a bootstrap sample, grown a level at a time.

        A level's nodes keep their rows as consecutive runs of `rows`, each
        in the order the node received them, so every histogram cell and
        every node mean adds its rows in the same order as a node-by-node
        grower would.  Returns the node arrays in depth-first pre-order.
        """
        n = len(y)
        rows = rng.integers(0, n, size=n)
        bounds = np.array([0, n])
        levels = []     # (value, feature, bin) of each level's nodes
        for depth in range(self.max_depth + 1):
            yv = y[rows]
            starts = bounds[:-1]
            value = np.array([yv[s:e].mean() for s, e in zip(starts, bounds[1:])])
            feature = np.full(len(value), -1)
            cut = np.zeros(len(value), dtype=int)
            if depth < self.max_depth:
                open_ = ((np.diff(bounds) >= 2)
                         & (np.maximum.reduceat(yv, starts)
                            != np.minimum.reduceat(yv, starts)))
                feature[open_], cut[open_] = self._split_nodes(
                    binned, y, rows, bounds, np.flatnonzero(open_))
            levels.append((value, feature, cut))
            split = feature >= 0
            if not split.any():
                break
            node_of = np.repeat(np.arange(len(value)), np.diff(bounds))
            keep = split[node_of]
            rows, node_of = rows[keep], node_of[keep]
            go_right = binned[rows, feature[node_of]] > cut[node_of]
            child = 2 * (np.cumsum(split) - 1)[node_of] + go_right
            rows = rows[np.argsort(child, kind="stable")]
            bounds = np.concatenate(
                [[0], np.cumsum(np.bincount(child, minlength=2 * split.sum()))])
        return self._preorder(levels)

    def _split_nodes(self, binned, y, rows, bounds, nodes):
        """Best cut of each listed node of a level: (feature, bin) arrays.

        The histograms of a batch of nodes come from one bincount per
        feature and statistic, keyed by (node slot, bin).
        """
        n_features = binned.shape[1]
        nb = max(len(e) for e in self.bin_edges) + 1
        batch = max(1, _FIT_CELLS // (n_features * nb))
        feature = np.empty(len(nodes), dtype=int)
        cut = np.empty(len(nodes), dtype=int)
        for lo in range(0, len(nodes), batch):
            part = nodes[lo:lo + batch]
            lengths = bounds[part + 1] - bounds[part]
            sel = np.concatenate([rows[bounds[k]:bounds[k + 1]] for k in part])
            key = np.repeat(np.arange(len(part)) * nb, lengths)
            sub = binned[sel]
            yv = y[sel]
            yv2 = yv ** 2
            size = len(part) * nb
            hist = np.empty((3, len(part), n_features, nb))
            for f in range(n_features):
                b = key + sub[:, f]
                hist[0, :, f] = np.bincount(b, minlength=size).reshape(-1, nb)
                hist[1, :, f] = np.bincount(b, weights=yv,
                                            minlength=size).reshape(-1, nb)
                hist[2, :, f] = np.bincount(b, weights=yv2,
                                            minlength=size).reshape(-1, nb)
            feature[lo:lo + batch], cut[lo:lo + batch] = _best_cuts(*hist)
        return feature, cut

    def _preorder(self, levels):
        """Node arrays in depth-first pre-order from per-level (value,
        feature, bin) arrays, where the children of a level's split nodes
        are the next level's nodes in (left, right) pairs."""
        sizes = [np.ones(len(levels[-1][0]), dtype=int)]
        for _, feature, _ in reversed(levels[:-1]):
            size = np.ones(len(feature), dtype=int)
            below = sizes[0]
            size[feature >= 0] += below[0::2] + below[1::2]
            sizes.insert(0, size)
        n_nodes = int(sizes[0][0])
        out_feature = np.full(n_nodes, -1)
        out_threshold = np.zeros(n_nodes)
        out_left = np.full(n_nodes, -1)
        out_right = np.full(n_nodes, -1)
        out_value = np.empty(n_nodes)
        edges = np.full((len(self.bin_edges), max(map(len, self.bin_edges))), np.nan)
        for f, e in enumerate(self.bin_edges):
            edges[f, :len(e)] = e
        order = np.zeros(1, dtype=int)
        for depth, (value, feature, cut) in enumerate(levels):
            out_value[order] = value
            split = feature >= 0
            if not split.any():
                break
            parent = order[split]
            out_feature[parent] = feature[split]
            out_threshold[parent] = edges[feature[split], cut[split]]
            left = parent + 1
            right = left + sizes[depth + 1][0::2]
            out_left[parent] = left
            out_right[parent] = right
            order = np.column_stack([left, right]).ravel()
        return out_feature, out_threshold, out_left, out_right, out_value

    # -- prediction ----------------------------------------------------------

    def _check_input(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.nodes is None:
            raise ValueError("forest is not fitted")
        if X.shape[1] != self.n_features:
            raise ValueError(f"feature layout mismatch: expected "
                             f"{self.n_features} features, got {X.shape[1]}")
        return X

    def tree_predictions(self, X):
        """(n_trees, n) matrix of individual tree outputs."""
        X = self._check_input(X)
        n_trees = len(self.nodes.roots)
        preds = np.empty((n_trees, len(X)))
        block = max(1, _WALK_CELLS // n_trees)
        for lo in range(0, len(X), block):
            preds[:, lo:lo + block] = self.nodes.walk(X[lo:lo + block])
        return preds

    def predict(self, X):
        """(mean, ensemble variance) arrays over the samples."""
        preds = self.tree_predictions(X)
        mean = preds.mean(axis=0)
        var = np.mean((preds - mean) ** 2, axis=0)
        return mean, var

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        if self.nodes is None:
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
            "trees": self.nodes.tree_payloads(),
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
        if len(forest.bin_edges) != forest.n_features:
            raise ValueError(f"{len(forest.bin_edges)} bin edge lists for "
                             f"{forest.n_features} features")
        if not payload["trees"]:
            raise ValueError("forest has no trees")
        forest.nodes = NodeTable([_checked_tree(t, i, forest.n_features)
                                  for i, t in enumerate(payload["trees"])])
        if len(payload["trees"]) != forest.n_trees:
            raise ValueError(f"header n_trees {forest.n_trees} but "
                             f"{len(payload['trees'])} trees")
        if forest.nodes.depth > forest.max_depth:
            raise ValueError(f"header max_depth {forest.max_depth} but a tree "
                             f"of depth {forest.nodes.depth}")
        return forest


def _checked_tree(tree, index, n_features):
    """A file tree's node arrays, or ValueError for a tree a walk could not
    finish on: children must come after their parent (pre-order), which
    also rules out cycles."""
    cols = [np.asarray(tree[key]) for key in
            ("feature", "threshold", "left", "right", "value")]
    feature, threshold, left, right, value = cols
    n = len(feature)
    where = f"tree {index}"
    if n == 0 or any(c.shape != (n,) for c in cols):
        raise ValueError(f"{where}: node lists must be non-empty and of equal length")
    if any(c.dtype.kind not in "iu" for c in (feature, left, right)):
        raise ValueError(f"{where}: feature, left and right must be integers")
    threshold = threshold.astype(float)
    value = value.astype(float)
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise ValueError(f"{where}: non-finite threshold or value")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"{where}: feature index outside [-1, {n_features})")
    leaf = feature == -1
    if ((left[leaf] != -1) | (right[leaf] != -1)).any():
        raise ValueError(f"{where}: a leaf has children")
    node = np.flatnonzero(~leaf)
    for child in (left[~leaf], right[~leaf]):
        if ((child <= node) | (child >= n)).any():
            raise ValueError(f"{where}: a child index is not after its node")
    return feature, threshold, left, right, value


def train_forest(features, targets, seed, feature_layout=None,
                 **hyperparams) -> RegressionForest:
    """Convenience constructor-plus-fit; hyperparams go to RegressionForest."""
    forest = RegressionForest(seed=seed, **hyperparams)
    return forest.fit(features, targets, feature_layout=feature_layout)
