"""Random forest regression with an ensemble-variance uncertainty estimate.

Bootstrap-sampled regression trees grown with variance-reduction splits over
quantile-binned feature values.  The prediction is the mean of the tree
outputs; the reported variance is the mean squared deviation of the tree
outputs from that mean, which feeds the tracker's measurement noise.
Training is deterministic for a given seed: every tree draws its bootstrap
sample from its own RNG stream spawned from the seed.

All nodes of a forest live in one `NodeTable`.  Trees are grown level by
level, with the histograms and split searches of a level's nodes batched,
and keep their nodes in that order.  Only the forest file numbers them in
depth-first pre-order.
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

    Tree t's nodes are roots[t] up to the next root, each child after its
    parent: in growth order when fitted, in pre-order when loaded.  A split
    node sends x[feature] <= threshold to `left` (so NaN goes right); a leaf
    has feature -1 and points at itself, so a walk of `depth` steps from
    the roots ends at a leaf in every tree.
    """

    def __init__(self, trees):
        """trees: per-tree (feature, threshold, left, right, value) arrays,
        children as tree-local indices after their parent, -1 at leaves."""
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
        """Per-tree payloads of the forest file: node lists in depth-first
        pre-order, left child first, tree-local children, -1 at leaves."""
        leaf = self.feature < 0
        left, right = self.left.tolist(), self.right.tolist()
        out = []
        for root in self.roots.tolist():
            # an explicit stack, as a tree's depth has no upper bound
            order, stack = [], [root]
            while stack:
                node = stack.pop()
                order.append(node)
                if left[node] != node:      # a leaf points at itself
                    stack += (right[node], left[node])
            order = np.array(order)
            rank = np.argsort(order)
            children = np.where(leaf[order], -1, rank[
                np.stack([self.left[order], self.right[order]]) - root])
            out.append({"feature": self.feature[order].tolist(),
                        "threshold": self.threshold[order].tolist(),
                        "left": children[0].tolist(), "right": children[1].tolist(),
                        "value": self.value[order].tolist()})
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


def _best_cuts(hist):
    """Best (feature, bin) cut of each node by squared-error reduction.

    hist is the (3, nodes, n_features, n_bins) buffer of per-bin counts,
    sums and sums of squares of each node's samples; it is overwritten.
    A cut at bin b sends bins <= b left.  Ties go to the lowest feature,
    then the lowest bin.  Returns (feature, bin) arrays, feature -1 where
    no cut reduces the error.
    """
    # the totals come from the bins (a pairwise sum), not from the
    # running sums' last cells (a sequential one)
    total_n, total_s, total_ss = hist[:, :, 0].sum(axis=2)[:, :, None, None]
    parent_sse = (total_ss - total_s ** 2 / total_n).ravel()

    np.cumsum(hist, axis=3, out=hist)
    cn, cs, css = hist[:, :, :, :-1]
    valid = cn > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # sse = (css - cs^2 / cn) + ((total_ss - css) - (total_s - cs)^2 / rn),
        # each operation in that order, the running sums overwritten
        sse = np.square(cs)
        sse /= cn
        np.subtract(css, sse, out=sse)
        rn = np.subtract(total_n, cn, out=cn)
        valid &= rn > 0
        right = np.subtract(total_s, cs, out=cs)
        np.square(right, out=right)
        right /= rn
        np.subtract(total_ss, css, out=css)
        css -= right
        sse += css
    sse[~valid] = np.inf
    sse = sse.reshape(len(sse), -1)
    flat = np.argmin(sse, axis=1)
    best = sse[np.arange(len(flat)), flat]
    ok = np.isfinite(best) & (parent_sse - best > 1e-12)
    feature, cut = np.divmod(flat, hist.shape[3] - 1)
    return np.where(ok, feature, -1), cut


def row_blocks(n, size):
    """(start, stop) of consecutive blocks of about `size` (at least 2)
    rows that cover n rows.

    No block holds a single row unless n is 1: numpy sums the tree outputs
    of a lone row pairwise but those of several rows one tree after
    another, so a lone row would change the bits of its mean.
    """
    starts = list(range(0, n, max(2, size)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


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
        grower would.  Returns the (feature, threshold, left, right, value)
        node arrays in growth order, the levels concatenated: the children
        of the i-th split node are nodes 2i + 1 and 2i + 2.
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
        value, feature, cut = map(np.concatenate, zip(*levels))
        split = feature >= 0
        threshold = np.array([self.bin_edges[f][c] if f >= 0 else 0.0
                              for f, c in zip(feature.tolist(), cut.tolist())])
        left = np.where(split, 2 * np.cumsum(split) - 1, -1)
        right = np.where(split, left + 1, -1)
        return feature, threshold, left, right, value

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
            feature[lo:lo + batch], cut[lo:lo + batch] = _best_cuts(hist)
        return feature, cut

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
        """(mean, ensemble variance) arrays over the samples, computed one
        walk block of rows at a time."""
        X = self._check_input(X)
        mean = np.empty(len(X))
        var = np.empty(len(X))
        for lo, hi in row_blocks(len(X), _WALK_CELLS // len(self.nodes.roots)):
            preds = self.tree_predictions(X[lo:hi])
            mean[lo:hi] = preds.mean(axis=0)
            preds -= mean[lo:hi]
            np.square(preds, out=preds)
            var[lo:hi] = preds.mean(axis=0)
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
