"""Random forest regression with an ensemble-variance uncertainty estimate.

Bootstrap-sampled regression trees grown with variance-reduction splits over
quantile-binned feature values.  The prediction is the mean of the tree
outputs; the reported variance is the mean squared deviation of the tree
outputs from that mean, which feeds the tracker's measurement noise.
Training is deterministic for a given seed: every tree draws its bootstrap
sample from its own RNG stream spawned from the seed.  The targets are
fitted as integers (scaled_targets), so every count, sum and histogram cell
of a tree is exact, whatever order its rows are added up in.

All nodes of a forest live in one `NodeTable`.  Trees are grown level by
level, with the histograms and split searches of a level's nodes batched,
and keep their nodes in that order.  Only the forest file numbers them in
depth-first pre-order.
"""

import json
import math

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
# bound on the (node, feature, bin) cells of a level's histograms held
# whole, from which the next level's come by subtraction: 2 MB, whatever
# the number of rows
_LEVEL_CELLS = 1 << 17


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


def scaled_targets(y):
    """(y_int, e): the targets times 2**e, rounded to integers, where e
    makes len(y) * max|y_int| less than 2**53.

    A tree's bootstrap sample holds len(y) draws, so every count, sum and
    difference of sums of these targets that a tree forms, however its
    rows are weighted, is an exact float64 integer, whatever order it is
    added up in.  Rounding moves a target by at most 2**-(e + 1), which
    is at most max|y| * len(y) * 2**-51.
    """
    peak = float(np.abs(y).max())
    # len(y) < 2**bit_length and peak < 2**frexp exponent, and the
    # rounding adds at most len(y) / 2 to a sum
    exponent = 0 if peak == 0.0 else 52 - math.frexp(peak)[1] - len(y).bit_length()
    return np.rint(np.ldexp(y, exponent)), exponent


def _histograms(binned, weight, weighted, rows, bounds, nodes, n_bins):
    """(2, len(nodes), n_features, n_bins) cumulative histograms of the
    listed nodes of a level: per feature, the running sums over the bins
    of the multiplicity (`weight`) and of the multiplicity times scaled
    target (`weighted`) of the node's rows, which are
    rows[bounds[k]:bounds[k + 1]] for node k.

    One bincount per feature and statistic, keyed by (node slot, bin).
    With the targets of scaled_targets every cell is an exact integer, so
    it has the same bits whatever order the rows come in.
    """
    sel = np.concatenate([rows[bounds[k]:bounds[k + 1]] for k in nodes])
    key = np.repeat(np.arange(len(nodes)) * n_bins, bounds[nodes + 1] - bounds[nodes])
    sub = binned[sel]
    w, wy = weight[sel], weighted[sel]
    size = len(nodes) * n_bins
    hist = np.empty((2, len(nodes), binned.shape[1], n_bins))
    for f in range(binned.shape[1]):
        b = key + sub[:, f]
        hist[0, :, f] = np.bincount(b, weights=w, minlength=size).reshape(-1, n_bins)
        hist[1, :, f] = np.bincount(b, weights=wy, minlength=size).reshape(-1, n_bins)
    return np.cumsum(hist, axis=3, out=hist)


def _child_histograms(parent_hist, parents, binned, weight, weighted, rows,
                      bounds, n_bins):
    """_histograms of every node of a level from those of the previous
    level: nodes 2i and 2i + 1 are the children of node parents[i].  The
    child with fewer rows is binned and its sibling gets the parent's
    histograms minus its own."""
    size = np.diff(bounds)
    left = np.arange(0, len(size), 2)
    small = np.where(size[left] <= size[left + 1], left, left + 1)
    hist = np.empty((2, len(size)) + parent_hist.shape[2:])
    hist[:, small] = _histograms(binned, weight, weighted, rows, bounds, small, n_bins)
    # one subtraction per parent, in place: a single indexed one would
    # add three half-level temporaries to the fit's peak memory
    for parent, child in zip(parents.tolist(), small.tolist()):
        np.subtract(parent_hist[:, parent], hist[:, child], out=hist[:, child ^ 1])
    return hist


def _best_cuts(hist, keys):
    """Best (feature, bin) cut of each node from its _histograms.

    A cut at bin b sends bins <= b left.  With (cn, cs) the count and sum
    of its left rows and (rn, rs) those of its right rows, the children's
    squared error is the node's sum of squares minus
    cs^2 / cn + rs^2 / rn, so the best cut maximises that.  Cuts that
    make the same partition have the same exact counts and sums, so they
    tie exactly.  In one feature they are a run of cuts with no row of
    the node between them, and the first of the run is taken.  Between
    features the tie goes to the lowest of the node's `keys`, one random
    number per feature, so that each node of each tree breaks its ties
    its own way (as scikit-learn does by visiting the features in a random
    order) and the trees do not all favour one feature.
    Returns (feature, bin) arrays, feature -1 where no cut has rows on
    both sides or the best one leaves both children the node's mean
    (cs * rn == rs * cn), as in a node of equal targets.
    """
    # the last running sum of any feature is the node's total
    total_n, total_s = hist[:, :, :1, -1:]
    cn, cs = hist[:, :, :, :-1]
    rn = total_n - cn
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.square(cs)
        score /= cn
        right = np.subtract(total_s, cs)
        np.square(right, out=right)
        right /= rn
        score += right
    # a side without rows gives 0 / 0
    score[np.isnan(score)] = -np.inf
    first = np.argmax(score, axis=2)    # each feature's first best cut
    best = np.take_along_axis(score, first[:, :, None], 2)[:, :, 0]
    feature = np.argmin(np.where(best == best.max(axis=1, keepdims=True), keys, 2.0),
                        axis=1)
    node = np.arange(len(feature))
    cut = first[node, feature]
    cn, cs, rn = cn[node, feature, cut], cs[node, feature, cut], rn[node, feature, cut]
    ok = (cn > 0) & (rn > 0) & (cs * rn != (total_s.ravel() - cs) * cn)
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
        y_int, exponent = scaled_targets(y)
        seqs = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.nodes = NodeTable([
            self._grow_tree(binned, y_int, exponent, np.random.default_rng(seq))
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

    def _grow_tree(self, binned, y_int, exponent, rng):
        """One tree on a bootstrap sample, grown a level at a time.

        The draw is kept as each row's multiplicity, so a node holds each
        of its rows once.  With the integer targets of scaled_targets, a
        node's count, sum and histogram cells are exact integers, so they
        do not depend on the order of its rows, and a node's value is
        sum / count * 2**-exponent, one rounding.  That lets the children
        of a split bin only the smaller child's rows and take the larger
        child's histograms as the parent's minus the smaller's (Ke et al.,
        "LightGBM", NeurIPS 2017), with the bits binning would give.  A
        level's histograms are held whole while they fit in _LEVEL_CELLS;
        past that its nodes are binned a batch at a time and the next
        level bins all of its own.  After the draw, the tree's RNG gives
        each level one _best_cuts key per (node, feature).
        Returns the (feature, threshold, left, right, value) node arrays in
        growth order, the levels concatenated: the children of the i-th
        split node are nodes 2i + 1 and 2i + 2.
        """
        n = len(y_int)
        weight = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        weighted = weight * y_int
        n_features = binned.shape[1]
        n_bins = max(len(e) for e in self.bin_edges) + 1
        cells = n_features * n_bins             # (feature, bin) cells of a node
        batch = max(1, _FIT_CELLS // cells)
        rows = np.flatnonzero(weight)
        bounds = np.array([0, len(rows)])
        hist = None     # the level's histograms, when held whole
        levels = []     # (value, feature, bin) of each level's nodes
        for depth in range(self.max_depth + 1):
            starts = bounds[:-1]
            value = np.ldexp(np.add.reduceat(weighted[rows], starts)
                             / np.add.reduceat(weight[rows], starts), -exponent)
            feature = np.full(len(value), -1)
            cut = np.zeros(len(value), dtype=int)
            if depth < self.max_depth:
                keys = rng.random((len(value), n_features))
                # a node of equal targets finds no cut, so it is not binned
                yv = y_int[rows]
                nodes = np.flatnonzero(np.maximum.reduceat(yv, starts)
                                       != np.minimum.reduceat(yv, starts))
                if len(value) * cells > _LEVEL_CELLS:
                    hist = None
                elif hist is not None:
                    hist = _child_histograms(hist, parents, binned, weight, weighted,
                                             rows, bounds, n_bins)
                elif len(nodes):
                    hist = np.zeros((2, len(value), n_features, n_bins))
                    hist[:, nodes] = _histograms(binned, weight, weighted, rows,
                                                 bounds, nodes, n_bins)
                if hist is not None:
                    # slices of the whole level, searched in place
                    parts = [slice(lo, lo + batch)
                             for lo in range(0, len(value), batch)]
                else:
                    parts = [nodes[lo:lo + batch] for lo in range(0, len(nodes), batch)]
                for part in parts:
                    feature[part], cut[part] = _best_cuts(
                        hist[:, part] if hist is not None else _histograms(
                            binned, weight, weighted, rows, bounds, part, n_bins),
                        keys[part])
            levels.append((value, feature, cut))
            split = feature >= 0
            if not split.any():
                break
            parents = np.flatnonzero(split)
            node_of = np.repeat(np.arange(len(value)), np.diff(bounds))
            keep = split[node_of]
            rows, node_of = rows[keep], node_of[keep]
            go_right = binned[rows, feature[node_of]] > cut[node_of]
            child = 2 * (np.cumsum(split) - 1)[node_of] + go_right
            rows = rows[np.argsort(child, kind="stable")]
            bounds = np.concatenate(
                [[0], np.cumsum(np.bincount(child, minlength=2 * len(parents)))])
        value, feature, cut = map(np.concatenate, zip(*levels))
        split = feature >= 0
        threshold = np.array([self.bin_edges[f][c] if f >= 0 else 0.0
                              for f, c in zip(feature.tolist(), cut.tolist())])
        left = np.where(split, 2 * np.cumsum(split) - 1, -1)
        right = np.where(split, left + 1, -1)
        return feature, threshold, left, right, value

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
