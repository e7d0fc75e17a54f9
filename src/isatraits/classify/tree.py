"""CART decision trees (Gini impurity) and bootstrap random forests.

Trees grow without a depth limit and split nodes of >= 2 samples. Among
equal-gain splits the lowest feature index wins, then the lowest
threshold; zero-gain nodes become leaves. Thresholds are midpoints
between adjacent distinct sorted values; x[feature] <= threshold goes
left. Forest trees see a bootstrap sample and draw sqrt(d) candidate
features per split from a per-tree seeded generator.

Layout. A tree is five parallel arrays over its nodes in preorder (root
0, a node's left child right after it): feature (int64, -1 at a leaf),
threshold (float64, 0.0 at a leaf), left and right (int64 child indices,
-1 at a leaf) and value (int64, the majority class of the node's
training samples, lowest class on ties). Children always have larger
indices than their parent, so every walk from the root ends.

Growth. Nodes are expanded from an explicit stack (right child pushed
before left), which visits them in the same preorder as a recursive
grower and has no recursion-depth limit. A forest grows BLOCK_TREES trees
in lock-step: each step pops from every tree of the block its next node
that needs a split, draws that node's feature subset from the tree's own
generator, and scores every (node, candidate feature) column of the step
in one vectorised pass. Each generator therefore makes its bootstrap draw
and its per-node draws in the same order as one-tree-at-a-time growth. A
column sorts its rows by the key (rank of the value within its feature,
class), with ranks computed once per fit; that orders them as a stable
argsort of the values does, up to the order inside groups of equal
values, and a cut only falls between such groups, so the class counts on
each side of every cut are the same. The gain arithmetic is the
per-feature formula in the same float operation order, so the trees are
identical node for node to growing each tree recursively, one feature at
a time (tests/oracles.py keeps that grower as the reference). The block
bounds the (rows x columns x classes) temporaries of a step; a decision
tree is the same grower with one tree and all features.

Prediction advances the node indices of all (row, tree) pairs together,
one tree level per step. Forest votes are summed and ties go to the
lowest class index.
"""

from __future__ import annotations

from typing import Any

import numpy as np

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")

# Forest trees grown in lock-step: enough to amortise the per-step numpy
# calls, few enough to keep a step's temporaries small.
BLOCK_TREES = 25
# Cells (rows x columns x classes) scored in one vectorised pass; a step
# with more columns (a decision tree on 65536 bigram features) is scored
# in column chunks.
CHUNK_CELLS = 1 << 19


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(1.0 - np.dot(p, p))


class _Growing:
    """One tree while it grows: its node lists, its stack of (rows,
    parent, is_left) still to expand and its feature generator."""

    def __init__(self, rows: np.ndarray, rng: np.random.Generator | None):
        self.rng = rng
        self.stack: list[tuple[np.ndarray, int, bool]] = [(rows, -1, True)]
        self.nodes: dict[str, list] = {name: [] for name in TREE_FIELDS}

    def next_split(self, y: np.ndarray, n_classes: int, n_features: int, subset_size: int | None):
        """Pop nodes, finishing those that cannot split as leaves, up to the
        next one that needs a split: (node, rows, counts, feature subset),
        or None once the tree is complete."""
        nodes = self.nodes
        while self.stack:
            rows, parent, is_left = self.stack.pop()
            node = len(nodes["value"])
            if parent >= 0:
                nodes["left" if is_left else "right"][parent] = node
            counts = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
            tally = counts.tolist()
            top = max(tally)
            nodes["feature"].append(-1)
            nodes["threshold"].append(0.0)
            nodes["left"].append(-1)
            nodes["right"].append(-1)
            nodes["value"].append(tally.index(top))  # first max = lowest class
            if rows.size < 2 or top == rows.size:
                continue
            if self.rng is not None:
                features = np.sort(self.rng.choice(n_features, size=subset_size, replace=False))
            else:
                features = np.arange(n_features)
            return node, rows, counts, features
        return None

    def split(self, node: int, rows: np.ndarray, feature: int, threshold: float, X: np.ndarray):
        self.nodes["feature"][node] = feature
        self.nodes["threshold"][node] = threshold
        go_left = X[rows, feature] <= threshold
        self.stack.append((rows[~go_left], node, False))
        self.stack.append((rows[go_left], node, True))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            name: np.asarray(values, dtype=np.float64 if name == "threshold" else np.int64)
            for name, values in self.nodes.items()
        }


def _impurity(counts_of, n: np.ndarray, n_classes: int) -> np.ndarray:
    """Gini impurity 1 - sum_k (counts_of(k) / n)**2 with the class sum in
    the order np.sum adds one node's row of class shares: left to right
    below 8 classes, numpy's pairwise order from 8 on. Classes are taken
    one at a time, so no (classes x columns x positions) float array is
    made below 8 classes."""
    if n_classes >= 8:
        shares = np.stack([counts_of(k) / n for k in range(n_classes)], axis=-1)
        return 1.0 - np.sum(shares ** 2, axis=-1)
    total = (counts_of(0) / n) ** 2
    for k in range(1, n_classes):
        total += (counts_of(k) / n) ** 2
    return 1.0 - total


def _column_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column: ranks rise with the
    value, equal values share one and NaN takes rank n, above them all. So
    sorting a node's rows by rank orders them as by value, and a step in
    rank below n is exactly a step up in value."""
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.int32)
    step = max(1, CHUNK_CELLS // n)
    for a in range(0, d, step):
        block = X[:, a:a + step]
        order = np.argsort(block, axis=0)
        ordered = np.take_along_axis(block, order, axis=0)
        rising = np.zeros(ordered.shape, dtype=np.int32)
        rising[1:] = ordered[1:] != ordered[:-1]
        np.put_along_axis(ranks[:, a:a + step], order, rising.cumsum(axis=0, dtype=np.int32), axis=0)
    ranks[np.isnan(X)] = n
    return ranks


def _score_columns(
    keys: np.ndarray,
    n_classes: int,
    top_rank: int,
    col_counts: np.ndarray,
    col_n: np.ndarray,
    col_parent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best gain of each column, one node's rows on one feature given as
    keys rank * n_classes + class (pads and NaN rank top_rank or above),
    with the ranks on either side of its cut. A column with no two
    distinct values gets gain -inf.

    Only sums over whole groups of equal values reach a cut, so the order
    of rows within a group is free and a plain sort of the keys gives the
    class prefix counts the per-feature stable argsort gives."""
    keys = np.sort(keys, axis=1)
    ranks = keys // n_classes
    onehot = (keys - ranks * n_classes == np.arange(n_classes)[:, None, None]).view(np.int8)

    prefix = np.add.accumulate(onehot, axis=2, dtype=np.int32)[:, :, :-1]
    left_n = np.arange(1, keys.shape[1], dtype=np.float64)
    right_n = col_n[:, None] - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # pad positions, masked below
        gini_left = _impurity(lambda k: prefix[k], left_n, n_classes)
        gini_right = _impurity(lambda k: col_counts[:, k, None] - prefix[k], right_n, n_classes)
        gains = col_parent[:, None] - (left_n * gini_left + right_n * gini_right) / col_n[:, None]
    cut = (ranks[:, 1:] > ranks[:, :-1]) & (ranks[:, 1:] < top_rank)
    gains = np.where(cut, gains, -np.inf)

    pos = np.argmax(gains, axis=1)  # first max = lowest threshold
    columns = np.arange(keys.shape[0])
    return gains[columns, pos], ranks[columns, pos], ranks[columns, pos + 1]


def _best_splits(X, ranks, y, n_classes, pending) -> list[tuple[int, float] | None]:
    """(feature, threshold) of the best split of every pending node, or
    None where no split has positive gain. pending holds (rows, counts,
    sorted feature subset) with subsets of one size."""
    n = X.shape[0]
    sizes = np.array([rows.size for rows, _, _ in pending])
    width = pending[0][2].size
    depth = int(sizes.max())
    rows_pad = np.zeros((len(pending), depth), dtype=np.intp)
    for j, (rows, _, _) in enumerate(pending):
        rows_pad[j, : rows.size] = rows
    pad = np.arange(depth) >= sizes[:, None]
    labels = y[rows_pad].astype(np.int32)

    # Column c scores feature subset[c % width] of node c // width.
    col_node = np.repeat(np.arange(len(pending)), width)
    col_feature = np.concatenate([features for _, _, features in pending])
    col_counts = np.stack([counts for _, counts, _ in pending])[col_node]
    col_n = sizes[col_node].astype(np.float64)
    col_parent = np.array([_gini(counts, rows.size) for rows, counts, _ in pending])[col_node]

    chunk = max(1, CHUNK_CELLS // (depth * n_classes))
    scored = []
    for a in range(0, col_node.size, chunk):
        cols = slice(a, a + chunk)
        nodes = col_node[cols]
        keys = ranks[rows_pad[nodes], col_feature[cols, None]] * n_classes + labels[nodes]
        keys[pad[nodes]] = n * n_classes
        scored.append(_score_columns(keys, n_classes, n, col_counts[cols], col_n[cols],
                                     col_parent[cols]))
    gains, low, high = (np.concatenate(part).reshape(len(pending), width) for part in zip(*scored))

    nodes = np.arange(len(pending))
    best = np.argmax(gains, axis=1)  # first max = lowest feature
    feature = col_feature.reshape(len(pending), width)[nodes, best]
    # Any row holding a rank holds its value (or the other signed zero,
    # which leaves the midpoint of two distinct values unchanged).
    below = X[np.argmax(ranks[:, feature] == low[nodes, best], axis=0), feature]
    above = X[np.argmax(ranks[:, feature] == high[nodes, best], axis=0), feature]
    with np.errstate(invalid="ignore"):  # -inf + inf; replaced below
        thresholds = (below + above) / 2.0
    # A midpoint that rounds up to the upper value (adjacent floats, or an
    # infinite sum) becomes the lower one, so the split still separates the
    # rows it was scored on and both children are smaller than the node.
    thresholds = np.where(thresholds < above, thresholds, below)
    return [(int(f), float(t)) if g > 0.0 else None
            for g, f, t in zip(gains[nodes, best], feature, thresholds)]


def _grow(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    roots: list[tuple[np.ndarray, np.random.Generator | None]],
    subset_size: int | None,
) -> list[dict[str, np.ndarray]]:
    """Grow one tree per (root rows, generator) in lock-step."""
    trees = [_Growing(rows, rng) for rows, rng in roots]
    while True:
        pending = []
        for tree in trees:
            nxt = tree.next_split(y, n_classes, X.shape[1], subset_size)
            if nxt is not None:
                pending.append((tree, *nxt))
        if not pending:
            return [tree.arrays() for tree in trees]
        splits = _best_splits(X, ranks, y, n_classes, [p[2:] for p in pending])
        for (tree, node, rows, _, _), split in zip(pending, splits):
            if split is not None:
                tree.split(node, rows, *split, X)


def train_tree(X: np.ndarray, y: np.ndarray, n_classes: int) -> dict[str, Any]:
    roots = [(np.arange(X.shape[0]), None)]
    return {"tree": _grow(X, _column_ranks(X), y, n_classes, roots, None)[0]}


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int,
    seed: int,
) -> dict[str, Any]:
    n, d = X.shape
    subset_size = max(1, int(np.sqrt(d)))
    ranks = _column_ranks(X)
    trees: list[dict[str, np.ndarray]] = []
    for start in range(0, n_trees, BLOCK_TREES):
        roots = []
        for t in range(start, min(start + BLOCK_TREES, n_trees)):
            rng = np.random.default_rng([seed, t])
            roots.append((rng.integers(0, n, size=n), rng))
        trees.extend(_grow(X, ranks, y, n_classes, roots, subset_size))
    return {"trees": trees}


def check_tree(tree: dict[str, np.ndarray], n_features: int, n_classes: int) -> None:
    """Raise ValueError unless the arrays form a tree that predict can walk:
    equal non-empty lengths, features in [-1, n_features), each internal
    node's children after it and inside the tree, classes in
    [0, n_classes) and finite thresholds."""
    size = tree["value"].size
    if size == 0 or any(tree[name].shape != (size,) for name in TREE_FIELDS):
        raise ValueError("tree arrays must be one-dimensional, non-empty and of equal length")
    feature = tree["feature"]
    if feature.min() < -1 or feature.max() >= n_features:
        raise ValueError(f"tree feature index outside [-1, {n_features})")
    internal = np.nonzero(feature >= 0)[0]
    for name in ("left", "right"):
        child = tree[name][internal]
        if np.any(child <= internal) or np.any(child >= size):
            raise ValueError(f"tree {name} child must lie after its node and inside the tree")
    if tree["value"].min() < 0 or tree["value"].max() >= n_classes:
        raise ValueError(f"tree class outside [0, {n_classes})")
    if not np.all(np.isfinite(tree["threshold"])):
        raise ValueError("tree threshold is not finite")


def _leaf_values(trees: list[dict[str, np.ndarray]], Q: np.ndarray) -> np.ndarray:
    """Leaf class of every (row, tree), walking all pairs one level per step."""
    sizes = [tree["value"].size for tree in trees]
    offsets = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = (
        np.concatenate([tree[name] for tree in trees]) for name in TREE_FIELDS
    )
    shift = np.repeat(offsets, sizes)
    left = left + shift
    right = right + shift

    node = np.tile(offsets, (Q.shape[0], 1))
    rows = np.arange(Q.shape[0])[:, None]
    while True:
        f = feature[node]
        internal = f >= 0
        if not internal.any():
            return value[node]
        go_left = Q[rows, f] <= threshold[node]  # at a leaf, f = -1 reads a column unused
        node = np.where(internal, np.where(go_left, left[node], right[node]), node)


def predict_tree_indices(params: dict[str, Any], Q: np.ndarray) -> np.ndarray:
    return _leaf_values([params["tree"]], Q)[:, 0]


def predict_forest_indices(params: dict[str, Any], Q: np.ndarray, n_classes: int) -> np.ndarray:
    leaves = _leaf_values(params["trees"], Q)
    slots = np.arange(Q.shape[0])[:, None] * n_classes + leaves
    votes = np.bincount(slots.ravel(), minlength=Q.shape[0] * n_classes)
    return np.argmax(votes.reshape(Q.shape[0], n_classes), axis=1)  # ties go to the lowest class
