"""CART decision trees (Gini impurity) and bootstrap random forests.

Trees grow without a depth limit and split nodes of >= 2 samples. Among
equal-gain splits the lowest feature index wins, then the lowest
threshold; zero-gain nodes become leaves. Thresholds are midpoints
between adjacent distinct sorted values; x[feature] <= threshold goes
left. Forest trees see a bootstrap sample and draw floor(sqrt(d))
candidate features per split.

Forest draws. Every random number of a forest fit is a pure function of
(seed, tree, node draw, slot), a counter-based draw (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) built from
SplitMix64 streams: the seed, folded into one 64-bit word by numpy's
SeedSequence, keys a stream whose output t keys tree t; a tree's node draw
c keys the stream of its c-th draw, c = 0 being its bootstrap and c = 1, 2,
... its nodes to split in preorder; and slot s of that stream is the draw's
s-th value. So no tree keeps a generator: one array operation draws every
tree's bootstrap, and one the feature subsets of all the nodes a step
splits.

Layout. A tree is five parallel arrays over its nodes in preorder (root
0, a node's left child right after it): feature (int64, -1 at a leaf),
threshold (float64, 0.0 at a leaf), left and right (int64 child indices,
-1 at a leaf) and value (int64, the majority class of the node's
training samples, lowest class on ties). Children always have larger
indices than their parent, so every walk from the root ends.

Growth. All trees of one fit grow together in lock-step, their state held
in flat arrays (_Nodes) rather than per tree: every node's tree, depth,
class counts and split, and one row buffer in which each tree's sample
rows sit and every node's rows form one segment, partitioned in place as
nodes split. Each tree keeps a stack of its nodes that can still split
(two or more rows, not all of one class), linked through the arrays. A
step pops the top node of every tree's stack, draws each such node's
feature subset, scores every (node, candidate feature) column of the step
in one vectorised pass, and for the nodes with a positive-gain split
partitions their segments, bincounts the children's classes and pushes
the right child, then the left, of those that can split. So each tree's
nodes are split, and numbered by its node draws, in the preorder a
recursive grower visits them in. Leaves never enter a stack; when the
last stack empties, subtree sizes summed level by level give every node
its preorder index.

A column sorts its rows by the key (rank of the value within its feature,
class), with ranks computed once per fit; that orders them as a stable
argsort of the values does, up to the order inside groups of equal
values, and a cut only falls between such groups, so the class counts on
each side of every cut are the same. The gain arithmetic is the
per-feature formula in the same float operation order, so, given the same
draws, the trees are identical node for node to growing each tree
recursively, one feature at a time (tests/oracles.py keeps that grower,
and the draws as a loop over Python ints, as the reference). A step's
columns are scored in chunks of CHUNK_CELLS (rows x columns x classes),
which bounds its temporaries whatever the number of trees; a decision
tree is the same grower with one tree and all features.

Prediction advances the node indices of all (row, tree) pairs together,
one tree level per step. Forest votes are summed and ties go to the
lowest class index; a decision tree votes as a forest of one. A model
file's tree loads only as one predict can walk: five arrays of one
non-empty length, finite thresholds, feature indices in [-1, n_features),
classes inside the class labels, and each child after its node and inside
the tree; a forest loads only with its spec's tree count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .arrays import checked_array

if TYPE_CHECKING:
    from .base import ClassifierSpec

TREE_FIELDS = ("feature", "threshold", "left", "right", "value")

# Cells (rows x columns x classes) scored in one vectorised pass; a step
# with more (a forest's first steps, or a decision tree on 65536 bigram
# features) is scored in column chunks. On a 100-tree fit of 130 rows x 16
# features, the first step took 4.8 ms at 1 << 14 and the fit's
# tracemalloc peak was 1.3 MiB; 1 << 16 took 5.4 ms and 2.7 MiB (its
# temporaries outgrow the cache), 1 << 12 7.5 ms.
CHUNK_CELLS = 1 << 14


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


def _best_splits(X, ranks, keys, n_classes, rows, start, size, counts, subsets):
    """(feature, threshold, split) of the best split of every node j whose
    rows are rows[start[j]:start[j] + size[j]], with class counts counts[j]
    and sorted feature subset subsets[j]; split[j] is False where no split
    has positive gain. keys[f, i] is rank * n_classes + class of row i on
    feature f, and keys[f, n] the pad key, above every rank."""
    n = X.shape[0]
    k, width = subsets.shape
    depth = int(size.max())
    offsets = np.arange(depth)
    # Row j: node j's rows, then the pad row n up to the largest node's size.
    rows_pad = rows[np.minimum(start[:, None] + offsets, rows.size - 1)]
    rows_pad[offsets >= size[:, None]] = n

    # Column c scores feature subsets[c // width, c % width] of node c // width.
    counts = counts.astype(np.float64)
    col_node = np.repeat(np.arange(k), width)
    col_feature = subsets.ravel()
    col_counts = counts[col_node]
    col_n = size[col_node].astype(np.float64)
    # Gini 1 - p.p by one np.dot per node: a vectorised sum may round otherwise.
    shares = counts / size[:, None]
    col_parent = (1.0 - np.array([np.dot(p, p) for p in shares]))[col_node]

    chunk = max(1, CHUNK_CELLS // (depth * n_classes))
    scored = []
    for a in range(0, col_node.size, chunk):
        cols = slice(a, a + chunk)
        scored.append(_score_columns(keys[col_feature[cols, None], rows_pad[col_node[cols]]],
                                     n_classes, n, col_counts[cols], col_n[cols], col_parent[cols]))
    gains, low, high = (np.concatenate(part).reshape(k, width) for part in zip(*scored))

    nodes = np.arange(k)
    best = np.argmax(gains, axis=1)  # first max = lowest feature
    feature = subsets[nodes, best]
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
    return feature, thresholds, gains[nodes, best] > 0.0


class _Nodes:
    """The nodes of the trees being grown, in creation order, as growable
    arrays: each node's tree and depth, the segment rows[start:start + size]
    of the row buffer holding its rows, its class counts and majority
    class, its split (feature -1 at a leaf; the left child is first_child,
    the right one the next node) and the node below it on its tree's stack
    of nodes still to split (-1 at the bottom)."""

    FIELDS = ("tree", "depth", "start", "size", "value", "feature", "first_child", "below")

    def __init__(self, n_classes: int, capacity: int):
        self.count = 0
        self.ints = np.empty((len(self.FIELDS), capacity), dtype=np.int64)
        self.threshold = np.empty(capacity, dtype=np.float64)
        self.counts = np.empty((capacity, n_classes), dtype=np.int64)
        self._views()

    def _views(self) -> None:
        for name, row in zip(self.FIELDS, self.ints):
            setattr(self, name, row)

    def add(self, tree, depth, start, size, counts) -> np.ndarray:
        """Append leaves (to be split later, perhaps); return their ids."""
        ids = np.arange(self.count, self.count + tree.size)
        self.count += tree.size
        if self.count > self.threshold.size:
            more = max(self.count, 2 * self.threshold.size) - self.threshold.size
            self.ints = np.pad(self.ints, ((0, 0), (0, more)))
            self.threshold = np.pad(self.threshold, (0, more))
            self.counts = np.pad(self.counts, ((0, more), (0, 0)))
            self._views()
        self.tree[ids], self.depth[ids], self.start[ids], self.size[ids] = tree, depth, start, size
        self.value[ids] = np.argmax(counts, axis=1)  # first max = lowest class
        self.feature[ids] = self.first_child[ids] = self.below[ids] = -1
        self.threshold[ids] = 0.0
        self.counts[ids] = counts
        return ids

    def can_split(self, ids: np.ndarray) -> np.ndarray:
        """Which nodes hold two or more rows, not all of one class."""
        size = self.size[ids]
        return (size >= 2) & (self.counts[ids].max(axis=1) < size)

    def trees(self, n_trees: int) -> list[dict[str, np.ndarray]]:
        """One preorder array tree per tree. A node's index in its tree is
        its parent's plus one, plus the left subtree's size for a right
        child; subtree sizes are summed bottom-up and indices handed out
        top-down, one depth level of split nodes at a time."""
        count = self.count
        feature, first = self.feature[:count], self.first_child[:count]
        split = np.flatnonzero(feature >= 0)
        split = split[np.argsort(self.depth[split], kind="stable")]
        bounds = np.flatnonzero(np.diff(self.depth[split])) + 1
        levels = [split[a:b] for a, b in zip([0, *bounds.tolist()], [*bounds.tolist(), split.size])]
        subtree = np.ones(count, dtype=np.int64)
        for level in reversed(levels):
            subtree[level] += subtree[first[level]] + subtree[first[level] + 1]
        index = np.zeros(count, dtype=np.int64)
        for level in levels:
            index[first[level]] = index[level] + 1
            index[first[level] + 1] = index[level] + 1 + subtree[first[level]]

        sizes = subtree[:n_trees]  # the roots are nodes 0..n_trees-1
        ends = np.cumsum(sizes)
        order = np.empty(count, dtype=np.int64)  # the node at each place of the joined trees
        order[(ends - sizes)[self.tree[:count]] + index] = np.arange(count)
        first, is_split = first[order], feature[order] >= 0
        joined = {"feature": feature[order],
                  "threshold": self.threshold[order],
                  "left": np.where(is_split, index[first], -1),
                  "right": np.where(is_split, index[first + 1], -1),
                  "value": self.value[order]}
        ends = ends.tolist()
        return [{name: joined[name][a:b] for name in TREE_FIELDS}
                for a, b in zip([0] + ends, ends)]


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    roots: np.ndarray,
    draw: Callable[[np.ndarray], np.ndarray],
) -> list[dict[str, np.ndarray]]:
    """Grow one tree per row of roots (its sample rows) in lock-step; each
    step splits every unfinished tree's next node in preorder, with the
    sorted feature subsets draw(trees) for those trees' nodes."""
    n_trees, m = roots.shape
    n = X.shape[0]
    ranks = _column_ranks(X)
    keys = np.empty((X.shape[1], n + 1), dtype=np.int32)
    keys[:, :n] = (ranks * n_classes + y[:, None]).T
    keys[:, n] = n * n_classes  # pads sort after every row
    rows = roots.reshape(-1)  # tree t's rows, partitioned in place as nodes split
    nodes = _Nodes(n_classes, 8 * n_trees)
    trees = np.arange(n_trees)
    root_counts = np.bincount((trees[:, None] * n_classes + y[roots]).ravel(),
                              minlength=n_trees * n_classes).reshape(n_trees, n_classes)
    root_ids = nodes.add(trees, np.zeros_like(trees), m * trees, np.full(n_trees, m), root_counts)
    top = np.where(nodes.can_split(root_ids), root_ids, -1)  # each tree's next node to split

    while True:
        active = np.flatnonzero(top >= 0)
        if active.size == 0:
            return nodes.trees(n_trees)
        node = top[active]
        top[active] = nodes.below[node]
        feature, threshold, split = _best_splits(
            X, ranks, keys, n_classes, rows, nodes.start[node], nodes.size[node],
            nodes.counts[node], draw(active))
        node, feature, threshold = node[split], feature[split], threshold[split]
        if node.size == 0:
            continue
        nodes.feature[node] = feature
        nodes.threshold[node] = threshold

        # Partition each split node's segment of rows in place, left rows first.
        start, size = nodes.start[node], nodes.size[node]
        owner = np.repeat(np.arange(node.size), size)
        at = np.arange(owner.size) + np.repeat(start - (np.cumsum(size) - size), size)
        moved = rows[at]
        child = 2 * owner + (X[moved, feature[owner]] > threshold[owner])  # left, right
        rows[at] = moved[np.argsort(child, kind="stable")]
        child_size = np.bincount(child, minlength=2 * node.size)
        child_start = np.repeat(start, 2)
        child_start[1::2] += child_size[::2]
        child_counts = np.bincount(child * n_classes + y[moved],
                                   minlength=2 * node.size * n_classes)
        tree = nodes.tree[node]
        children = nodes.add(np.repeat(tree, 2), np.repeat(nodes.depth[node] + 1, 2), child_start,
                             child_size, child_counts.reshape(-1, n_classes))
        nodes.first_child[node] = children[::2]

        # Push the right child, then the left, where they can split.
        pushed = nodes.can_split(children)
        stack = top[tree]
        for side in (1, 0):
            nodes.below[children[side::2]] = stack
            stack = np.where(pushed[side::2], children[side::2], stack)
        top[tree] = stack


def train_tree(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ClassifierSpec) -> dict[str, Any]:
    every_feature = np.arange(X.shape[1])[None]
    return {"tree": _grow(X, y, n_classes, np.arange(X.shape[0])[None], lambda _: every_feature)[0]}


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the state advances by
# _GAMMA and each output is _mix of the state.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, a bijection of uint64 arrays; z is
    overwritten."""
    z ^= z >> np.uint64(30)
    z *= _MIX[0]
    z ^= z >> np.uint64(27)
    z *= _MIX[1]
    z ^= z >> np.uint64(31)
    return z


def _child(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output counter + 1 of the SplitMix64 stream whose state starts at
    key, for broadcast uint64 arrays: a pure function of (key, counter), so
    keys derived from keys address every draw without generator state."""
    return _mix(keys + _GAMMA * (counters + np.uint64(1)))


def _subsets(keys: np.ndarray, size: int, d: int) -> np.ndarray:
    """One sorted set of size distinct features in [0, d) per key: the
    first size distinct values of the key's slots 0, 1, 2, ... reduced mod
    d (a bias below d / 2**64). A round draws the first width slots of
    every row not yet done, size + 4 to start with and doubled each round,
    and a row is done when they hold size distinct values; as size**2 <= d,
    a row's first size slots repeat a value less than once in two rows on
    average, so the 4 spare slots rarely run out. Nothing here depends on
    the feature labels, so every subset of size features is equally
    likely, and a draw costs O(size log size) whatever d is."""
    out = np.empty((keys.size, size), dtype=np.int64)
    rows = np.arange(keys.size)
    width = size + 4
    while rows.size:
        slots = np.arange(width)
        values = _child(keys[rows, None], slots.astype(np.uint64))
        values %= np.uint64(d)
        values = values.view(np.int64)  # below d, so the same numbers
        # Sorted by (value, slot), a row's first pair of each value holds the
        # value's first slot.
        shift = width.bit_length()
        pairs = np.sort(values << shift | slots, axis=1)
        values, slots = pairs >> shift, pairs & ((1 << shift) - 1)
        first = np.ones(values.shape, dtype=bool)
        first[:, 1:] = values[:, 1:] != values[:, :-1]
        first_slots = np.where(first, slots, width)
        cutoff = np.partition(first_slots, size - 1, axis=1)[:, size - 1]
        done = cutoff < width
        keep = first_slots <= cutoff[:, None]
        keep[~done] = False
        out[rows[done]] = values[keep].reshape(-1, size)
        rows = rows[~done]
        width *= 2
    return out


def _forest_draws(
    seed: int, n_trees: int, n: int, d: int
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Every tree's n bootstrap rows in [0, n), and draw(trees), the sorted
    max(1, floor(sqrt(d)))-feature subsets of the next node of each of the
    given trees, as the module docstring sets out."""
    size = max(1, int(np.sqrt(d)))
    # Seeds of any size, folded into one 64-bit word by numpy's SeedSequence hash.
    seed_key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    tree_keys = _child(seed_key, np.arange(n_trees, dtype=np.uint64))
    draws = np.zeros(n_trees, dtype=np.uint64)
    roots = _child(_child(tree_keys, draws)[:, None], np.arange(n, dtype=np.uint64))
    roots %= np.uint64(n)
    roots = roots.view(np.int64)  # below n, so the same numbers

    def draw(trees: np.ndarray) -> np.ndarray:
        draws[trees] += np.uint64(1)
        return _subsets(_child(tree_keys[trees], draws[trees]), size, d)

    return roots, draw


def train_forest(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ClassifierSpec) -> dict[str, Any]:
    roots, draw = _forest_draws(spec.seed, spec.trees, *X.shape)
    return {"trees": _grow(X, y, n_classes, roots, draw)}


def _load_one(raw: Any, n_features: int, n_classes: int) -> dict[str, np.ndarray]:
    """One model-file tree as its arrays; a ValueError unless predict can
    walk it, as the module docstring sets out."""
    if not isinstance(raw, dict):
        raise ValueError("a tree must be an object of arrays")
    tree = {name: checked_array(raw[name], name, (None,), integers=name != "threshold")
            for name in TREE_FIELDS}
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
    return tree  # checked_array has rejected a threshold that is not finite


def load_tree(raw: dict[str, Any], spec: ClassifierSpec, n_features: int, n_classes: int) -> dict[str, Any]:
    return {"tree": _load_one(raw["tree"], n_features, n_classes)}


def load_forest(raw: dict[str, Any], spec: ClassifierSpec, n_features: int, n_classes: int) -> dict[str, Any]:
    trees = raw["trees"]
    if not isinstance(trees, list) or len(trees) != spec.trees:
        raise ValueError(f"a forest of spec.trees={spec.trees} needs that many trees")
    return {"trees": [_load_one(tree, n_features, n_classes) for tree in trees]}


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


def predict_indices(params: dict[str, Any], Q: np.ndarray, n_classes: int) -> np.ndarray:
    """The vote of a forest's trees, or of a decision tree as a forest of one."""
    leaves = _leaf_values(params["trees"] if "trees" in params else [params["tree"]], Q)
    slots = np.arange(Q.shape[0])[:, None] * n_classes + leaves
    votes = np.bincount(slots.ravel(), minlength=Q.shape[0] * n_classes)
    return np.argmax(votes.reshape(Q.shape[0], n_classes), axis=1)  # ties go to the lowest class
