"""Brute-force oracles, deliberately independent of the package code.

Everything here is pure Python over plain ints/floats: the Pearson
coefficient from its raw-moment definition, lagged autocorrelation built
on it, and a dict-based bigram pair counter. The exceptions are
autocorr_reference, a per-lag numpy loop in float64 arithmetic kept for
bit-equality checks of the FFT autocorrelation kernel, tree_reference, the
recursive one-node-at-a-time CART grower kept for node-for-node checks of
the batched tree grower (forest_reference draws its trees' bootstraps and
feature subsets one Python int at a time), knn_reference, the kNN vote
one query row at a time that the whole-array vote replaced, and
logreg_reference, the logistic-regression fit by scipy's L-BFGS-B that the
package used before its own minimizer, and endian_stream_reference, the
synthetic endian stream as it was drawn before it was made to assemble
only the tokens it keeps, and PlanReference, the lagged-product kernel's
path, batch and thread split as separate helpers computed them before one
plan replaced them.
"""

import itertools
import math

import numpy as np

from isatraits import features


def pearson_oracle(x, y):
    assert len(x) == len(y)
    n = len(x)
    sx = sum(x)
    sy = sum(y)
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    sxy = sum(a * b for a, b in zip(x, y))
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    if dx <= 0 or dy <= 0:
        return 0.0
    return (n * sxy - sx * sy) / math.sqrt(dx * dy)


def autocorr_oracle(data, k):
    series = list(data)
    x = series[: len(series) - k]
    y = series[k:]
    return pearson_oracle(x, y)


def bigram_count_oracle(data):
    counts = {}
    for i in range(len(data) - 1):
        key = data[i] * 256 + data[i + 1]
        counts[key] = counts.get(key, 0) + 1
    return counts


def autocorr_reference(data, l):
    """(f(1), ..., f(l)) one lag at a time: each window's moments summed in
    float64 (exact for byte data), then the raw-moment Pearson formula in
    Python floats, with 0.0 for a zero-variance window and clipping to
    [-1, 1]."""
    series = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)
    n = series.size
    out = np.empty(l, dtype=np.float64)
    for k in range(1, l + 1):
        x = series[: n - k]
        y = series[k:]
        m = n - k
        sx = float(x.sum())
        sy = float(y.sum())
        dx = m * float(x @ x) - sx * sx
        dy = m * float(y @ y) - sy * sy
        if dx <= 0.0 or dy <= 0.0:
            out[k - 1] = 0.0
            continue
        r = (m * float(x @ y) - sx * sy) / math.sqrt(dx * dy)
        out[k - 1] = min(1.0, max(-1.0, r))
    return out


def _gini(counts, total):
    p = counts / total
    return float(1.0 - np.dot(p, p))


def _best_split(X, y, counts, feature_indices):
    n, n_classes = X.shape[0], counts.shape[0]
    parent = _gini(counts, n)

    onehot = np.zeros((n, n_classes), dtype=np.float64)
    best = None
    for f in feature_indices:
        column = X[:, f]
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        cuts = np.nonzero(sorted_values[1:] > sorted_values[:-1])[0]
        if cuts.size == 0:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), y[order]] = 1.0
        prefix = onehot.cumsum(axis=0)

        left_counts = prefix[cuts]
        left_n = (cuts + 1).astype(np.float64)
        right_counts = counts - left_counts
        right_n = n - left_n
        gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        gains = parent - (left_n * gini_left + right_n * gini_right) / n

        j = int(np.argmax(gains))  # first max = lowest threshold
        if best is None or gains[j] > best[0]:
            threshold = float((sorted_values[cuts[j]] + sorted_values[cuts[j] + 1]) / 2.0)
            best = (float(gains[j]), int(f), threshold)
    return best


def tree_reference(X, y, n_classes, draw=None):
    """CART grown recursively, one node and one feature at a time, as a
    nested dict. Every node carries "klass", the majority class of the
    samples that reach it; a forest tree passes draw(), which gives each
    node that can split its sorted feature subset, node by node in
    preorder."""
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    klass = int(np.argmax(counts))
    if X.shape[0] < 2 or counts.max() == X.shape[0]:
        return {"leaf": True, "klass": klass}

    feature_indices = np.arange(X.shape[1]) if draw is None else draw()

    best = _best_split(X, y, counts, feature_indices)
    if best is None or best[0] <= 0.0:
        return {"leaf": True, "klass": klass}
    _, feature, threshold = best
    go_left = X[:, feature] <= threshold
    return {
        "leaf": False,
        "klass": klass,
        "feature": feature,
        "threshold": threshold,
        "left": tree_reference(X[go_left], y[go_left], n_classes, draw),
        "right": tree_reference(X[~go_left], y[~go_left], n_classes, draw),
    }


MASK64 = (1 << 64) - 1


def splitmix_child(key, counter):
    """Output counter + 1 of the SplitMix64 stream whose state starts at
    key, in Python ints: the state advances by the golden gamma, and each
    output is the state through SplitMix64's two xor-shift-multiply rounds."""
    z = (key + 0x9E3779B97F4A7C15 * (counter + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def subset_reference(key, size, d):
    """The first size distinct values, mod d, of the stream keyed by key,
    sorted."""
    chosen, slot = [], 0
    while len(chosen) < size:
        feature = splitmix_child(key, slot) % d
        slot += 1
        if feature not in chosen:
            chosen.append(feature)
    return sorted(chosen)


def forest_draws_reference(seed, tree, n, d):
    """Tree tree's n bootstrap rows and its draw(): the sorted subset of
    its next node to split. The tree's key is output tree of the stream
    keyed by the seed's SeedSequence word; bootstrap row i is output i of
    the stream keyed by the tree key's output 0, mod n; the subset of the
    tree's c-th node to split (c = 1, 2, ... in preorder) is the
    subset_reference of floor(sqrt(d)) features keyed by the tree key's
    output c."""
    subset_size = max(1, int(np.sqrt(d)))
    seed_key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    tree_key = splitmix_child(seed_key, tree)
    bootstrap_key = splitmix_child(tree_key, 0)
    bootstrap = [splitmix_child(bootstrap_key, i) % n for i in range(n)]
    node_draws = itertools.count(1)

    def draw():
        return subset_reference(splitmix_child(tree_key, next(node_draws)), subset_size, d)

    return bootstrap, draw


def forest_reference(X, y, n_classes, n_trees, seed):
    """Bootstrap forest of tree_reference trees, drawn by
    forest_draws_reference."""
    trees = []
    for t in range(n_trees):
        bootstrap, draw = forest_draws_reference(seed, t, *X.shape)
        trees.append(tree_reference(X[bootstrap], y[bootstrap], n_classes, draw))
    return trees


def walk_reference(node, row):
    while not node["leaf"]:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["klass"]


def flatten_reference(root):
    """A nested tree as preorder parallel lists: feature (-1 at a leaf),
    threshold (0.0 at a leaf), left and right (-1 at a leaf), value."""
    out = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def visit(node):
        index = len(out["value"])
        leaf = node["leaf"]
        out["feature"].append(-1 if leaf else node["feature"])
        out["threshold"].append(0.0 if leaf else node["threshold"])
        out["left"].append(-1)
        out["right"].append(-1)
        out["value"].append(node["klass"])
        if not leaf:
            out["left"][index] = visit(node["left"])
            out["right"][index] = visit(node["right"])
        return index

    visit(root)
    return out


def knn_reference(params, Q, n_classes):
    """kNN class indices one query row at a time: a stable argsort of the
    row's distances, a bincount of its k nearest classes, and a walk from
    the nearest neighbor to the first one of a tied top class."""
    X = params["train_x"]
    y = params["train_y"]
    k = min(params["k"], X.shape[0])

    # Squared distances via (q - x)^2 = |q|^2 - 2 q.x + |x|^2; identical
    # training rows still produce identical floats, so ties stay exact.
    d2 = (
        np.einsum("ij,ij->i", Q, Q)[:, None]
        - 2.0 * (Q @ X.T)
        + np.einsum("ij,ij->i", X, X)[None, :]
    )

    out = np.empty(Q.shape[0], dtype=np.int64)
    for row in range(Q.shape[0]):
        order = np.argsort(d2[row], kind="stable")
        neighbors = y[order[:k]]
        counts = np.bincount(neighbors, minlength=n_classes)
        best = counts.max()
        tied = counts == best
        if tied.sum() == 1:
            out[row] = int(np.argmax(counts))
        else:
            for label in neighbors:  # nearest-first
                if tied[label]:
                    out[row] = int(label)
                    break
    return out


def logreg_reference(X, y, n_classes, c):
    """The (d + 1, n_classes) logistic-regression weights fitted by scipy's
    L-BFGS-B from zero, on the package's own objective and stopping rules."""
    from scipy.optimize import minimize

    from isatraits.classify.logistic import FTOL, GRAD_TOL, MAX_FUN, MAX_ITER, _loss_and_grad

    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    result = minimize(
        _loss_and_grad,
        np.zeros((d + 1) * n_classes),
        args=(Xb, y, onehot, c),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": FTOL, "maxfun": MAX_FUN},
    )
    return result.x.reshape(d + 1, n_classes)


def endian_stream_reference(rng, n, byte_order):
    """The synthetic endian stream built over all n drawn tokens, with
    numpy's geometric draw: corpus._endian_stream must match it byte for
    byte from the same generator state."""
    kinds = rng.integers(0, 4, size=n)  # 0,1 filler; 2 int16; 3 int32
    magnitudes = rng.geometric(0.3, size=n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    values = np.clip(magnitudes * signs, -32768, 32767)
    fillers = rng.integers(0, 256, size=n, dtype=np.uint8)

    # Only the tokens that reach byte n matter: about n / 2 of the n drawn.
    lengths = np.array([1, 1, 2, 4], dtype=np.uint8)[kinds]
    k = int(np.searchsorted(np.cumsum(lengths, dtype=np.int64), n)) + 1
    kinds, lengths, values = kinds[:k], lengths[:k], values[:k]
    # Every token as the 4 bytes of an int32, of which it keeps the first
    # 1, 2 or 4. The values fit in 16 bits, so an int16 is the int32's low
    # half, which comes last in big-endian order unless shifted up.
    if byte_order == ">":
        values = np.where(kinds == 2, values << 16, values)
    table = values.astype(byte_order + "i4").view(np.uint8).reshape(k, 4)
    table[:, 0] = np.where(kinds < 2, fillers[:k], table[:, 0])
    keep = np.arange(4) < lengths[:, None]
    return np.compress(keep.ravel(), table)[:n]  # row-major: tokens in order


class PlanReference:
    """The lagged-product kernel's choices as five helpers that call one
    another made them before features._plan replaced them: the path
    (uses_gemm), the batch (autocorr_batch_size, from series_staging_bytes)
    and the (workers, group) of a series too long to share a batch
    (split_plan), for the CPUs features._cpus reports."""

    @staticmethod
    def uses_gemm(n, max_lag):
        return max_lag <= features.GEMM_LAGS or (
            max_lag <= features.GEMM_MAX_LAGS and n >= features.GEMM_WIDE_ROWS * max_lag)

    @staticmethod
    def gemm_buffer_bytes(n, max_lag, group=1):
        bw, w, rows = features._gemm_shape(n, max_lag)
        return 4 * ((group * rows + 1) * w + group * w * (bw + max_lag))

    @classmethod
    def worker_bytes(cls, n, max_lag, group=1):
        if cls.uses_gemm(n, max_lag):
            return cls.gemm_buffer_bytes(n, max_lag, group) + 2 * 8 * (max_lag + 1)
        block = min(n, features.AUTOCORR_BLOCK)
        return 32 * features._fast_len(block + max_lag) + 8 * (max_lag + 1)

    @classmethod
    def split_plan(cls, n, max_lag):
        if cls.uses_gemm(n, max_lag):
            _, w, rows = features._gemm_shape(n, max_lag)
            units, most = -(-n // (rows * w)), features.GEMM_GROUP
        else:
            units, most = -(-n // features.AUTOCORR_BLOCK), 1
        budget = features.STAGING_BYTES
        if units == 1 or 2 * cls.series_staging_bytes(n, max_lag, (1, 1)) <= budget:
            return 1, 1
        workers = max(1, min(units, features._cpus(), budget // cls.worker_bytes(n, max_lag)))
        group = 1
        while (group < most and (group + 1) * workers <= units
               and workers * cls.worker_bytes(n, max_lag, group + 1) <= budget):
            group += 1
        return workers, group

    @classmethod
    def series_staging_bytes(cls, n, l, plan=None):
        workers, group = cls.split_plan(n, l) if plan is None else plan
        per_series = n + 12 * 8 * l + (workers - 1) * cls.worker_bytes(n, l, group)
        if cls.uses_gemm(n, l):
            per_series += cls.gemm_buffer_bytes(n, l, group)
        return per_series

    @classmethod
    def autocorr_batch_size(cls, n, l):
        return max(1, features.STAGING_BYTES // cls.series_staging_bytes(n, l))
