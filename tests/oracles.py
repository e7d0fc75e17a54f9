"""Brute-force oracles, deliberately independent of the package code.

Everything here is pure Python over plain ints/floats: the Pearson
coefficient from its raw-moment definition, lagged autocorrelation built
on it, and a dict-based bigram pair counter. The exceptions are
autocorr_reference, a per-lag numpy loop in float64 arithmetic kept for
bit-equality checks of the FFT autocorrelation kernel, and tree_reference,
the recursive one-node-at-a-time CART grower kept for node-for-node checks
of the batched tree grower, and logreg_reference, the logistic-regression
fit by scipy's L-BFGS-B that the package used before its own minimizer.
"""

import math

import numpy as np


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


def tree_reference(X, y, n_classes, rng=None, subset_size=None):
    """CART grown recursively, one node and one feature at a time, as a
    nested dict. Every node carries "klass", the majority class of the
    samples that reach it; a forest tree passes its generator and feature
    subset size."""
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    klass = int(np.argmax(counts))
    if X.shape[0] < 2 or counts.max() == X.shape[0]:
        return {"leaf": True, "klass": klass}

    if subset_size is not None and rng is not None:
        feature_indices = np.sort(rng.choice(X.shape[1], size=subset_size, replace=False))
    else:
        feature_indices = np.arange(X.shape[1])

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
        "left": tree_reference(X[go_left], y[go_left], n_classes, rng, subset_size),
        "right": tree_reference(X[~go_left], y[~go_left], n_classes, rng, subset_size),
    }


def forest_reference(X, y, n_classes, n_trees, seed):
    """Bootstrap forest of tree_reference trees, seeded per tree."""
    n, d = X.shape
    subset_size = max(1, int(np.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        bootstrap = rng.integers(0, n, size=n)
        trees.append(tree_reference(X[bootstrap], y[bootstrap], n_classes, rng, subset_size))
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
