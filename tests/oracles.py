"""Brute-force oracles, deliberately independent of the package code.

Everything here is pure Python over plain ints/floats: the Pearson
coefficient from its raw-moment definition, lagged autocorrelation built
on it, and a dict-based bigram pair counter. The one exception is
autocorr_reference, a per-lag numpy loop in float64 arithmetic kept for
bit-equality checks of the FFT autocorrelation kernel.
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
