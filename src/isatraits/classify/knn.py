"""k-nearest-neighbors with Euclidean distance and majority vote.

Tie handling: distance ties rank by lower training index (stable sort);
vote ties go to the class of the nearest neighbor among the tied classes.

predict_indices votes for every query row at once: one stable argsort of
the whole distance matrix ranks each row's neighbors, one bincount over
(row, class) counts the votes, and each row takes the class of its first
neighbor (nearest first) whose class has the row's top count. With a
single top class that neighbor is of the top class itself, so one argmax
over the tied mask, gathered at the neighbors, applies both rules.

A model file's parameters load only as finite (rows x n_features)
training rows, each row's class inside the class labels, and spec.k.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .arrays import checked_array

if TYPE_CHECKING:
    from .base import ClassifierSpec


def train(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ClassifierSpec) -> dict[str, Any]:
    return {"train_x": X.copy(), "train_y": y.copy(), "k": int(spec.k)}


def predict_indices(params: dict[str, Any], Q: np.ndarray, n_classes: int) -> np.ndarray:
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

    rows = np.arange(Q.shape[0])[:, None]
    neighbors = y[np.argsort(d2, axis=1, kind="stable")[:, :k]]  # nearest first
    counts = np.bincount((rows * n_classes + neighbors).ravel(),
                         minlength=rows.size * n_classes).reshape(rows.size, n_classes)
    tied = counts == counts.max(axis=1, keepdims=True)
    first_tied = tied[rows, neighbors].argmax(axis=1)
    return neighbors[rows[:, 0], first_tied]


def load(raw: dict[str, Any], spec: ClassifierSpec, n_features: int, n_classes: int) -> dict[str, Any]:
    train_x = checked_array(raw["train_x"], "train_x", (None, n_features))
    train_y = checked_array(raw["train_y"], "train_y", (train_x.shape[0],), integers=True)
    if train_y.min() < 0 or train_y.max() >= n_classes:
        raise ValueError(f"'train_y' holds a class outside [0, {n_classes})")
    if raw["k"] != spec.k:
        raise ValueError(f"'k' must be spec.k={spec.k}, got {raw['k']!r}")
    return {"train_x": train_x, "train_y": train_y, "k": spec.k}
