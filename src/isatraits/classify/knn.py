"""k-nearest-neighbors with Euclidean distance and majority vote.

Tie handling: distance ties rank by lower training index (stable sort);
vote ties go to the class of the nearest neighbor among the tied classes.

predict_indices votes for every query row at once: one stable argsort of
the whole distance matrix ranks each row's neighbors, one bincount over
(row, class) counts the votes, and each row takes the class of its first
neighbor (nearest first) whose class has the row's top count. With a
single top class that neighbor is of the top class itself, so one argmax
over the tied mask, gathered at the neighbors, applies both rules.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def train(X: np.ndarray, y: np.ndarray, k: int) -> dict[str, Any]:
    return {"train_x": X.copy(), "train_y": y.copy(), "k": int(k)}


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
