"""Gaussian naive Bayes with per-class, per-dimension normal likelihoods.

Variances are smoothed by 1e-9 times the largest per-dimension variance
of the whole training set, which guards zero-variance dimensions while
keeping the argmax invariant under uniform feature rescaling.

A model file's parameters load only as finite log priors (one per class)
and (classes x n_features) means and variances, every variance > 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .arrays import checked_array

if TYPE_CHECKING:
    from .base import ClassifierSpec

VAR_SMOOTHING = 1e-9


def train(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ClassifierSpec) -> dict[str, Any]:
    n, d = X.shape
    means = np.empty((n_classes, d), dtype=np.float64)
    variances = np.empty((n_classes, d), dtype=np.float64)
    priors = np.empty(n_classes, dtype=np.float64)
    for c in range(n_classes):
        rows = X[y == c]
        priors[c] = rows.shape[0] / n
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)  # population variance

    epsilon = VAR_SMOOTHING * float(X.var(axis=0).max())
    if epsilon <= 0.0:
        epsilon = VAR_SMOOTHING  # fully constant training data
    variances += epsilon

    return {
        "log_priors": np.log(priors),
        "means": means,
        "variances": variances,
    }


def predict_indices(params: dict[str, Any], Q: np.ndarray, n_classes: int) -> np.ndarray:
    log_priors = params["log_priors"]
    means = params["means"]
    variances = params["variances"]

    loglik = np.empty((Q.shape[0], n_classes), dtype=np.float64)
    for c in range(n_classes):
        delta = Q - means[c]
        loglik[:, c] = log_priors[c] - 0.5 * np.sum(
            np.log(2.0 * np.pi * variances[c]) + delta * delta / variances[c], axis=1
        )
    return np.argmax(loglik, axis=1)  # ties resolve to the lowest class index


def load(raw: dict[str, Any], spec: ClassifierSpec, n_features: int, n_classes: int) -> dict[str, Any]:
    gnb = {"log_priors": checked_array(raw["log_priors"], "log_priors", (n_classes,))}
    for key in ("means", "variances"):
        gnb[key] = checked_array(raw[key], key, (n_classes, n_features))
    if not np.all(gnb["variances"] > 0):
        raise ValueError("'variances' must all be > 0")
    return gnb
