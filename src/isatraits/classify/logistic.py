"""L2-regularized multinomial logistic regression.

The objective is sum of per-sample log losses plus ||W||^2 / (2c), bias
excluded from the penalty, so c is inverse regularization strength.
Optimization runs L-BFGS to gradient norm <= 1e-6 or 1000 iterations;
weights start at zero, so fits are deterministic.

scipy.optimize is imported inside train(), the only place that calls it.
Importing it costs more than half a second of a fresh process, and
prediction is a matrix product and an argmax, so predicting with a
logistic model (and any use of the other classifiers) never loads scipy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

GRAD_TOL = 1e-6
MAX_ITER = 1000


def _loss_and_grad(
    w_flat: np.ndarray,
    Xb: np.ndarray,
    y: np.ndarray,
    onehot: np.ndarray,
    c: float,
) -> tuple[float, np.ndarray]:
    n, d1 = Xb.shape
    W = w_flat.reshape(d1, onehot.shape[1])
    scores = Xb @ W
    scores -= scores.max(axis=1, keepdims=True)
    exp_scores = np.exp(scores)
    norm = exp_scores.sum(axis=1, keepdims=True)
    log_probs = scores - np.log(norm)

    loss = -log_probs[np.arange(n), y].sum() + (W[:-1] ** 2).sum() / (2.0 * c)
    grad = Xb.T @ (exp_scores / norm - onehot)
    grad[:-1] += W[:-1] / c
    return float(loss), grad.ravel()


def train(X: np.ndarray, y: np.ndarray, n_classes: int, c: float) -> dict[str, Any]:
    from scipy.optimize import minimize  # the only scipy import; see the module docstring

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
        options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-14, "maxfun": 10 * MAX_ITER},
    )
    return {"weights": result.x.reshape(d + 1, n_classes)}


def predict_indices(params: dict[str, Any], Q: np.ndarray) -> np.ndarray:
    W = params["weights"]
    scores = np.hstack([Q, np.ones((Q.shape[0], 1))]) @ W
    return np.argmax(scores, axis=1)  # ties resolve to the lowest class index
