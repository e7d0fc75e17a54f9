"""L2-regularized multinomial logistic regression.

The objective is sum of per-sample log losses plus ||W||^2 / (2c), bias
excluded from the penalty, so c is inverse regularization strength.
Weights start at zero and are fitted by limited-memory BFGS (Liu & Nocedal,
Math. Prog. 45, 1989): the two-loop recursion over the last MEMORY steps,
scaled by the newest step's s.y / y.y, and a strong-Wolfe line search with
cubic interpolation (Nocedal & Wright, Numerical Optimization, Alg. 3.5
and 3.6). The stopping rules are those of L-BFGS-B (Byrd, Lu, Nocedal &
Zhu, SIAM J. Sci. Comput. 16, 1995) without bounds: max |g_i| <= GRAD_TOL,
a relative decrease of at most FTOL, MAX_ITER iterations or MAX_FUN
objective evaluations. Everything is numpy in a fixed order, so a fit is
deterministic, and neither fitting nor prediction needs scipy.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable

import numpy as np

GRAD_TOL = 1e-6
FTOL = 1e-14
MAX_ITER = 1000
MAX_FUN = 10 * MAX_ITER
# Correction pairs kept, scipy's L-BFGS-B default (maxcor).
MEMORY = 10
# Strong Wolfe conditions: sufficient decrease and curvature.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
# Objective evaluations one line search may spend before it gives up.
LINE_SEARCH_EVALS = 20
# Growth of the trial step while no bracket is known.
EXTRAPOLATE = 4.0
EPS = float(np.finfo(np.float64).eps)

Objective = Callable[[np.ndarray], "tuple[float, np.ndarray]"]


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


def _cubic_minimizer(a: float, fa: float, da: float, b: float, fb: float, db: float) -> float:
    """Minimizer of the cubic through (a, fa) and (b, fb) with slopes da and
    db (Nocedal & Wright, eq. 3.59); nan when it has none or an input is
    not finite."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    rad = d1 * d1 - da * db
    if not rad >= 0.0:  # also false for nan
        return math.nan
    d2 = math.copysign(math.sqrt(rad), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return math.nan
    return b - (b - a) * (db + d2 - d1) / denom


def _line_search(
    fun: Objective, x: np.ndarray, f0: float, g0: np.ndarray, d: np.ndarray,
    step: float, budget: int,
) -> tuple[tuple[np.ndarray, float, np.ndarray] | None, int]:
    """A point x + a*d meeting the strong Wolfe conditions, as ((x_new, f,
    g) or None when none was found within budget, evaluations spent).

    lo is the best point so far that has sufficient decrease (a = 0 at
    first), hi the other end of a bracket known to hold an acceptable step
    (None until one is found: then trial steps grow from lo)."""
    dg0 = float(g0 @ d)
    lo_a, lo_f, lo_dg = 0.0, f0, dg0
    hi: tuple[float, float, float] | None = None
    a = step
    evals = 0
    while evals < budget:
        x_a = x + a * d
        f, g = fun(x_a)
        evals += 1
        dg = float(g @ d)
        if not f <= f0 + WOLFE_C1 * a * dg0 or f >= lo_f:  # nan fails the first test
            hi = (a, f, dg)
        elif abs(dg) <= -WOLFE_C2 * dg0:
            return (x_a, f, g), evals
        else:
            # f rises from a towards hi (or, with no bracket yet, at all), so
            # an acceptable step lies between a and lo.
            if (dg >= 0.0) if hi is None else (dg * (hi[0] - a) >= 0.0):
                hi = (lo_a, lo_f, lo_dg)
            lo_a, lo_f, lo_dg = a, f, dg
        if hi is None:
            a *= EXTRAPOLATE
            continue
        hi_a, hi_f, hi_dg = hi
        left, right = min(lo_a, hi_a), max(lo_a, hi_a)
        width = right - left
        if width <= EPS * right:
            break
        a = _cubic_minimizer(lo_a, lo_f, lo_dg, hi_a, hi_f, hi_dg)
        if not left + 0.1 * width <= a <= right - 0.1 * width:  # also catches nan
            a = left + 0.5 * width
    return None, evals


def _two_loop(g: np.ndarray, memory: deque) -> np.ndarray:
    """The L-BFGS search direction -H g from the stored (s, y, 1/s.y)."""
    q = -g
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if memory:
        s, y, _ = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def minimize_lbfgs(fun: Objective, x0: np.ndarray) -> np.ndarray:
    """Minimize fun(x) -> (f, gradient) from x0; returns the last iterate.

    A failed line search restarts from steepest descent with the memory
    cleared; a second failure in a row ends the fit at the current point,
    as L-BFGS-B does."""
    x = x0
    f, g = fun(x)
    evals = 1
    memory: deque = deque(maxlen=MEMORY)
    iterations = 0
    while iterations < MAX_ITER and float(np.max(np.abs(g), initial=0.0)) > GRAD_TOL:
        d = _two_loop(g, memory)
        step = 1.0 if memory else 1.0 / float(np.linalg.norm(d))
        found, used = _line_search(fun, x, f, g, d, step, min(LINE_SEARCH_EVALS, MAX_FUN - evals))
        evals += used
        if found is None:
            if not memory:
                break
            memory.clear()
            continue
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > EPS * -float(g @ s):  # keeps H positive definite
            memory.append((s, y, 1.0 / sy))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if decrease <= FTOL:
            break
    return x


def train(X: np.ndarray, y: np.ndarray, n_classes: int, c: float) -> dict[str, Any]:
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    w = minimize_lbfgs(lambda w_flat: _loss_and_grad(w_flat, Xb, y, onehot, c),
                       np.zeros((d + 1) * n_classes))
    return {"weights": w.reshape(d + 1, n_classes)}


def predict_indices(params: dict[str, Any], Q: np.ndarray) -> np.ndarray:
    W = params["weights"]
    scores = np.hstack([Q, np.ones((Q.shape[0], 1))]) @ W
    return np.argmax(scores, axis=1)  # ties resolve to the lowest class index
