"""The array check every learner's model-file load shares."""

from __future__ import annotations

from typing import Any

import numpy as np


def checked_array(raw: Any, name: str, shape: tuple, integers: bool = False) -> np.ndarray:
    """raw as a non-empty, finite float64 (or int64) array of the given
    shape; a None in shape is any length. A ValueError names what is wrong."""
    what = "integers" if integers else "numbers"
    try:
        values = np.asarray(raw)
    except ValueError:  # ragged nested lists
        raise ValueError(f"{name!r} must be a rectangular array of shape {shape}") from None
    if values.size and values.dtype.kind not in ("i" if integers else "if"):
        raise ValueError(f"{name!r} must be a list of {what}")
    if values.size == 0 or values.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(values.shape, shape)):
        raise ValueError(f"{name!r} must be a non-empty array of shape {shape}, got {values.shape}")
    values = values.astype(np.int64 if integers else np.float64)
    if not np.all(np.isfinite(values)):  # NaN scores would pick class 0 silently
        raise ValueError(f"{name!r} holds a value that is not finite")
    return values
