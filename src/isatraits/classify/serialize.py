"""Model persistence: a one-line JSON envelope plus a trailing CRC32 line.

Envelope fields: format_version, spec, feature_name, lag_param,
class_labels, standardization_stats, n_features, parameters. Parameters are
arrays written as JSON lists, a decision tree or each forest tree as its
five parallel node arrays (see tree.py). Floats are serialized via repr and
therefore round-trip bit-for-bit, so a loaded model predicts identically to
the one saved. A missing or mistyped field of the envelope or the spec
(checked, never coerced) is a CorruptModelFile, like a bad checksum or a
payload nested too deep to decode, and so are parameters predict could not
use: an array that is not finite or not of the shape n_features and the
class count give it (kNN training rows, Gaussian NB priors, means and
variances, logistic weights, standardization means and stds), a kNN class
outside the class labels or a k other than the spec's, a variance that is
not positive, standardization stats present without spec.standardize or
missing with it, and a tree predict could not walk: arrays of unequal
length, a feature, child or class index out of range, a child that does
not come after its node, or a forest whose tree count is not its spec's.
Format version 2 introduced the array trees; version 1 (trees as nested
objects) is rejected like any other version.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CorruptModelFile
from ..features import AUTOCORR
from . import tree
from .base import ClassifierKind, ClassifierSpec, TrainedModel

MODEL_FORMAT_VERSION = 2


def _jsonable(value: Any) -> Any:
    """Arrays as (nested) lists; every classifier's parameters are arrays,
    dicts and lists of them, and python scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def _array(raw: Any, name: str, shape: tuple, integers: bool = False) -> np.ndarray:
    """raw as a non-empty, finite float64 (or int64) array of the given
    shape; a None in shape is any length."""
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


def _tree_from_jsonable(raw: Any, n_features: int, n_classes: int) -> dict[str, np.ndarray]:
    if not isinstance(raw, dict):
        raise ValueError("a tree must be an object of arrays")
    arrays = {name: _array(raw[name], name, (None,), integers=name != "threshold")
              for name in tree.TREE_FIELDS}
    tree.check_tree(arrays, n_features, n_classes)
    return arrays


def _params_from_jsonable(
    spec: ClassifierSpec, params: dict[str, Any], n_features: int, n_classes: int
) -> dict[str, Any]:
    """The parameters as arrays; a ValueError unless predict can use them."""
    kind = spec.kind
    if kind is ClassifierKind.KNN:
        train_x = _array(params["train_x"], "train_x", (None, n_features))
        train_y = _array(params["train_y"], "train_y", (train_x.shape[0],), integers=True)
        if train_y.min() < 0 or train_y.max() >= n_classes:
            raise ValueError(f"'train_y' holds a class outside [0, {n_classes})")
        if params["k"] != spec.k:
            raise ValueError(f"'k' must be spec.k={spec.k}, got {params['k']!r}")
        return {"train_x": train_x, "train_y": train_y, "k": spec.k}
    if kind is ClassifierKind.GAUSSIAN_NB:
        gnb = {"log_priors": _array(params["log_priors"], "log_priors", (n_classes,))}
        for key in ("means", "variances"):
            gnb[key] = _array(params[key], key, (n_classes, n_features))
        if not np.all(gnb["variances"] > 0):
            raise ValueError("'variances' must all be > 0")
        return gnb
    if kind is ClassifierKind.LOGISTIC_REGRESSION:
        return {"weights": _array(params["weights"], "weights", (n_features + 1, n_classes))}
    if kind is ClassifierKind.DECISION_TREE:
        return {"tree": _tree_from_jsonable(params["tree"], n_features, n_classes)}
    trees = params["trees"]
    if not isinstance(trees, list) or len(trees) != spec.trees:
        raise ValueError(f"a forest of spec.trees={spec.trees} needs that many trees")
    return {"trees": [_tree_from_jsonable(raw, n_features, n_classes) for raw in trees]}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is a bool


def _is_count(value: Any) -> bool:
    return _is_int(value) and value >= 1


# Envelope fields after format_version: (key, check, what the check expects).
_FIELDS: tuple[tuple[str, Callable[[Any], bool], str], ...] = (
    ("spec", lambda v: isinstance(v, dict), "an object"),
    ("feature_name", lambda v: isinstance(v, str), "a string"),
    ("lag_param", lambda v: v is None or _is_count(v), "null or a positive integer"),
    ("class_labels", lambda v: isinstance(v, list) and len(v) >= 2
     and all(isinstance(x, str) for x in v), "a list of >= 2 strings"),
    ("standardization_stats", lambda v: v is None or (
        isinstance(v, list) and len(v) == 2 and all(isinstance(x, list) for x in v)),
     "null or a [means, stds] pair of lists"),
    ("n_features", _is_count, "a positive integer"),
    ("parameters", lambda v: isinstance(v, dict), "an object"),
)
# The spec's fields; c may be an int, but one within the float range.
_KINDS = tuple(kind.value for kind in ClassifierKind)
_SPEC_FIELDS: tuple[tuple[str, Callable[[Any], bool], str], ...] = (
    ("kind", lambda v: isinstance(v, str) and v in _KINDS, "one of " + ", ".join(_KINDS)),
    ("k", _is_int, "an integer"),
    ("c", lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
     "a finite number"),
    ("trees", _is_int, "an integer"),
    ("seed", lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    ("standardize", lambda v: isinstance(v, bool), "a boolean"),
)


def _check_fields(data: dict, fields, path, what: str = "field") -> None:
    for key, check, expected in fields:
        if key not in data:
            raise CorruptModelFile(f"{path}: missing {what} {key!r}")
        if not check(data[key]):
            raise CorruptModelFile(f"{path}: {what} {key!r} must be {expected}, got {data[key]!r:.80}")


def save_model(model: TrainedModel, path: str | Path) -> None:
    stats = None
    if model.standardization_stats is not None:
        means, stds = model.standardization_stats
        stats = [means.tolist(), stds.tolist()]
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "feature_name": model.feature_name,
        "lag_param": model.lag_param,
        "class_labels": model.class_labels,
        "standardization_stats": stats,
        "n_features": model.n_features,
        "parameters": _jsonable(model.parameters),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    Path(path).write_text(f"{body}\ncrc32:{crc:08x}\n", encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptModelFile(f"cannot read model file {path}: {exc}") from exc

    lines = [line for line in text.splitlines() if line]
    if len(lines) < 2 or not lines[-1].startswith("crc32:"):
        raise CorruptModelFile(f"{path}: missing checksum line (truncated file?)")
    body = "\n".join(lines[:-1])
    try:
        expected = int(lines[-1][len("crc32:"):], 16)
    except ValueError:
        raise CorruptModelFile(f"{path}: malformed checksum line") from None
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise CorruptModelFile(f"{path}: checksum mismatch ({actual:08x} != {expected:08x})")

    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CorruptModelFile(f"{path}: invalid JSON payload: {exc}") from exc

    if not isinstance(payload, dict):
        raise CorruptModelFile(f"{path}: payload is not a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise CorruptModelFile(
            f"{path}: unsupported format_version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    _check_fields(payload, _FIELDS, path)
    if payload["feature_name"] == AUTOCORR and payload["lag_param"] is None:
        raise CorruptModelFile(f"{path}: an {AUTOCORR} model needs a lag_param")
    _check_fields(payload["spec"], _SPEC_FIELDS, path, "spec field")

    try:
        spec = ClassifierSpec.from_dict(payload["spec"])
        n_features = payload["n_features"]
        stats = payload["standardization_stats"]
        if (stats is not None) != spec.standardize:
            raise ValueError("standardization_stats must be present iff spec.standardize")
        if stats is not None:
            stats = tuple(_array(values, name, (n_features,))
                          for name, values in zip(("means", "stds"), stats))
        parameters = _params_from_jsonable(spec, payload["parameters"], n_features,
                                           len(payload["class_labels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelFile(f"{path}: malformed spec or parameters: {exc!r}") from exc
    return TrainedModel(
        spec=spec,
        feature_name=payload["feature_name"],
        lag_param=payload["lag_param"],
        class_labels=payload["class_labels"],
        parameters=parameters,
        standardization_stats=stats,
        n_features=payload["n_features"],
    )
