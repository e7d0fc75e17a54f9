"""Model persistence: a one-line JSON envelope plus a trailing CRC32 line.

Envelope fields: format_version, spec, feature_name, lag_param,
class_labels, standardization_stats, n_features, parameters. Floats are
serialized via repr and therefore round-trip bit-for-bit, so a loaded model
predicts identically to the one saved. A missing or mistyped field is a
CorruptModelFile, like a bad checksum.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..errors import CorruptModelFile
from ..features import AUTOCORR
from .base import ClassifierKind, ClassifierSpec, TrainedModel

MODEL_FORMAT_VERSION = 1


def _params_to_jsonable(kind: ClassifierKind, params: dict[str, Any]) -> dict[str, Any]:
    if kind is ClassifierKind.KNN:
        return {
            "train_x": params["train_x"].tolist(),
            "train_y": params["train_y"].tolist(),
            "k": params["k"],
        }
    if kind is ClassifierKind.GAUSSIAN_NB:
        return {key: params[key].tolist() for key in ("log_priors", "means", "variances")}
    if kind is ClassifierKind.LOGISTIC_REGRESSION:
        return {"weights": params["weights"].tolist()}
    # Trees and forests are already nested dicts of python scalars.
    return params


def _params_from_jsonable(kind: ClassifierKind, params: dict[str, Any]) -> dict[str, Any]:
    if kind is ClassifierKind.KNN:
        return {
            "train_x": np.asarray(params["train_x"], dtype=np.float64),
            "train_y": np.asarray(params["train_y"], dtype=np.int64),
            "k": int(params["k"]),
        }
    if kind is ClassifierKind.GAUSSIAN_NB:
        return {
            key: np.asarray(params[key], dtype=np.float64)
            for key in ("log_priors", "means", "variances")
        }
    if kind is ClassifierKind.LOGISTIC_REGRESSION:
        return {"weights": np.asarray(params["weights"], dtype=np.float64)}
    return params


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


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


def _check_fields(payload: dict, path) -> None:
    for key, check, expected in _FIELDS:
        if key not in payload:
            raise CorruptModelFile(f"{path}: missing field {key!r}")
        if not check(payload[key]):
            raise CorruptModelFile(f"{path}: field {key!r} must be {expected}, got {payload[key]!r:.80}")
    if payload["feature_name"] == AUTOCORR and payload["lag_param"] is None:
        raise CorruptModelFile(f"{path}: an {AUTOCORR} model needs a lag_param")


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
        "parameters": _params_to_jsonable(model.spec.kind, model.parameters),
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
    except json.JSONDecodeError as exc:
        raise CorruptModelFile(f"{path}: invalid JSON payload: {exc}") from exc

    if not isinstance(payload, dict):
        raise CorruptModelFile(f"{path}: payload is not a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise CorruptModelFile(
            f"{path}: unsupported format_version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    _check_fields(payload, path)

    try:
        spec = ClassifierSpec.from_dict(payload["spec"])
        stats = None
        if payload["standardization_stats"] is not None:
            means, stds = payload["standardization_stats"]
            stats = (np.asarray(means, dtype=np.float64), np.asarray(stds, dtype=np.float64))
        parameters = _params_from_jsonable(spec.kind, payload["parameters"])
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
