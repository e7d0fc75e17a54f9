"""Classifier suite core: specs, trained models, fit/predict dispatch.

The suite is self-contained and runs on numpy alone; logistic regression
brings its own L-BFGS minimizer. fit and predict take one float64
(samples x features) matrix, as evaluate.extract_features returns it per
stage; fit records the FeatureConfig it is given on the model, and predict
checks only that its matrix is 2-D with the model's column count. Each
algorithm lives in its own module and exposes train()/predict_indices()
working on those matrices and integer class indices. Class labels are
sorted lexicographically at fit time, and every tie rule below resolves to
the lowest class index, so results are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Sequence

import numpy as np

from ..errors import DimensionMismatch, SingleClassTrainingSet
from ..features import FeatureConfig


class ClassifierKind(str, Enum):
    KNN = "knn"
    GAUSSIAN_NB = "gaussian_nb"
    DECISION_TREE = "decision_tree"
    LOGISTIC_REGRESSION = "logistic_regression"
    RANDOM_FOREST = "random_forest"


@dataclass(frozen=True)
class ClassifierSpec:
    """Which learner to fit and with which hyperparameters. c is the
    inverse regularization strength of logistic regression (bigger =
    weaker regularization)."""

    kind: ClassifierKind
    k: int = 3
    c: float = 1.0
    trees: int = 100
    seed: int = 0
    standardize: bool = False

    def __post_init__(self):
        if not math.isfinite(self.c):  # model files and reports must stay valid JSON
            raise ValueError(f"c must be finite, got {self.c}")
        if self.kind is ClassifierKind.KNN and self.k not in (1, 3, 5):
            raise ValueError(f"knn neighbor count must be 1, 3 or 5, got {self.k}")
        if self.kind is ClassifierKind.LOGISTIC_REGRESSION and not self.c > 0:
            raise ValueError(f"logistic regression c must be positive, got {self.c}")
        if self.kind is ClassifierKind.RANDOM_FOREST and self.trees < 1:
            raise ValueError(f"random forest needs >= 1 tree, got {self.trees}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "k": self.k,
            "c": self.c,
            "trees": self.trees,
            "seed": self.seed,
            "standardize": self.standardize,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClassifierSpec":
        """The spec to_dict wrote, from fields whose types load_model checked."""
        return cls(kind=ClassifierKind(data["kind"]), k=data["k"], c=float(data["c"]),
                   trees=data["trees"], seed=data["seed"], standardize=data["standardize"])


# Short CLI names for the suite, in evaluation order.
CLASSIFIER_NAMES: dict[str, ClassifierSpec] = {
    "knn1": ClassifierSpec(ClassifierKind.KNN, k=1),
    "knn3": ClassifierSpec(ClassifierKind.KNN, k=3),
    "knn5": ClassifierSpec(ClassifierKind.KNN, k=5),
    "gnb": ClassifierSpec(ClassifierKind.GAUSSIAN_NB),
    "dtree": ClassifierSpec(ClassifierKind.DECISION_TREE),
    "logreg": ClassifierSpec(ClassifierKind.LOGISTIC_REGRESSION),
    "rforest": ClassifierSpec(ClassifierKind.RANDOM_FOREST),
}
SUITE_NAMES = tuple(CLASSIFIER_NAMES)


def spec_from_name(
    name: str,
    c: float | None = None,
    trees: int | None = None,
    seed: int | None = None,
    standardize: bool = False,
) -> ClassifierSpec:
    if name not in CLASSIFIER_NAMES:
        raise ValueError(f"unknown classifier {name!r}; valid: {', '.join(SUITE_NAMES)}")
    spec = CLASSIFIER_NAMES[name]
    updates: dict[str, Any] = {"standardize": standardize}
    if c is not None:
        updates["c"] = c
    if trees is not None:
        updates["trees"] = trees
    if seed is not None:
        updates["seed"] = seed
    return replace(spec, **updates)


def name_of_spec(spec: ClassifierSpec) -> str:
    if spec.kind is ClassifierKind.KNN:
        return f"knn{spec.k}"
    return {
        ClassifierKind.GAUSSIAN_NB: "gnb",
        ClassifierKind.DECISION_TREE: "dtree",
        ClassifierKind.LOGISTIC_REGRESSION: "logreg",
        ClassifierKind.RANDOM_FOREST: "rforest",
    }[spec.kind]


@dataclass
class TrainedModel:
    """A fitted classifier plus the feature configuration it expects.
    parameters holds per-kind learner state (arrays, trees, weights);
    standardization_stats is (means, stds) learned on training data only,
    present iff spec.standardize."""

    spec: ClassifierSpec
    feature_name: str
    lag_param: int | None
    class_labels: list[str]
    parameters: dict[str, Any]
    standardization_stats: tuple[np.ndarray, np.ndarray] | None = None
    n_features: int = field(default=0)


def _matrix(X) -> np.ndarray:
    matrix = np.ascontiguousarray(X, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionMismatch(f"expected a (samples, features) matrix, got shape {matrix.shape}")
    return matrix


def _apply_standardization(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    if model.standardization_stats is None:
        return matrix
    means, stds = model.standardization_stats
    return (matrix - means) / stds


def fit(spec: ClassifierSpec, X: np.ndarray, y: Sequence[str], feature: FeatureConfig) -> TrainedModel:
    """Fit one classifier on the rows of X, of the given feature.
    Deterministic given (spec, X, y), including any seeded randomness."""
    from . import gaussian_nb, knn, logistic, tree  # cycle-free; local to keep import light

    matrix = _matrix(X)
    if len(matrix) != len(y):
        raise DimensionMismatch(f"got {len(matrix)} rows but {len(y)} labels")
    if len(matrix) < 2:
        raise DimensionMismatch(f"training needs >= 2 samples, got {len(matrix)}")

    class_labels = sorted(set(y))
    if len(class_labels) < 2:
        raise SingleClassTrainingSet(f"training set has a single class {class_labels[0]!r}")
    index_of = {label: i for i, label in enumerate(class_labels)}
    y_idx = np.array([index_of[label] for label in y], dtype=np.int64)

    stats = None
    if spec.standardize:
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0)
        stds = np.where(stds > 0.0, stds, 1.0)  # constant dims pass through unscaled
        stats = (means, stds)
        matrix = (matrix - means) / stds

    n_classes = len(class_labels)
    if spec.kind is ClassifierKind.KNN:
        parameters = knn.train(matrix, y_idx, spec.k)
    elif spec.kind is ClassifierKind.GAUSSIAN_NB:
        parameters = gaussian_nb.train(matrix, y_idx, n_classes)
    elif spec.kind is ClassifierKind.DECISION_TREE:
        parameters = tree.train_tree(matrix, y_idx, n_classes)
    elif spec.kind is ClassifierKind.RANDOM_FOREST:
        parameters = tree.train_forest(matrix, y_idx, n_classes, spec.trees, spec.seed)
    elif spec.kind is ClassifierKind.LOGISTIC_REGRESSION:
        parameters = logistic.train(matrix, y_idx, n_classes, spec.c)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled classifier kind {spec.kind}")

    return TrainedModel(
        spec=spec,
        feature_name=feature.name,
        lag_param=feature.lag,
        class_labels=class_labels,
        parameters=parameters,
        standardization_stats=stats,
        n_features=matrix.shape[1],
    )


def predict(model: TrainedModel, X: np.ndarray) -> list[str]:
    """One label per row of X; a matrix of no rows yields an empty list."""
    from . import gaussian_nb, knn, logistic, tree

    matrix = _matrix(X)
    if matrix.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} dimensions, got {matrix.shape[1]}"
        )
    if not len(matrix):
        return []
    matrix = _apply_standardization(model, matrix)

    n_classes = len(model.class_labels)
    kind = model.spec.kind
    if kind is ClassifierKind.KNN:
        idx = knn.predict_indices(model.parameters, matrix, n_classes)
    elif kind is ClassifierKind.GAUSSIAN_NB:
        idx = gaussian_nb.predict_indices(model.parameters, matrix)
    elif kind is ClassifierKind.DECISION_TREE:
        idx = tree.predict_tree_indices(model.parameters, matrix)
    elif kind is ClassifierKind.RANDOM_FOREST:
        idx = tree.predict_forest_indices(model.parameters, matrix, n_classes)
    elif kind is ClassifierKind.LOGISTIC_REGRESSION:
        idx = logistic.predict_indices(model.parameters, matrix)
    else:  # pragma: no cover
        raise ValueError(f"unhandled classifier kind {kind}")
    return [model.class_labels[i] for i in idx]
