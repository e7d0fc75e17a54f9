"""Classifier suite core: specs, trained models, and the learner table
that fit, predict and load_model dispatch through.

The suite is self-contained and runs on numpy alone; logistic regression
brings its own L-BFGS minimizer. fit and predict take one float64
(samples x features) matrix, as evaluate.extract_features returns it per
stage; fit records the FeatureConfig it is given on the model, and predict
checks only that its matrix is 2-D with the model's column count. Each
learner's module (knn, gaussian_nb, logistic, and tree for both dtree and
rforest) owns its algorithm, its parameters and their model-file checks
behind three functions, and LEARNERS holds them by ClassifierKind:
train(X, y, n_classes, spec) -> params fits the (standardized) rows X to
class indices y; predict_indices(params, Q, n_classes) gives one class
index per row of Q; load(raw, spec, n_features, n_classes) -> params turns
a model file's parameters into train's, or raises ValueError (or KeyError,
TypeError) unless predict_indices can use them. Class labels are sorted
lexicographically at fit time, and every tie rule resolves to the lowest
class index, so results are fully deterministic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Sequence

import numpy as np

from ..errors import DimensionMismatch, SingleClassTrainingSet
from ..features import FeatureConfig
from . import gaussian_nb, knn, logistic, tree


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
    """spec's name in CLASSIFIER_NAMES: that of its kind, and its k for knn."""
    return next(name for name, named in CLASSIFIER_NAMES.items() if named.kind is spec.kind
                and (named.k == spec.k or spec.kind is not ClassifierKind.KNN))


# One learner's three functions, as the module docstring sets out.
Learner = namedtuple("Learner", ("train", "predict_indices", "load"))
LEARNERS: dict[ClassifierKind, Learner] = {
    ClassifierKind.KNN: Learner(knn.train, knn.predict_indices, knn.load),
    ClassifierKind.GAUSSIAN_NB: Learner(gaussian_nb.train, gaussian_nb.predict_indices, gaussian_nb.load),
    ClassifierKind.DECISION_TREE: Learner(tree.train_tree, tree.predict_indices, tree.load_tree),
    ClassifierKind.LOGISTIC_REGRESSION: Learner(logistic.train, logistic.predict_indices, logistic.load),
    ClassifierKind.RANDOM_FOREST: Learner(tree.train_forest, tree.predict_indices, tree.load_forest),
}


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


def fit(spec: ClassifierSpec, X: np.ndarray, y: Sequence[str], feature: FeatureConfig) -> TrainedModel:
    """Fit one classifier on the rows of X, of the given feature.
    Deterministic given (spec, X, y), including any seeded randomness.

    The model may keep the matrix it is given without a copy (a kNN model
    keeps its training rows), so X must not change while the model is used."""
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

    return TrainedModel(
        spec=spec,
        feature_name=feature.name,
        lag_param=feature.lag,
        class_labels=class_labels,
        parameters=LEARNERS[spec.kind].train(matrix, y_idx, len(class_labels), spec),
        standardization_stats=stats,
        n_features=matrix.shape[1],
    )


def predict(model: TrainedModel, X: np.ndarray) -> list[str]:
    """One label per row of X; a matrix of no rows yields an empty list."""
    matrix = _matrix(X)
    if matrix.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"model expects {model.n_features} dimensions, got {matrix.shape[1]}"
        )
    if not len(matrix):
        return []
    if model.standardization_stats is not None:
        means, stds = model.standardization_stats
        matrix = (matrix - means) / stds
    idx = LEARNERS[model.spec.kind].predict_indices(model.parameters, matrix, len(model.class_labels))
    return [model.class_labels[i] for i in idx]
