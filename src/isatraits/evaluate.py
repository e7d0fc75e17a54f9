"""Leave-one-group-out evaluation, baselines, grid search, and the
two-stage unknown-binary pipeline, whose predict_unknown returns the JSON
object `isatraits predict` prints.

LOGOCV holds out every sample of one ISA per fold, so a fold's model has
never seen its test ISA. Feature accuracy is the unweighted mean of the
per-fold (per-ISA) accuracies; the pooled per-sample accuracy is reported
alongside for transparency, since folds differ in size. The baseline is
the frequency of the most frequent class.

Note on comparing against the baseline: a constant-prediction classifier
can never beat the baseline in pooled (per-sample) accuracy, but its
fold-mean feature accuracy is not bounded that way, because every fold's
test set is a single ISA and therefore usually single-class.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence, TextIO

import numpy as np

from .classify import ClassifierKind, ClassifierSpec, TrainedModel, fit, name_of_spec, predict
from .corpus import CorpusManifest, IsaLabel, SizeKind
from .errors import EmptyLabelList, InsufficientGroups, IsaTraitsError
from .features import (
    AUTOCORR,
    BIGRAMS,
    ENDSIG,
    FeatureConfig,
    autocorr_batch_size,
    autocorr_series,
    autocorrelation_feature,
    autocorrelation_rows,
    bigram_histogram,
    endianness_signatures,
)


class Task(str, Enum):
    ENDIANNESS = "endianness"
    FIXED_VS_VARIABLE = "isvar"
    FIXED_WIDTH = "fixedwidth"


def task_label(label: IsaLabel, task: Task) -> str | None:
    """The class a labeled ISA contributes to a task, or None when the
    ISA is ineligible (bi/unknown endianness, unknown size, etc.)."""
    if task is Task.ENDIANNESS:
        if label.endianness.value in ("LE", "BE"):
            return label.endianness.value
        return None
    if task is Task.FIXED_VS_VARIABLE:
        if label.inst_size.kind in (SizeKind.FIXED, SizeKind.VARIABLE):
            return label.inst_size.kind.value
        return None
    if label.inst_size.kind is SizeKind.FIXED:
        return str(label.inst_size.fixed_bits)
    return None


def extract_feature(sample, config: FeatureConfig) -> np.ndarray:
    if config.name == BIGRAMS:
        return bigram_histogram(sample)
    if config.name == ENDSIG:
        return endianness_signatures(sample)
    return autocorrelation_feature(sample, config.lag)


def extract_features(
    manifest: CorpusManifest,
    stages: Mapping[Hashable, tuple[Sequence[int], FeatureConfig]],
) -> dict[Hashable, np.ndarray]:
    """Each stage's feature matrix; stages maps a key to (sample ids,
    feature), and row r of the key's (len(ids), feature.dim) float64 matrix
    is the feature of sample ids[r]. Every sample is loaded once, in
    manifest order, and its autocorrelation extracted once, at the largest
    lag any stage asks of it; a stage at a smaller lag takes the first
    columns, bit-identical to extracting at that lag. The samples an
    autocorr stage reads form runs of consecutive samples of one lag and
    length, and each run is cut into batches of autocorr_batch_size, one
    autocorrelation_rows call each. Errors name the sample: every sample is
    checked in manifest order before it joins a batch."""
    matrices = {key: np.empty((len(ids), feature.dim)) for key, (ids, feature) in stages.items()}
    rows: dict[int, dict[str, list[np.ndarray]]] = {}  # id -> feature name -> its stage rows
    for key, (ids, feature) in stages.items():
        for i, row in zip(ids, matrices[key]):
            rows.setdefault(i, {}).setdefault(feature.name, []).append(row)

    def autocorr_samples():
        # Each sample loaded and its other features filled, in manifest
        # order; one that an autocorr stage reads yields ((lag, length),
        # its autocorr rows, its series).
        for i in sorted(rows):
            ref = manifest.samples[i]
            dest = rows[i].pop(AUTOCORR, None)
            try:
                sample = ref.load()
                for name, stage_rows in rows[i].items():
                    values = extract_feature(sample, FeatureConfig(name))
                    for row in stage_rows:
                        row[:] = values
                if dest:
                    lag = max(row.size for row in dest)
                    series = autocorr_series(sample, lag)
            except IsaTraitsError as exc:
                raise type(exc)(f"{ref.source_path}: {exc}") from exc
            if dest:
                yield (lag, series.size), dest, series

    for (lag, n), run in groupby(autocorr_samples(), key=itemgetter(0)):
        size = autocorr_batch_size(n, lag)
        while batch := list(islice(run, size)):
            values = autocorrelation_rows([series for _, _, series in batch], lag)
            for (_, dest, _), sample_values in zip(batch, values):
                for row in dest:
                    row[:] = sample_values[:row.size]
    return matrices


def mean_curve_by_class(manifest: CorpusManifest, l: int, task: Task) -> dict[str, np.ndarray]:
    """Element-wise mean autocorrelation vector of each of the task's classes
    over the samples eligible for it. Summation runs in manifest order, so
    results are bit-for-bit reproducible."""
    ids = eligible_ids(manifest, task)
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for i, row in zip(ids, extract_features(manifest, {task: (ids, FeatureConfig(AUTOCORR, l))})[task]):
        klass = task_label(manifest.label_of(manifest.samples[i]), task)
        sums[klass] = sums.get(klass, 0.0) + row
        counts[klass] = counts.get(klass, 0) + 1
    return {klass: sums[klass] / counts[klass] for klass in sums}


# Tuned lag defaults for the autocorrelation feature, by (task, classifier).
DEFAULT_AUTOCORR_LAGS: dict[tuple[Task, str], int] = {
    (Task.FIXED_VS_VARIABLE, "knn1"): 256,
    (Task.FIXED_VS_VARIABLE, "knn3"): 256,
    (Task.FIXED_VS_VARIABLE, "knn5"): 512,
    (Task.FIXED_VS_VARIABLE, "dtree"): 128,
    (Task.FIXED_VS_VARIABLE, "gnb"): 32,
    (Task.FIXED_VS_VARIABLE, "logreg"): 128,
    (Task.FIXED_VS_VARIABLE, "rforest"): 256,
    (Task.FIXED_WIDTH, "knn1"): 32,
    (Task.FIXED_WIDTH, "knn3"): 128,
    (Task.FIXED_WIDTH, "knn5"): 512,
    (Task.FIXED_WIDTH, "dtree"): 128,
    (Task.FIXED_WIDTH, "gnb"): 256,
    (Task.FIXED_WIDTH, "logreg"): 128,
    (Task.FIXED_WIDTH, "rforest"): 256,
}

# Tuned inverse-regularization defaults for logistic regression.
DEFAULT_LOGREG_C: dict[tuple[Task, str], float] = {
    (Task.ENDIANNESS, ENDSIG): 1e10,
    (Task.ENDIANNESS, BIGRAMS): 1e5,
    (Task.FIXED_VS_VARIABLE, AUTOCORR): 1e0,
    (Task.FIXED_WIDTH, AUTOCORR): 1e1,
}

DEFAULT_LAG_GRID = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_C_GRID = tuple(10.0 ** e for e in range(1, 12))


# ----------------------------------------------------------------------
# LOGOCV planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fold:
    held_out_isa: str
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    # Positions of train_ids and test_ids in the plan's ids: the fold's rows
    # of any feature matrix aligned with them.
    train_rows: np.ndarray = field(compare=False, repr=False)
    test_rows: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class LogoSplitPlan:
    """The folds of one task on one manifest, with the eligible sample ids
    in manifest order and each one's task class. It depends on neither the
    feature nor the classifier, so a sweep plans once for every grid value."""

    folds: tuple[Fold, ...]
    ids: tuple[int, ...]
    labels: tuple[str, ...]


def eligible_ids(manifest: CorpusManifest, task: Task) -> list[int]:
    return [
        i
        for i, ref in enumerate(manifest.samples)
        if task_label(manifest.label_of(ref), task) is not None
    ]


def plan_logocv(manifest: CorpusManifest, task: Task) -> LogoSplitPlan:
    """One fold per eligible ISA: its samples form the test set, all other
    eligible samples the training set. Folds are ordered by ISA name."""
    ids = eligible_ids(manifest, task)
    row_of = {i: r for r, i in enumerate(ids)}
    by_group: dict[str, list[int]] = {}
    for i in ids:
        by_group.setdefault(manifest.samples[i].isa_name, []).append(i)
    groups = sorted(by_group)
    if len(groups) < 2:
        raise InsufficientGroups(
            f"task {task.value} needs >= 2 eligible ISA groups, found {len(groups)}"
        )
    folds = []
    for held_out in groups:
        test = tuple(by_group[held_out])
        train = tuple(i for g in groups if g != held_out for i in by_group[g])
        folds.append(Fold(held_out, train, test,
                          np.array([row_of[i] for i in train], dtype=np.intp),
                          np.array([row_of[i] for i in test], dtype=np.intp)))
    labels = tuple(task_label(manifest.label_of(manifest.samples[i]), task) for i in ids)
    return LogoSplitPlan(tuple(folds), tuple(ids), labels)


# ----------------------------------------------------------------------
# Accuracy and baseline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineReport:
    most_frequent_class: str
    most_frequent_count: int
    total_count: int

    @property
    def baseline(self) -> float:
        return self.most_frequent_count / self.total_count


def compute_baseline(labels: Sequence[str]) -> BaselineReport:
    """Accuracy of always predicting the most frequent class; ties break
    lexicographically."""
    if not labels:
        raise EmptyLabelList("cannot compute a baseline over zero labels")
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best = max(sorted(counts), key=lambda k: counts[k])  # sorted first => lexicographic ties
    return BaselineReport(best, counts[best], len(labels))


def mean_fold_accuracy(per_fold_accuracies: Sequence[float]) -> float:
    """Unweighted mean over ISA groups (each fold is one ISA)."""
    return sum(per_fold_accuracies) / len(per_fold_accuracies)


@dataclass(frozen=True)
class FoldResult:
    isa_name: str
    accuracy: float
    n_test: int
    confusion: dict[str, dict[str, int]]  # true -> predicted -> count


@dataclass(frozen=True)
class EvaluationReport:
    task: Task
    feature: FeatureConfig
    classifier: ClassifierSpec
    per_fold: tuple[FoldResult, ...]
    feature_accuracy: float
    pooled_accuracy: float
    baseline: BaselineReport
    single_isa_classes: tuple[str, ...]  # unlearnable under LOGOCV


def _run_fold(
    fold: Fold,
    features: np.ndarray,
    labels: Sequence[str],
    classifier: ClassifierSpec,
    feature: FeatureConfig,
) -> FoldResult:
    """One fold's model, fitted and scored on its rows of features and
    labels."""
    try:
        model = fit(classifier, features[fold.train_rows],
                    [labels[r] for r in fold.train_rows.tolist()], feature)
        predicted = predict(model, features[fold.test_rows])
    except IsaTraitsError as exc:
        raise type(exc)(f"fold {fold.held_out_isa}: {exc}") from exc
    confusion: dict[str, dict[str, int]] = {}
    correct = 0
    for r, pred in zip(fold.test_rows.tolist(), predicted):
        true = labels[r]
        confusion.setdefault(true, {})
        confusion[true][pred] = confusion[true].get(pred, 0) + 1
        if pred == true:
            correct += 1
    return FoldResult(fold.held_out_isa, correct / len(fold.test_ids), len(fold.test_ids), confusion)


def _logocv(
    manifest: CorpusManifest,
    task: Task,
    points: Sequence[tuple[FeatureConfig, ClassifierSpec]],
) -> list[EvaluationReport]:
    """Full LOGOCV at each (feature, classifier) point, all of one feature
    name: the folds are planned once, every sample is loaded and extracted
    once, at the widest feature, and each point's folds read its first
    feature.dim columns, bit-identical to extracting that feature alone.
    The baseline and the single-ISA classes depend on neither, so they are
    computed once too."""
    plan = plan_logocv(manifest, task)
    widest = max((feature for feature, _ in points), key=lambda feature: feature.dim)
    matrix = extract_features(manifest, {task: (plan.ids, widest)})[task]
    baseline = compute_baseline(plan.labels)
    isas_per_class: dict[str, set[str]] = {}
    for i, klass in zip(plan.ids, plan.labels):
        isas_per_class.setdefault(klass, set()).add(manifest.samples[i].isa_name)
    single = tuple(sorted(k for k, isas in isas_per_class.items() if len(isas) == 1))

    reports = []
    for feature, classifier in points:
        features = matrix[:, :feature.dim]
        per_fold = tuple(_run_fold(fold, features, plan.labels, classifier, feature)
                         for fold in plan.folds)
        total = sum(fr.n_test for fr in per_fold)
        reports.append(EvaluationReport(
            task=task,
            feature=feature,
            classifier=classifier,
            per_fold=per_fold,
            feature_accuracy=mean_fold_accuracy([fr.accuracy for fr in per_fold]),
            pooled_accuracy=sum(fr.accuracy * fr.n_test for fr in per_fold) / total,
            baseline=baseline,
            single_isa_classes=single,
        ))
    return reports


def run_evaluation(
    manifest: CorpusManifest,
    task: Task,
    feature: FeatureConfig,
    classifier: ClassifierSpec,
) -> EvaluationReport:
    """Full LOGOCV of one point, the sweep of one: extract features once,
    fit/score one model per fold in group order, aggregate."""
    return _logocv(manifest, task, [(feature, classifier)])[0]


# ----------------------------------------------------------------------
# Grid search
# ----------------------------------------------------------------------

def _grid_search(manifest: CorpusManifest, task: Task, grid: Sequence, what: str,
                 point: Callable[..., tuple[FeatureConfig, ClassifierSpec]]) -> tuple:
    """(the grid value of best feature accuracy, the (value, accuracy)
    table) of one LOGOCV sweep over the grid, value v evaluated at the
    (feature, classifier) pair point(v). The folds are planned and the
    features extracted once for the whole grid; the grid is swept in
    ascending order, so ties go to the smaller value."""
    if not grid:
        raise ValueError(f"{what} grid must be non-empty")
    if any(value <= 0 for value in grid):
        raise ValueError(f"{what} values must be positive")
    grid = sorted(grid)
    reports = _logocv(manifest, task, [point(value) for value in grid])
    table = [(value, report.feature_accuracy) for value, report in zip(grid, reports)]
    return max(table, key=lambda row: row[1])[0], table


def grid_search_c(
    manifest: CorpusManifest,
    task: Task,
    feature: FeatureConfig,
    c_grid: Sequence[float],
) -> tuple[float, list[tuple[float, float]]]:
    """Sweep logistic-regression c over the grid; best is the argmax of
    feature accuracy, ties to the smaller c."""
    return _grid_search(manifest, task, c_grid, "c", lambda c: (
        feature, ClassifierSpec(ClassifierKind.LOGISTIC_REGRESSION, c=c)))


def grid_search_lag(
    manifest: CorpusManifest,
    task: Task,
    classifier: ClassifierSpec,
    lag_grid: Sequence[int],
) -> tuple[int, list[tuple[int, float]]]:
    """Sweep the autocorrelation lag over the grid; ties to the smaller lag.
    Every sample is extracted once, at the largest lag; each lag's
    evaluation takes the columns f(1..lag), which are bit-identical to
    extracting at that lag."""
    return _grid_search(manifest, task, lag_grid, "lag",
                        lambda lag: (FeatureConfig(AUTOCORR, lag), classifier))


# ----------------------------------------------------------------------
# Two-stage prediction for a single unknown binary
# ----------------------------------------------------------------------

# What each stage's model may predict: LE/BE, fixed/variable, or decimal
# bit widths.
_STAGE_CLASSES: dict[Task, Callable[[str], bool]] = {
    Task.ENDIANNESS: lambda label: label in ("LE", "BE"),
    Task.FIXED_VS_VARIABLE: lambda label: label in (SizeKind.FIXED.value, SizeKind.VARIABLE.value),
    Task.FIXED_WIDTH: lambda label: label.isascii() and label.isdecimal(),
}


def _check_stage_model(task: Task, model: TrainedModel) -> None:
    """Model files come from outside the program, so each must predict its
    own stage's classes from a feature this program extracts, with as many
    dimensions as it has."""
    labels = model.class_labels
    if not all(map(_STAGE_CLASSES[task], labels)):
        raise IsaTraitsError(f"not a model for the {task.value} stage: its classes are "
                             f"{', '.join(labels)}", stage=task.value)
    try:
        feature = FeatureConfig(model.feature_name, model.lag_param)
    except ValueError as exc:
        raise IsaTraitsError(str(exc), stage=task.value) from None
    if model.n_features != feature.dim:
        at_lag = f" at lag {feature.lag}" if feature.lag else ""
        raise IsaTraitsError(f"the model has {model.n_features} features, but {feature.name}{at_lag}"
                             f" has {feature.dim}", stage=task.value)


def predict_unknown(
    binary,
    endian_model: TrainedModel,
    isvar_model: TrainedModel,
    width_model: TrainedModel,
) -> dict[str, Any]:
    """The object `isatraits predict` prints: endianness, size_kind,
    per_stage_details (each run stage's prediction, feature and classifier
    name, by task name) and fixed_bits, an int present only when size_kind
    is fixed. Stage 1 predicts endianness, stage 2 fixed vs variable size;
    only fixed-size predictions proceed to the width stage. Errors carry
    the stage they came from. The autocorrelation is extracted once, at the
    largest stage lag the binary is long enough for, and each stage takes
    its first columns. Each model must be one fitted for its stage."""
    models = {Task.ENDIANNESS: endian_model, Task.FIXED_VS_VARIABLE: isvar_model,
              Task.FIXED_WIDTH: width_model}
    for task, model in models.items():
        _check_stage_model(task, model)
    lags = [m.lag_param for m in models.values()
            if m.feature_name == AUTOCORR and m.lag_param <= len(binary.data) - 2]
    shared = extract_feature(binary, FeatureConfig(AUTOCORR, max(lags))) if lags else None
    details: dict[str, dict] = {}

    def run(task: Task) -> str:
        model = models[task]
        try:
            if model.feature_name == AUTOCORR and shared is not None and model.lag_param <= shared.size:
                values = shared[:model.lag_param]
            else:
                values = extract_feature(binary, FeatureConfig(model.feature_name, model.lag_param))
            prediction = predict(model, values[None])[0]
        except IsaTraitsError as exc:
            exc.stage = task.value
            raise
        details[task.value] = {"prediction": prediction, "feature": model.feature_name,
                               "classifier": name_of_spec(model.spec)}
        return prediction

    result = {"endianness": run(Task.ENDIANNESS), "size_kind": run(Task.FIXED_VS_VARIABLE),
              "per_stage_details": details}
    if result["size_kind"] == SizeKind.FIXED.value:
        result["fixed_bits"] = int(run(Task.FIXED_WIDTH))
    return result


# ----------------------------------------------------------------------
# Report serialization
# ----------------------------------------------------------------------

def report_to_dict(report: EvaluationReport, meta: dict | None = None) -> dict:
    payload = {
        "task": report.task.value,
        "feature": {"name": report.feature.name, "lag": report.feature.lag},
        "classifier": report.classifier.to_dict(),
        "feature_accuracy": report.feature_accuracy,
        "pooled_accuracy": report.pooled_accuracy,
        "baseline": {
            "most_frequent_class": report.baseline.most_frequent_class,
            "most_frequent_count": report.baseline.most_frequent_count,
            "total_count": report.baseline.total_count,
            "baseline": report.baseline.baseline,
        },
        "single_isa_classes": list(report.single_isa_classes),
        "per_fold": [
            {
                "isa": fr.isa_name,
                "accuracy": fr.accuracy,
                "n_test": fr.n_test,
                "confusion": fr.confusion,
            }
            for fr in report.per_fold
        ],
    }
    if meta:
        payload.update(meta)
    return payload


def write_report_json(report: EvaluationReport, path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report, meta), indent=2) + "\n", encoding="utf-8")


def write_report_csv(report: EvaluationReport, fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(["isa", "accuracy", "n_test"])
    for fr in report.per_fold:
        writer.writerow([fr.isa_name, repr(fr.accuracy), fr.n_test])


def write_grid_csv(table: Sequence[tuple[float | int, float]], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(["param", "accuracy"])
    for param, accuracy in table:
        writer.writerow([param, repr(accuracy)])
