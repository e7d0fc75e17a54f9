"""The native L-BFGS logistic-regression fit.

Its gates are against logreg_reference (tests/oracles.py), the fit by
scipy's L-BFGS-B on the same objective and stopping rules. On the
acceptance corpora every LOGOCV fold must predict exactly as the reference
does. Where the objective is well conditioned (c = 1 and c = 10, the tuned
autocorrelation defaults) its value must also agree to 1e-8 relative. Near
separable fits (the endsig default c = 1e10, bigrams at c = 1e5, the top of
the c grid) have a flat valley floor, where the two minimizers stop at
different points of equal validity, so only their predictions are held
equal there.
"""

import numpy as np
import pytest

from isatraits.classify import ClassifierKind, ClassifierSpec, logistic
from isatraits.corpus import generate_synthetic_endian, generate_synthetic_fixedwidth
from isatraits.evaluate import (
    DEFAULT_C_GRID,
    FeatureConfig,
    Task,
    grid_search_c,
    run_evaluation,
)

from oracles import logreg_reference


@pytest.fixture(scope="module")
def size_corpus():
    # The fixed/variable and fixed-width corpus of acceptance criteria 6 and 7.
    return generate_synthetic_fixedwidth(
        widths_bits=[16, 32, 64], isas_per_width=3, files_per_isa=10,
        file_len=8192, variable_isas=5, seed=101,
    )


@pytest.fixture(scope="module")
def endian_corpus():
    # The endianness corpus of acceptance criterion 5.
    return generate_synthetic_endian(isa_count_per_class=4, files_per_isa=20,
                                     file_len=65536, seed=202)


def objective(W, X, y, n_classes, c):
    n = X.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    return logistic._loss_and_grad(W.ravel(), np.hstack([X, np.ones((n, 1))]), y, onehot, c)[0]


def logreg_runs(monkeypatch, run, reference):
    """Every logreg fold's predictions and objective while run() evaluates,
    fitted natively or, when reference, by logreg_reference."""
    native_train, native_predict = logistic.train, logistic.predict_indices
    predictions, objectives = [], []

    def train(X, y, n_classes, c):
        if reference:
            W = logreg_reference(X, y, n_classes, c)
        else:
            W = native_train(X, y, n_classes, c)["weights"]
        objectives.append(objective(W, X, y, n_classes, c))
        return {"weights": W}

    def predict_indices(params, Q):
        predictions.append(native_predict(params, Q))
        return predictions[-1]

    with monkeypatch.context() as patch:
        patch.setattr(logistic, "train", train)
        patch.setattr(logistic, "predict_indices", predict_indices)
        result = run()
    return result, predictions, objectives


def assert_same_predictions(monkeypatch, run):
    """run() gives the same result and fold predictions with either fit;
    returns both sides' objectives."""
    native, ours, f_native = logreg_runs(monkeypatch, run, reference=False)
    expected, theirs, f_reference = logreg_runs(monkeypatch, run, reference=True)
    assert native == expected
    assert len(ours) == len(theirs) > 0
    for a, b in zip(ours, theirs):
        np.testing.assert_array_equal(a, b)
    return np.array(f_native), np.array(f_reference)


def logreg(c):
    return ClassifierSpec(ClassifierKind.LOGISTIC_REGRESSION, c=c)


class TestAgainstReference:
    @pytest.mark.parametrize("c", [1.0, 10.0])
    @pytest.mark.parametrize("lag", [16, 128])
    @pytest.mark.parametrize("task", [Task.FIXED_VS_VARIABLE, Task.FIXED_WIDTH])
    def test_well_conditioned_folds(self, task, lag, c, size_corpus, monkeypatch):
        f_native, f_reference = assert_same_predictions(monkeypatch, lambda: run_evaluation(
            size_corpus, task, FeatureConfig("autocorr", lag), logreg(c)))
        gap = np.abs(f_native - f_reference) / np.abs(f_reference)
        assert gap.max() <= 1e-8

    def test_endsig_default_c(self, endian_corpus, monkeypatch):
        assert_same_predictions(monkeypatch, lambda: run_evaluation(
            endian_corpus, Task.ENDIANNESS, FeatureConfig("endsig"), logreg(1e10)))

    def test_bigrams_default_c(self, monkeypatch):
        # 65,537 x 2 weights: the fit that a Newton step could not afford.
        manifest = generate_synthetic_endian(isa_count_per_class=2, files_per_isa=2,
                                             file_len=2048, seed=7)
        assert_same_predictions(monkeypatch, lambda: run_evaluation(
            manifest, Task.ENDIANNESS, FeatureConfig("bigrams"), logreg(1e5)))

    @pytest.mark.parametrize("task, feature", [
        (Task.ENDIANNESS, FeatureConfig("endsig")),
        (Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", 128)),
        (Task.FIXED_WIDTH, FeatureConfig("autocorr", 128)),
    ])
    def test_c_grid(self, task, feature, size_corpus, endian_corpus, monkeypatch):
        manifest = endian_corpus if task is Task.ENDIANNESS else size_corpus
        assert_same_predictions(monkeypatch, lambda: grid_search_c(
            manifest, task, feature, DEFAULT_C_GRID))


def counting(fun):
    """fun, and a list that gets one entry per call of it."""
    calls = []

    def counted(*args):
        calls.append(1)
        return fun(*args)
    return counted, calls


def counted_fit(monkeypatch, X, y, n_classes, c):
    """(weights, objective evaluations) of one fit."""
    loss_and_grad, calls = counting(logistic._loss_and_grad)
    with monkeypatch.context() as patch:
        patch.setattr(logistic, "_loss_and_grad", loss_and_grad)
        W = logistic.train(X, y, n_classes, c)["weights"]
    return W, len(calls)


def separable(n_per_class=20):
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(-3.0, 1.0, (n_per_class, 3)), rng.normal(3.0, 1.0, (n_per_class, 3))])
    return X, np.repeat([0, 1], n_per_class)


DEGENERATE = {
    # Balanced classes on constant features: the gradient is zero at the start.
    "constant-balanced": (np.full((6, 3), 2.5), np.array([0, 1, 2, 0, 1, 2]), 3, 1.0),
    # Unbalanced: only the class frequencies are learnable.
    "constant-unbalanced": (np.full((5, 2), 7.0), np.array([0, 0, 0, 1, 1]), 2, 1e11),
    "zeros": (np.zeros((4, 4)), np.array([0, 0, 0, 1]), 2, 10.0),
    "two-samples": (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2, 1e11),
    "conflicting-duplicates": (np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0]] * 2),
                               np.array([0, 1, 0, 1, 1, 0]), 2, 1e11),
    "separable-top-of-grid": (*separable(), 2, DEFAULT_C_GRID[-1]),
}


class TestDegenerateTrainingSets:
    @pytest.mark.parametrize("case", DEGENERATE)
    def test_ends_finite_and_deterministic(self, case, monkeypatch):
        X, y, n_classes, c = DEGENERATE[case]
        W, evaluations = counted_fit(monkeypatch, X, y, n_classes, c)
        assert evaluations <= logistic.MAX_FUN
        assert W.shape == (X.shape[1] + 1, n_classes)
        assert np.isfinite(W).all()
        assert W.tobytes() == logistic.train(X, y, n_classes, c)["weights"].tobytes()

    def test_zero_gradient_stops_at_start(self, monkeypatch):
        W, evaluations = counted_fit(monkeypatch, *DEGENERATE["constant-balanced"])
        assert evaluations == 1
        assert not W.any()

    def test_constant_features_learn_class_frequencies(self):
        X, y, n_classes, c = DEGENERATE["constant-unbalanced"]
        W = logistic.train(X, y, n_classes, c)["weights"]
        scores = np.append(X[0], 1.0) @ W
        probs = np.exp(scores - scores.max()) / np.exp(scores - scores.max()).sum()
        np.testing.assert_allclose(probs, [0.6, 0.4], atol=1e-6)

    def test_separable_fits_every_sample(self):
        X, y, n_classes, c = DEGENERATE["separable-top-of-grid"]
        params = logistic.train(X, y, n_classes, c)
        np.testing.assert_array_equal(logistic.predict_indices(params, X), y)


class TestMinimizer:
    def test_rosenbrock(self):
        # Curved valley from the textbook start: L-BFGS needs about 45
        # evaluations (scipy's L-BFGS-B 45 too); steepest descent stops far
        # from the minimum after thousands.
        def rosenbrock(x):
            a, b = x
            f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
            return float(f), np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                                       200.0 * (b - a * a)])

        fun, calls = counting(rosenbrock)
        x = logistic.minimize_lbfgs(fun, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert len(calls) <= 60

    def test_unbounded_objective_ends_within_budget(self):
        # No minimum: every line search only extrapolates.
        fun, calls = counting(lambda x: (float(-x.sum()), -np.ones_like(x)))
        x = logistic.minimize_lbfgs(fun, np.zeros(3))
        assert len(calls) <= logistic.MAX_FUN
        assert np.isfinite(x).all()
