import copy
import inspect
import json
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isatraits.classify import (
    SUITE_NAMES,
    ClassifierKind,
    ClassifierSpec,
    fit,
    load_model,
    name_of_spec,
    predict,
    save_model,
    spec_from_name,
)
from isatraits.classify import gaussian_nb, knn, tree
from isatraits.classify.base import LEARNERS
from isatraits.corpus import generate_synthetic_fixedwidth
from isatraits.errors import CorruptModelFile, DimensionMismatch, SingleClassTrainingSet
from isatraits.evaluate import FeatureConfig, Task, extract_features, plan_logocv, task_label

from conftest import FEATURE, matrix
from oracles import (
    flatten_reference,
    forest_draws_reference,
    forest_reference,
    knn_reference,
    splitmix_child,
    subset_reference,
    tree_reference,
    walk_reference,
)

DATA_DIR = Path(__file__).resolve().parent / "data"


def blobs(rng, n_per_class=100, dim=3, spread=5.0):
    a = rng.normal(-spread, 1.0, size=(n_per_class, dim))
    b = rng.normal(spread, 1.0, size=(n_per_class, dim))
    X = matrix(np.vstack([a, b]))
    y = ["neg"] * n_per_class + ["pos"] * n_per_class
    return X, y


class TestSpec:
    def test_knn_k_restricted(self):
        with pytest.raises(ValueError):
            ClassifierSpec(ClassifierKind.KNN, k=2)

    def test_c_positive(self):
        with pytest.raises(ValueError):
            ClassifierSpec(ClassifierKind.LOGISTIC_REGRESSION, c=0.0)

    @pytest.mark.parametrize("kind", list(ClassifierKind))
    @pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
    def test_c_finite(self, kind, c):
        with pytest.raises(ValueError, match="finite"):
            ClassifierSpec(kind, c=c)

    def test_trees_positive(self):
        with pytest.raises(ValueError):
            ClassifierSpec(ClassifierKind.RANDOM_FOREST, trees=0)

    def test_name_lookup(self):
        assert spec_from_name("knn5").k == 5
        assert spec_from_name("logreg", c=100.0).c == 100.0
        with pytest.raises(ValueError):
            spec_from_name("svm")

    @pytest.mark.parametrize("name", ["knn3", "rforest"])
    def test_negative_seed_refused(self, name):
        # load_model refuses a model file with such a seed, and a forest
        # could not draw from it.
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            spec_from_name(name, seed=-1)


class TestLearnerTable:
    def test_every_kind_has_a_learner(self):
        assert set(LEARNERS) == set(ClassifierKind)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_name_of_spec_inverts_spec_from_name(self, name):
        assert name_of_spec(spec_from_name(name)) == name
        assert name_of_spec(spec_from_name(name, c=5.0, trees=3, seed=2, standardize=True)) == name

    @pytest.mark.parametrize("module", ["knn", "gaussian_nb", "logistic", "tree", "serialize"])
    def test_module_imports_first(self, module):
        # A learner module imported before the package's table must not
        # meet a half-initialised module on the way.
        proc = subprocess.run([sys.executable, "-c", f"import isatraits.classify.{module}"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestKnn:
    def test_nearest_neighbor(self):
        model = fit(spec_from_name("knn1"), matrix([[0.0], [10.0]]), ["a", "b"], FEATURE)
        assert predict(model, matrix([[1.0]])) == ["a"]

    def test_empty_predict(self):
        model = fit(spec_from_name("knn1"), matrix([[0.0], [10.0]]), ["a", "b"], FEATURE)
        assert predict(model, np.empty((0, 1))) == []

    def test_training_set_memorization(self):
        rng = np.random.default_rng(0)
        X = matrix(rng.normal(size=(20, 4)))
        y = [f"c{i % 4}" for i in range(20)]
        model = fit(spec_from_name("knn1"), X, y, FEATURE)
        assert predict(model, X) == y

    def test_vote_tie_goes_to_nearest(self):
        # k=3 with three distinct classes: counts tie, nearest wins.
        X = matrix([[0.0], [1.0], [2.0]])
        model = fit(spec_from_name("knn3"), X, ["a", "b", "c"], FEATURE)
        assert predict(model, matrix([[0.1]])) == ["a"]
        assert predict(model, matrix([[1.9]])) == ["c"]

    def test_distance_tie_goes_to_lower_index(self):
        X = matrix([[0.0], [2.0]])
        model = fit(spec_from_name("knn1"), X, ["first", "second"], FEATURE)
        assert predict(model, matrix([[1.0]])) == ["first"]

    def test_majority_beats_nearest(self):
        X = matrix([[0.0], [3.0], [4.0]])
        model = fit(spec_from_name("knn3"), X, ["a", "b", "b"], FEATURE)
        assert predict(model, matrix([[1.0]])) == ["b"]


@st.composite
def knn_cases(draw):
    """kNN parameters and queries on a few small integer points, so that
    distances tie, with training rows drawn from them with repeats."""
    n_classes = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    points = draw(st.lists(point, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=9))
    y = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(picks), max_size=len(picks)))
    queries = draw(st.lists(point, min_size=1, max_size=6))
    params = {"train_x": matrix([points[i] for i in picks]),
              "train_y": np.array(y, dtype=np.int64),
              "k": draw(st.sampled_from([1, 3, 5]))}
    return params, matrix(queries), n_classes


@given(knn_cases())
@settings(max_examples=300, deadline=None)
def test_knn_vote_matches_the_per_row_reference(case):
    params, Q, n_classes = case
    got = knn.predict_indices(params, Q, n_classes)
    assert got.dtype == np.int64
    assert np.array_equal(got, knn_reference(params, Q, n_classes))


class TestGaussianNB:
    def test_separated_blobs(self):
        X, y = blobs(np.random.default_rng(1))
        model = fit(spec_from_name("gnb"), X, y, FEATURE)
        accuracy = np.mean([p == t for p, t in zip(predict(model, X), y)])
        assert accuracy >= 0.99

    def test_scaling_invariance(self):
        # Scaling features by a positive constant rescales means, variances
        # and the smoothing term consistently, so the argmax is unchanged.
        rng = np.random.default_rng(2)
        X, y = blobs(rng, n_per_class=50)
        queries = matrix(rng.normal(0.0, 6.0, size=(40, 3)))
        base = predict(fit(spec_from_name("gnb"), X, y, FEATURE), queries)
        scale = 7.3
        scaled = predict(fit(spec_from_name("gnb"), X * scale, y, FEATURE), queries * scale)
        assert base == scaled

    def test_loglikelihood_recomputation(self):
        # Recompute the per-dimension Gaussian log-likelihood by hand for a
        # tiny model and check the winning class.
        X = matrix([[0.0], [1.0], [10.0], [11.0]])
        y = ["lo", "lo", "hi", "hi"]
        model = fit(spec_from_name("gnb"), X, y, FEATURE)
        params = model.parameters
        q = 2.0
        scores = []
        for c in range(2):
            mean = params["means"][c, 0]
            var = params["variances"][c, 0]
            scores.append(
                params["log_priors"][c]
                - 0.5 * (np.log(2 * np.pi * var) + (q - mean) ** 2 / var)
            )
        assert predict(model, matrix([[q]])) == [model.class_labels[int(np.argmax(scores))]]

    def test_constant_training_data_predicts_the_prior_class(self):
        # No dimension varies, so the smoothing term falls back to
        # VAR_SMOOTHING itself; every class then has the same likelihood and
        # the larger prior wins.
        X = matrix([[3.0, -1.0]] * 5)
        model = fit(spec_from_name("gnb"), X, ["b", "a", "b", "a", "b"], FEATURE)
        assert np.all(model.parameters["variances"] == gaussian_nb.VAR_SMOOTHING)
        assert predict(model, matrix([[3.0, -1.0], [0.0, 7.0]])) == ["b", "b"]


class TestLogisticRegression:
    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n_per_class=40, dim=2)
        model = fit(spec_from_name("logreg", c=1.0), X, y, FEATURE)
        assert predict(model, X) == y

    def test_accuracy_monotone_in_c(self):
        # Unbalanced separable set: heavy regularization collapses to the
        # majority class, weak regularization fits everything.
        X = matrix([[-1.0 + 0.01 * i] for i in range(30)] + [[1.0 + 0.01 * i] for i in range(10)])
        y = ["a"] * 30 + ["b"] * 10
        accuracies = []
        for c in (1e-4, 1e-2, 1.0, 100.0):
            model = fit(spec_from_name("logreg", c=c), X, y, FEATURE)
            accuracies.append(np.mean([p == t for p, t in zip(predict(model, X), y)]))
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] == 1.0

    def test_multiclass(self):
        X = matrix([[0.0, 0], [0.1, 0], [5.0, 5], [5.1, 5], [0.0, 5], [0.1, 5]])
        y = ["a", "a", "b", "b", "c", "c"]
        model = fit(spec_from_name("logreg", c=10.0), X, y, FEATURE)
        assert predict(model, X) == y


class TestDecisionTree:
    def test_axis_aligned_split(self):
        X = matrix([[0.0], [1.0], [10.0], [11.0]])
        y = ["lo", "lo", "hi", "hi"]
        model = fit(spec_from_name("dtree"), X, y, FEATURE)
        assert predict(model, matrix([[2.0], [9.0]])) == ["lo", "hi"]

    def test_training_set_fit(self):
        rng = np.random.default_rng(4)
        X = matrix(rng.normal(size=(30, 3)))
        y = [f"c{i % 3}" for i in range(30)]
        model = fit(spec_from_name("dtree"), X, y, FEATURE)
        assert predict(model, X) == y  # duplicate-free data is fit exactly

    def test_equal_gain_prefers_lowest_feature(self):
        # Both columns split perfectly; the tree must pick feature 0.
        X = matrix([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = ["a", "a", "b", "b"]
        model = fit(spec_from_name("dtree"), X, y, FEATURE)
        assert model.parameters["tree"]["feature"][0] == 0  # the root


class TestRandomForest:
    def test_fits_blobs(self):
        X, y = blobs(np.random.default_rng(5), n_per_class=50)
        model = fit(spec_from_name("rforest", trees=25, seed=1), X, y, FEATURE)
        accuracy = np.mean([p == t for p, t in zip(predict(model, X), y)])
        assert accuracy >= 0.98

    def test_seed_determinism(self):
        X, y = blobs(np.random.default_rng(6), n_per_class=30)
        queries = matrix(np.random.default_rng(7).normal(size=(25, 3)))
        a = predict(fit(spec_from_name("rforest", trees=15, seed=3), X, y, FEATURE), queries)
        b = predict(fit(spec_from_name("rforest", trees=15, seed=3), X, y, FEATURE), queries)
        assert a == b

    @pytest.mark.parametrize("seed", [3, 2**64, 2**70])
    def test_same_seed_same_model_file_next_seed_other_trees(self, seed, tmp_path):
        X, y = blobs(np.random.default_rng(6), n_per_class=30, spread=1.0)

        def saved(seed, name):
            path = tmp_path / name
            save_model(fit(spec_from_name("rforest", trees=15, seed=seed), X, y, FEATURE), path)
            return path.read_bytes()

        first = saved(seed, "first.model")
        assert saved(seed, "again.model") == first
        trees = read_envelope(tmp_path / "first.model")["parameters"]
        saved(seed + 1, "next.model")
        assert read_envelope(tmp_path / "next.model")["parameters"] != trees

    def test_model_file_of_the_per_tree_generator_forest_predicts_as_before(self):
        # Written when each tree drew from its own numpy generator: the
        # format and predict are unchanged, so old files predict as then.
        model = load_model(DATA_DIR / "rforest-format2.model")
        queries = matrix(np.random.default_rng(12).normal(0.0, 2.0, size=(16, 3)))
        assert predict(model, queries) == list("cbacaccaaaaabbcb")


def assert_binomial_counts(counts, trials, p):
    """Every count within the binomial bounds that all of them leave only
    by a 1e-6 chance, and Pearson's chi-square over them below its 1e-6
    tail (the counts' covariance is at most the multinomial one, so the
    bound is conservative)."""
    from scipy.stats import binom, chi2

    tail = 1e-6 / (2 * counts.size)
    assert binom.ppf(tail, trials, p) <= counts.min()
    assert counts.max() <= binom.isf(tail, trials, p)
    expected = trials * p
    assert np.sum((counts - expected) ** 2 / expected) <= chi2.isf(1e-6, counts.size - 1)


class TestForestDraws:
    """The counter-based draws against forest_draws_reference, a per-node
    loop over Python ints, and their statistics."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64, 2**70])
    @pytest.mark.parametrize("n, d", [(7, 1), (30, 2), (50, 16), (9, 65536)])
    def test_draws_match_reference(self, seed, n, d):
        n_trees = 20
        roots, draw = tree._forest_draws(seed, n_trees, n, d)
        reference = [forest_draws_reference(seed, t, n, d) for t in range(n_trees)]
        assert roots.tolist() == [bootstrap for bootstrap, _ in reference]
        pick = np.random.default_rng(0)
        for _ in range(6):  # as in growth, a varying subset of trees draws at each step
            trees = np.flatnonzero(pick.random(n_trees) < 0.7)
            assert draw(trees).tolist() == [reference[t][1]() for t in trees]

    @pytest.mark.parametrize("size, d", [(2, 4), (4, 16)])
    def test_rows_short_of_distinct_values_match_reference(self, size, d):
        # 20,000 keys at d = 4 or 16: some draw too few distinct values in
        # their first size + 4 slots, and take the later, wider rounds.
        keys = tree._child(np.zeros(1, dtype=np.uint64), np.arange(20000, dtype=np.uint64))
        short = [k for k in keys.tolist()
                 if len({splitmix_child(k, s) % d for s in range(size + 4)}) < size]
        assert short
        assert tree._subsets(keys, size, d).tolist() == \
            [subset_reference(k, size, d) for k in keys.tolist()]

    @pytest.mark.parametrize("d", [16, 65536])
    def test_subsets_are_sorted_distinct_and_uniform(self, d):
        n_trees, steps = 100, 100  # 10,000 node draws
        size = int(np.sqrt(d))
        _, draw = tree._forest_draws(9, n_trees, 1, d)
        counts = np.zeros(d, dtype=np.int64)
        for _ in range(steps):
            subsets = draw(np.arange(n_trees))
            assert subsets.shape == (n_trees, size)
            assert np.all(np.diff(subsets, axis=1) > 0)
            assert subsets.min() >= 0 and subsets.max() < d
            counts += np.bincount(subsets.ravel(), minlength=d)
        assert_binomial_counts(counts, n_trees * steps, size / d)

    @pytest.mark.parametrize("seed", [0, 1, 2**63])
    def test_seeds_2_to_the_64_apart_differ(self, seed):
        # Seeds are hashed whole, not truncated to 64 bits.
        assert not np.array_equal(tree._forest_draws(seed, 4, 50, 16)[0],
                                  tree._forest_draws(seed + 2**64, 4, 50, 16)[0])

    def test_bootstrap_rows_are_uniform(self):
        n_trees, n = 200, 1000
        roots, _ = tree._forest_draws(4, n_trees, n, 1)
        assert roots.shape == (n_trees, n)
        assert roots.min() >= 0 and roots.max() < n
        assert_binomial_counts(np.bincount(roots.ravel(), minlength=n), n_trees * n, 1 / n)


def _tree_cases():
    """(name, X, y, n_classes): the shapes the tie and stopping rules care about."""
    rng = np.random.default_rng(21)
    cases = [
        ("two-classes", rng.normal(size=(40, 5)), rng.integers(0, 2, 40), 2),
        ("three-classes", rng.normal(size=(45, 6)), rng.integers(0, 3, 45), 3),
        ("tied-values", rng.integers(0, 3, size=(50, 4)).astype(float), rng.integers(0, 3, 50), 3),
        ("n-equals-2", np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2),
        ("many-classes", rng.normal(size=(60, 3)), rng.integers(0, 9, 60), 9),
    ]
    rows = rng.normal(size=(12, 3))
    cases.append(("duplicate-rows", np.vstack([rows, rows, rows[:5]]), rng.integers(0, 2, 29), 2))
    constant = rng.normal(size=(30, 4))
    constant[:, 1] = 7.0
    cases.append(("constant-column", constant, rng.integers(0, 3, 30), 3))
    return cases


TREE_CASES = _tree_cases()


DTREE = spec_from_name("dtree")


def forest(n_trees, seed):
    return spec_from_name("rforest", trees=n_trees, seed=seed)


def assert_same_tree(flat, reference):
    expected = flatten_reference(reference)
    for name in tree.TREE_FIELDS:
        assert flat[name].tolist() == expected[name], name


@pytest.mark.parametrize("name, X, y, n_classes", TREE_CASES, ids=[c[0] for c in TREE_CASES])
class TestFlatTrees:
    """The lock-step array grower against the recursive one-node-at-a-time
    grower it replaced, node for node, and the vectorised predict against
    walking each row."""

    def test_tree_matches_reference(self, name, X, y, n_classes):
        assert_same_tree(tree.train_tree(X, y, n_classes, DTREE)["tree"], tree_reference(X, y, n_classes))

    @pytest.mark.parametrize("n_trees", [1, 7, 53, 100])
    def test_forest_matches_reference(self, name, X, y, n_classes, n_trees):
        flat = tree.train_forest(X, y, n_classes, forest(n_trees, seed=5))["trees"]
        reference = forest_reference(X, y, n_classes, n_trees, seed=5)
        assert len(flat) == n_trees
        for grown, expected in zip(flat, reference):
            assert_same_tree(grown, expected)

    def test_predict_matches_walk(self, name, X, y, n_classes):
        queries = np.vstack([X, np.random.default_rng(22).normal(size=(25, X.shape[1]))])
        single = tree.train_tree(X, y, n_classes, DTREE)
        walked = [walk_reference(tree_reference(X, y, n_classes), row) for row in queries]
        assert tree.predict_indices(single, queries, n_classes).tolist() == walked

        grown = tree.train_forest(X, y, n_classes, forest(7, seed=1))
        votes = np.zeros((queries.shape[0], n_classes), dtype=np.int64)
        for root in forest_reference(X, y, n_classes, 7, seed=1):
            for i, row in enumerate(queries):
                votes[i, walk_reference(root, row)] += 1
        assert tree.predict_indices(grown, queries, n_classes).tolist() == \
            np.argmax(votes, axis=1).tolist()


class TestTreeGrowth:
    def test_forest_fit_memory_is_bounded_by_cells_not_trees(self):
        # One LOGOCV training matrix of the benchmark's corpus shape: all 100
        # trees grow together, so only the scoring chunks bound the peak.
        manifest = generate_synthetic_fixedwidth([16, 32, 64], 3, 10, 8192, 5, seed=3)
        task = Task.FIXED_VS_VARIABLE
        train_ids = plan_logocv(manifest, task).folds[0].train_ids
        X = extract_features(manifest, {0: (train_ids, FeatureConfig("autocorr", 16))})[0]
        y = np.array([task_label(manifest.label_of(manifest.samples[i]), task) == "variable"
                      for i in train_ids], dtype=np.int64)
        assert X.shape == (130, 16)
        tracemalloc.start()
        try:
            tree.train_forest(X, y, 2, forest(100, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_adjacent_float_values_still_split(self):
        # The midpoint of two adjacent floats can round to the upper one;
        # the split must still separate them, or growth never ends.
        low = 1.0 + np.finfo(float).eps
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low], [high], [low], [high]])
        grown = tree.train_tree(X, np.array([0, 1, 0, 1]), 2, DTREE)["tree"]
        assert grown["threshold"][0] == low
        assert tree.predict_indices({"tree": grown}, X, 2).tolist() == [0, 1, 0, 1]

    def test_tree_deeper_than_the_recursion_limit(self, tmp_path):
        # Alternating labels on one feature grow a chain: every split peels
        # off one row, so the tree is n - 1 levels deep.
        n = 600
        X = matrix(np.arange(n, dtype=float)[:, None])
        y = ["ab"[i % 2] for i in range(n)]
        path = tmp_path / "deep.model"
        save_model(fit(spec_from_name("dtree"), X[:4], y[:4], FEATURE), path)  # imports done at full limit
        predict(load_model(path), X[:4])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            model = fit(spec_from_name("dtree"), X, y, FEATURE)
            save_model(model, path)
            predicted = predict(load_model(path), X)
        finally:
            sys.setrecursionlimit(limit)
        assert model.parameters["tree"]["value"].size == 2 * n - 1
        assert predicted == y


class TestStandardization:
    def test_stats_present_iff_standardize(self):
        X, y = blobs(np.random.default_rng(8), n_per_class=10)
        assert fit(spec_from_name("knn3"), X, y, FEATURE).standardization_stats is None
        model = fit(spec_from_name("knn3", standardize=True), X, y, FEATURE)
        assert model.standardization_stats is not None

    def test_stats_come_from_training_data_only(self):
        rng = np.random.default_rng(9)
        train = matrix(rng.normal(size=(20, 2)))
        y = ["a"] * 10 + ["b"] * 10
        held_out = rng.normal(size=(5, 2))
        model = fit(spec_from_name("knn3", standardize=True), train, y, FEATURE)
        means, stds = model.standardization_stats
        held_out *= 1000.0  # mutating held-out data cannot touch the stats
        assert np.allclose(means, train.mean(axis=0), atol=0)
        assert np.allclose(stds, train.std(axis=0), atol=0)

    def test_constant_dimension_passes_through(self):
        X = matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        y = ["a", "a", "b", "b"]
        model = fit(spec_from_name("knn1", standardize=True), X, y, FEATURE)
        assert model.standardization_stats[1][1] == 1.0
        assert predict(model, X) == y


class TestFitErrors:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fit(spec_from_name("knn1"), matrix([[0.0], [1.0]]), ["a"], FEATURE)

    def test_single_class(self):
        with pytest.raises(SingleClassTrainingSet):
            fit(spec_from_name("knn1"), matrix([[0.0], [1.0]]), ["a", "a"], FEATURE)

    def test_too_few_samples(self):
        with pytest.raises(DimensionMismatch):
            fit(spec_from_name("knn1"), matrix([[0.0]]), ["a"], FEATURE)

    @pytest.mark.parametrize("labels, shown", [([0, 1], "0"), (["a", b"b"], "b'b'"),
                                               (["a", None], "None")])
    def test_class_labels_must_be_strings(self, labels, shown):
        # load_model refuses a model file whose class labels are not strings.
        with pytest.raises(ValueError, match=f"class labels must be strings, got {shown}$"):
            fit(spec_from_name("knn1"), matrix([[0.0], [1.0]]), labels, FEATURE)

    def test_predict_dimension_check(self):
        model = fit(spec_from_name("knn1"), matrix([[0.0], [1.0]]), ["a", "b"], FEATURE)
        with pytest.raises(DimensionMismatch):
            predict(model, matrix([[0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            predict(model, np.array([0.0]))  # one row, but not as a matrix


class TestDeterminism:
    @pytest.mark.parametrize("name", ["knn3", "gnb", "dtree", "logreg", "rforest"])
    def test_fit_twice_identical_predictions(self, name):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, n_per_class=25)
        queries = matrix(rng.normal(0.0, 4.0, size=(50, 3)))
        spec = spec_from_name(name, trees=10, seed=2)
        assert predict(fit(spec, X, y, FEATURE), queries) == predict(fit(spec, X, y, FEATURE), queries)


ENVELOPE_KEYS = ["spec", "feature_name", "lag_param", "class_labels",
                 "standardization_stats", "n_features", "parameters"]


def read_envelope(path):
    return json.loads(path.read_text().splitlines()[0])


def write_envelope(path, payload):
    """Write a payload with a valid checksum, so only its content is wrong."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text(f"{body}\ncrc32:{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n")


class TestModelIO:
    @pytest.mark.parametrize("name", ["knn3", "gnb", "dtree", "logreg", "rforest"])
    def test_roundtrip_preserves_predictions(self, name, tmp_path):
        rng = np.random.default_rng(11)
        X, y = blobs(rng, n_per_class=20)
        model = fit(spec_from_name(name, trees=8, seed=4, standardize=(name == "knn3")), X, y, FEATURE)
        path = tmp_path / f"{name}.model"
        save_model(model, path)
        loaded = load_model(path)
        queries = matrix(rng.normal(0.0, 4.0, size=(100, 3)))
        assert predict(loaded, queries) == predict(model, queries)
        assert loaded.class_labels == model.class_labels
        assert loaded.spec == model.spec

    def test_truncated_file(self, tmp_path):
        X, y = blobs(np.random.default_rng(12), n_per_class=5)
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("gnb"), X, y, FEATURE), path)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        X, y = blobs(np.random.default_rng(12), n_per_class=5)
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("gnb"), X, y, FEATURE), path)
        text = path.read_text()
        path.write_text(text.replace('"k"', '"K"', 1) if '"k"' in text else text.replace("0", "1", 1))
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert "checksum" in str(err.value)

    def test_malformed_checksum_line(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("gnb"), *blobs(np.random.default_rng(12), n_per_class=5), FEATURE), path)
        body = path.read_text().splitlines()[0]
        path.write_text(f"{body}\ncrc32:not-hex\n")
        with pytest.raises(CorruptModelFile, match="malformed checksum line"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("gnb"), *blobs(np.random.default_rng(12), n_per_class=5), FEATURE), path)
        payload = read_envelope(path)
        payload["format_version"] = 99
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert "format_version" in str(err.value)
        assert "99" in str(err.value)

    @pytest.mark.parametrize("key", ENVELOPE_KEYS)
    def test_missing_field(self, key, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("knn3"), *blobs(np.random.default_rng(12), n_per_class=5), FEATURE), path)
        payload = read_envelope(path)
        del payload[key]
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert key in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("spec", "knn3"),
        ("spec", {"kind": "knn"}),
        ("feature_name", 7),
        ("lag_param", -4),
        ("feature_name", "autocorr"),  # saved with the endsig lag_param, null
        ("class_labels", "neg,pos"),
        ("standardization_stats", [[0.0]]),
        ("n_features", "3"),
        ("parameters", []),
        ("parameters", {"train_x": [[0.0]]}),
    ])
    def test_mistyped_field(self, key, value, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name("knn3"), *blobs(np.random.default_rng(12), n_per_class=5), FEATURE), path)
        payload = read_envelope(path)
        payload[key] = value
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile):
            load_model(path)

    @pytest.mark.parametrize("name", ["logreg", "knn3"])
    @pytest.mark.parametrize("c", [float("inf"), float("nan")])
    def test_non_finite_c(self, name, c, tmp_path):
        path = tmp_path / "m.model"
        save_model(fit(spec_from_name(name), *blobs(np.random.default_rng(12), n_per_class=5), FEATURE), path)
        payload = read_envelope(path)
        payload["spec"]["c"] = c
        write_envelope(path, payload)
        assert ("Infinity" if c > 0 else "NaN") in path.read_text()
        with pytest.raises(CorruptModelFile, match="finite"):
            load_model(path)

    def test_payload_not_an_object(self, tmp_path):
        path = tmp_path / "m.model"
        write_envelope(path, [1, 2, 3])
        with pytest.raises(CorruptModelFile):
            load_model(path)


def _set(name, index, value):
    def mutate(grown):
        grown[name][index] = value
    return mutate


# One corruption per load-time tree check, with words of the check's
# message; each keeps the file's CRC valid.
TREE_CORRUPTIONS = {
    "missing-threshold": (lambda grown: grown.pop("threshold"), "threshold"),
    "unequal-lengths": (lambda grown: grown["value"].append(0), "equal length"),
    "empty-arrays": (lambda grown: grown.update({name: [] for name in tree.TREE_FIELDS}),
                     "non-empty"),
    "fractional-feature": (_set("feature", 0, 0.5), "list of integers"),
    "feature-too-large": (_set("feature", 0, 3), "feature index"),
    "feature-below-minus-one": (_set("feature", 0, -2), "feature index"),
    "left-child-is-itself": (_set("left", 0, 0), "left child"),
    "right-child-before-node": (_set("right", 0, -1), "right child"),
    "right-child-outside": (lambda grown: grown["right"].__setitem__(0, len(grown["right"])),
                            "right child"),
    "class-too-large": (_set("value", -1, 2), "class outside"),
    "class-negative": (_set("value", 0, -1), "class outside"),
    "threshold-nan": (_set("threshold", 0, float("nan")), "not finite"),
    "threshold-infinite": (_set("threshold", 0, float("inf")), "not finite"),
}


class TestTreeModelIO:
    @pytest.fixture
    def dtree_file(self, tmp_path):
        path = tmp_path / "dtree.model"
        save_model(fit(spec_from_name("dtree"), *blobs(np.random.default_rng(13), n_per_class=6), FEATURE),
                   path)
        return path

    def test_saved_as_arrays(self, dtree_file):
        payload = read_envelope(dtree_file)
        assert payload["format_version"] == 2
        grown = payload["parameters"]["tree"]
        assert sorted(grown) == sorted(tree.TREE_FIELDS)
        assert all(isinstance(grown[name], list) for name in tree.TREE_FIELDS)

    @pytest.mark.parametrize("corruption", list(TREE_CORRUPTIONS))
    def test_corrupt_tree_rejected(self, corruption, dtree_file):
        mutate, words = TREE_CORRUPTIONS[corruption]
        payload = read_envelope(dtree_file)
        mutate(payload["parameters"]["tree"])
        write_envelope(dtree_file, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(dtree_file)
        assert words in str(err.value)

    def test_tree_not_an_object_rejected(self, dtree_file):
        payload = read_envelope(dtree_file)
        grown = payload["parameters"]["tree"]
        payload["parameters"]["tree"] = [grown[name] for name in tree.TREE_FIELDS]
        write_envelope(dtree_file, payload)
        with pytest.raises(CorruptModelFile, match="a tree must be an object of arrays"):
            load_model(dtree_file)

    @pytest.mark.parametrize("count", [7, 9])
    def test_forest_tree_count_must_match_spec(self, count, tmp_path):
        path = tmp_path / "rforest.model"
        X, y = blobs(np.random.default_rng(14), n_per_class=6)
        save_model(fit(spec_from_name("rforest", trees=8, seed=1), X, y, FEATURE), path)
        payload = read_envelope(path)
        trees = payload["parameters"]["trees"]
        payload["parameters"]["trees"] = (trees * 2)[:count]
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert "spec.trees=8" in str(err.value)

    def test_corrupt_forest_tree_rejected(self, tmp_path):
        path = tmp_path / "rforest.model"
        X, y = blobs(np.random.default_rng(14), n_per_class=6)
        save_model(fit(spec_from_name("rforest", trees=8, seed=1), X, y, FEATURE), path)
        payload = read_envelope(path)
        payload["parameters"]["trees"][5]["value"][0] = 5
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_version_one_rejected(self, dtree_file):
        payload = read_envelope(dtree_file)
        payload["format_version"] = 1
        write_envelope(dtree_file, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(dtree_file)
        assert "format_version 1" in str(err.value)


def _params(mutate):
    def on_payload(payload):
        mutate(payload["parameters"])
    return on_payload


def _widen(key):
    """Add a column to every row of a matrix parameter."""
    return _params(lambda params: [row.append(0.0) for row in params[key]])


def _stats(value):
    def on_payload(payload):
        payload["standardization_stats"] = value
    return on_payload


# One corruption per load-time check of a learner's parameters, by
# (classifier, standardize, mutation of the envelope, words of the check's
# message); each keeps the file's CRC valid and the envelope's field types.
PARAMETER_CORRUPTIONS = {
    "knn-class-too-large": ("knn3", False, _params(lambda p: p["train_y"].__setitem__(0, 5)),
                            "class outside"),
    "knn-class-negative": ("knn3", False, _params(lambda p: p["train_y"].__setitem__(0, -1)),
                           "class outside"),
    "knn-fractional-class": ("knn3", False, _params(lambda p: p["train_y"].__setitem__(0, 0.5)),
                             "integers"),
    "knn-extra-column": ("knn3", False, _widen("train_x"), "'train_x' must be a non-empty"),
    "knn-no-rows": ("knn3", False, _params(lambda p: p.update(train_x=[], train_y=[])),
                    "'train_x' must be a non-empty"),
    "knn-label-missing": ("knn3", False, _params(lambda p: p["train_y"].pop()),
                          "'train_y' must be a non-empty"),
    "knn-k-negative": ("knn3", False, _params(lambda p: p.update(k=-3)), "spec.k=3"),
    "knn-k-not-the-spec's": ("knn3", False, _params(lambda p: p.update(k=5)), "spec.k=3"),
    "knn-text-row": ("knn1", False, _params(lambda p: p["train_x"].__setitem__(0, "abc")),
                     "'train_x'"),
    "knn-infinite-value": ("knn3", False,
                           _params(lambda p: p["train_x"][2].__setitem__(1, float("inf"))),
                           "not finite"),
    "gnb-extra-class-row": ("gnb", False, _params(lambda p: p["means"].append([0.0] * 3)),
                            "'means' must be a non-empty"),
    "gnb-extra-prior": ("gnb", False, _params(lambda p: p["log_priors"].append(0.0)),
                        "'log_priors' must be a non-empty"),
    "gnb-short-variances": ("gnb", False, _params(lambda p: p["variances"][0].pop()),
                            "'variances'"),
    "gnb-zero-variance": ("gnb", False, _params(lambda p: p["variances"][1].__setitem__(2, 0.0)),
                          "> 0"),
    "gnb-nan-variance": ("gnb", False,
                         _params(lambda p: p["variances"][0].__setitem__(0, float("nan"))),
                         "not finite"),
    "logreg-extra-column": ("logreg", False, _widen("weights"), "'weights' must be a non-empty"),
    "logreg-no-bias-row": ("logreg", False, _params(lambda p: p["weights"].pop()),
                           "'weights' must be a non-empty"),
    "logreg-nan-weight": ("logreg", False,
                          _params(lambda p: p["weights"][0].__setitem__(0, float("nan"))),
                          "not finite"),
    "stats-one-value": ("knn3", True, _stats([[0.0], [1.0]]), "'means' must be a non-empty"),
    "stats-short-stds": ("knn3", True, _stats([[0.0] * 3, [1.0] * 2]),
                         "'stds' must be a non-empty"),
    "stats-missing": ("knn3", True, _stats(None), "iff spec.standardize"),
    "stats-unasked": ("logreg", False, _stats([[0.0] * 3, [1.0] * 3]), "iff spec.standardize"),
}


class TestParameterModelIO:
    @pytest.mark.parametrize("corruption", list(PARAMETER_CORRUPTIONS))
    def test_corrupt_parameters_rejected(self, corruption, tmp_path):
        name, standardize, mutate, words = PARAMETER_CORRUPTIONS[corruption]
        path = tmp_path / f"{name}.model"
        X, y = blobs(np.random.default_rng(15), n_per_class=6)
        save_model(fit(spec_from_name(name, standardize=standardize), X, y, FEATURE), path)
        load_model(path)  # the file as saved is accepted
        payload = read_envelope(path)
        mutate(payload)
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert words in str(err.value)


def _spec(key, value):
    def on_payload(payload):
        payload["spec"][key] = value
    return on_payload


# One corruption per check of a stored spec field, by (classifier, mutation
# of the envelope, words of the check's message); each keeps the file's CRC
# valid and none may be coerced into a loadable spec.
SPEC_CORRUPTIONS = {
    "k-infinite": ("knn3", _spec("k", float("inf")), "'k' must be an integer"),
    "k-fractional": ("knn3", _spec("k", 3.9), "'k' must be an integer"),
    "k-boolean": ("logreg", _spec("k", True), "'k' must be an integer"),
    "trees-infinite": ("rforest", _spec("trees", float("inf")), "'trees' must be an integer"),
    "trees-text": ("logreg", _spec("trees", "100"), "'trees' must be an integer"),
    "seed-negative": ("rforest", _spec("seed", -1), "'seed' must be a non-negative integer"),
    "seed-fractional": ("gnb", _spec("seed", 0.5), "'seed' must be a non-negative integer"),
    "c-text": ("logreg", _spec("c", "1.0"), "'c' must be a finite number"),
    "c-beyond-float-range": ("logreg", _spec("c", 10 ** 400), "'c' must be a finite number"),
    "c-boolean": ("logreg", _spec("c", True), "'c' must be a finite number"),
    "standardize-zero": ("knn3", _spec("standardize", 0), "'standardize' must be a boolean"),
    "standardize-text": ("gnb", _spec("standardize", "false"), "'standardize' must be a boolean"),
    "kind-unknown": ("gnb", _spec("kind", "svm"), "'kind' must be one of"),
    "kind-not-text": ("gnb", _spec("kind", ["knn"]), "'kind' must be one of"),
}


class TestSpecModelIO:
    @pytest.mark.parametrize("corruption", list(SPEC_CORRUPTIONS))
    def test_corrupt_spec_rejected(self, corruption, tmp_path):
        name, mutate, words = SPEC_CORRUPTIONS[corruption]
        path = tmp_path / f"{name}.model"
        save_model(fit(spec_from_name(name, trees=3), *blobs(np.random.default_rng(16), n_per_class=6), FEATURE),
                   path)
        load_model(path)  # the file as saved is accepted
        payload = read_envelope(path)
        mutate(payload)
        write_envelope(path, payload)
        with pytest.raises(CorruptModelFile) as err:
            load_model(path)
        assert words in str(err.value)

    def test_payload_nested_too_deep(self, tmp_path):
        body = "[" * 200_000 + "]" * 200_000
        path = tmp_path / "deep.model"
        path.write_text(f"{body}\ncrc32:{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n")
        with pytest.raises(CorruptModelFile, match="invalid JSON payload"):
            load_model(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed_models")


@pytest.fixture(scope="module")
def saved_payloads(fuzz_dir):
    """The envelope of a saved model of every learner."""
    X, y = blobs(np.random.default_rng(17), n_per_class=6)
    payloads = {}
    for name in ("knn3", "gnb", "dtree", "logreg", "rforest"):
        path = fuzz_dir / f"{name}.model"
        save_model(fit(spec_from_name(name, trees=3, standardize=name == "knn3"), X, y, FEATURE), path)
        payloads[name] = read_envelope(path)
    return payloads


class TestSaveLoadProperty:
    @given(name=st.sampled_from(SUITE_NAMES), standardize=st.booleans(),
           seed=st.integers(0, 2**70),
           labels=st.lists(st.text(max_size=8), min_size=2, max_size=4, unique=True),
           data_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_fitted_model_loads_back(self, name, standardize, seed, labels, data_seed,
                                           fuzz_dir):
        """Whatever the learner, seed and text labels, the file save_model
        writes loads into the same spec and labels, predicting the same."""
        rng = np.random.default_rng(data_seed)
        X = matrix(np.vstack([rng.normal(3.0 * i, 1.0, size=(3, 3)) for i in range(len(labels))]))
        y = [label for label in labels for _ in range(3)]
        model = fit(spec_from_name(name, trees=3, seed=seed, standardize=standardize), X, y, FEATURE)
        path = fuzz_dir / "roundtrip.model"
        save_model(model, path)
        loaded = load_model(path)
        queries = matrix(rng.normal(0.0, 3.0 * len(labels), size=(20, 3)))
        assert loaded.spec == model.spec
        assert loaded.class_labels == model.class_labels
        assert predict(loaded, queries) == predict(model, queries)


class TestLoadModelProperty:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_returns_a_model_or_raises_corrupt_model_file(self, data, saved_payloads, fuzz_dir):
        """Any JSON value, non-finite floats and wrong types included, in
        place of the whole payload or of any envelope, spec or parameter
        field, or that field missing: a CRC-valid file loads or is refused
        with CorruptModelFile, never with another exception."""
        payload = copy.deepcopy(data.draw(st.sampled_from(sorted(saved_payloads.items())))[1])
        places = [("format_version",), *((key,) for key in ENVELOPE_KEYS),
                  *(("spec", key) for key in payload["spec"]),
                  *(("parameters", key) for key in payload["parameters"])]
        place = data.draw(st.sampled_from([()] + places))
        if place:
            holder = payload if len(place) == 1 else payload[place[0]]
            if data.draw(st.booleans()):
                holder[place[-1]] = data.draw(JSON_VALUES)
            else:
                del holder[place[-1]]
        else:
            payload = data.draw(JSON_VALUES)
        path = fuzz_dir / "fuzzed.model"
        write_envelope(path, payload)
        try:
            load_model(path)
        except CorruptModelFile:
            pass
