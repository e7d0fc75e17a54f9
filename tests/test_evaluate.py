import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from isatraits import evaluate, features
from isatraits.classify import fit, spec_from_name
from isatraits.corpus import (
    BinarySample,
    CorpusManifest,
    Endianness,
    InstructionSizeSpec,
    IsaLabel,
    SampleRef,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    parse_label_registry,
)
from isatraits.errors import (
    EmptyLabelList,
    InsufficientGroups,
    IsaTraitsError,
    SampleTooShort,
)
from isatraits.evaluate import (
    DEFAULT_C_GRID,
    DEFAULT_LAG_GRID,
    FeatureConfig,
    Task,
    compute_baseline,
    eligible_ids,
    extract_feature,
    extract_features,
    grid_search_c,
    grid_search_lag,
    mean_fold_accuracy,
    plan_logocv,
    predict_unknown,
    run_evaluation,
    task_label,
)
from isatraits.features import autocorrelation_feature


def label(name, endianness=Endianness.LITTLE, size=None):
    return IsaLabel(name, endianness, size or InstructionSizeSpec.unknown())


def dummy_manifest(labels, files_per_isa=1):
    registry = {l.isa_name: l for l in labels}
    samples = [
        SampleRef(f"{l.isa_name}/{i}", l.isa_name, b"\x00" * 16)
        for l in labels
        for i in range(files_per_isa)
    ]
    return CorpusManifest(samples, registry)


def assert_plan_invariants(manifest, plan, task):
    assert plan.ids == tuple(eligible_ids(manifest, task))
    assert plan.labels == tuple(task_label(manifest.label_of(manifest.samples[i]), task)
                                for i in plan.ids)
    all_test = []
    for fold in plan.folds:
        train_isas = {manifest.samples[i].isa_name for i in fold.train_ids}
        test_isas = {manifest.samples[i].isa_name for i in fold.test_ids}
        assert test_isas == {fold.held_out_isa}
        assert fold.held_out_isa not in train_isas
        assert not (set(fold.train_ids) & set(fold.test_ids))
        # A fold's rows are its samples' positions in the plan's ids.
        assert [plan.ids[r] for r in fold.train_rows] == list(fold.train_ids)
        assert [plan.ids[r] for r in fold.test_rows] == list(fold.test_ids)
        assert fold.train_rows.dtype == fold.test_rows.dtype == np.intp
        all_test.extend(fold.test_ids)
    assert len(all_test) == len(set(all_test))  # each sample tested exactly once


class TestTaskLabel:
    def test_endianness_eligibility(self):
        assert task_label(label("a", Endianness.LITTLE), Task.ENDIANNESS) == "LE"
        assert task_label(label("a", Endianness.BIG), Task.ENDIANNESS) == "BE"
        assert task_label(label("a", Endianness.BI), Task.ENDIANNESS) is None
        assert task_label(label("a", Endianness.UNKNOWN), Task.ENDIANNESS) is None

    def test_size_eligibility(self):
        fixed = label("a", size=InstructionSizeSpec.fixed(32))
        variable = label("a", size=InstructionSizeSpec.variable(8, 32))
        unknown = label("a")
        assert task_label(fixed, Task.FIXED_VS_VARIABLE) == "fixed"
        assert task_label(variable, Task.FIXED_VS_VARIABLE) == "variable"
        assert task_label(unknown, Task.FIXED_VS_VARIABLE) is None
        assert task_label(fixed, Task.FIXED_WIDTH) == "32"
        assert task_label(variable, Task.FIXED_WIDTH) is None

    def test_filter_drops_exactly_ineligible(self):
        labels = [
            label("le", Endianness.LITTLE),
            label("be", Endianness.BIG),
            label("bi", Endianness.BI),
            label("na", Endianness.UNKNOWN),
        ]
        manifest = dummy_manifest(labels, files_per_isa=2)
        kept = {manifest.samples[i].isa_name for i in eligible_ids(manifest, Task.ENDIANNESS)}
        assert kept == {"le", "be"}


class TestPlanLogocv:
    def test_three_groups_two_files(self):
        labels = [label(n) for n in ("a", "b", "c")]
        manifest = dummy_manifest(labels, files_per_isa=2)
        plan = plan_logocv(manifest, Task.ENDIANNESS)
        assert len(plan.folds) == 3
        assert [fold.held_out_isa for fold in plan.folds] == ["a", "b", "c"]
        for fold in plan.folds:
            assert len(fold.test_ids) == 2
            assert len(fold.train_ids) == 4
        assert_plan_invariants(manifest, plan, Task.ENDIANNESS)

    def test_single_group_rejected(self):
        manifest = dummy_manifest([label("only")], files_per_isa=3)
        with pytest.raises(InsufficientGroups):
            plan_logocv(manifest, Task.ENDIANNESS)

    def test_cpurec_fixed_width_has_25_folds(self, cpurec_labels_path):
        registry = parse_label_registry(cpurec_labels_path)
        manifest = dummy_manifest(list(registry.values()))
        plan = plan_logocv(manifest, Task.FIXED_WIDTH)
        assert len(plan.folds) == 25
        assert_plan_invariants(manifest, plan, Task.FIXED_WIDTH)

    def test_cpurec_style_scan_yields_51_endianness_samples(self, cpurec_labels_path, tmp_path):
        # one file per ISA, like the real single-file-per-ISA corpus
        from isatraits.corpus import scan_corpus

        registry = parse_label_registry(cpurec_labels_path)
        root = tmp_path / "corpus"
        for name in registry:
            d = root / name
            d.mkdir(parents=True)
            (d / f"{name}.corpus").write_bytes(b"\x00\x01\x02\x03")
        manifest = scan_corpus(root, registry)
        assert len(manifest.samples) == len(registry)
        assert len(eligible_ids(manifest, Task.ENDIANNESS)) == 51
        assert len(eligible_ids(manifest, Task.FIXED_VS_VARIABLE)) == 43
        assert len(eligible_ids(manifest, Task.FIXED_WIDTH)) == 25

    def test_randomized_structural_invariants(self):
        import random

        rng = random.Random(17)
        for _ in range(200):
            n_groups = rng.randrange(2, 12)
            labels = [
                label(f"isa{i}", rng.choice([Endianness.LITTLE, Endianness.BIG]))
                for i in range(n_groups)
            ]
            registry = {l.isa_name: l for l in labels}
            samples = [
                SampleRef(f"{l.isa_name}/{j}", l.isa_name, b"\x00")
                for l in labels
                for j in range(rng.randrange(1, 5))
            ]
            manifest = CorpusManifest(samples, registry)
            plan = plan_logocv(manifest, Task.ENDIANNESS)
            assert_plan_invariants(manifest, plan, Task.ENDIANNESS)
            assert sum(len(f.test_ids) for f in plan.folds) == len(samples)


class TestBaseline:
    def test_simple_majority(self):
        report = compute_baseline(["a", "a", "b"])
        assert report.baseline == pytest.approx(2 / 3)
        assert report.most_frequent_class == "a"

    def test_tie_breaks_lexicographically(self):
        report = compute_baseline(["b", "a", "a", "b"])
        assert report.most_frequent_class == "a"

    def test_empty_rejected(self):
        with pytest.raises(EmptyLabelList):
            compute_baseline([])

    def test_cpurec_baselines(self, cpurec_labels_path):
        registry = parse_label_registry(cpurec_labels_path)
        endian = [task_label(l, Task.ENDIANNESS) for l in registry.values()]
        endian = [x for x in endian if x is not None]
        report = compute_baseline(endian)
        assert (report.most_frequent_count, report.total_count) == (33, 51)
        assert report.baseline == pytest.approx(33 / 51)

        isvar = [x for x in (task_label(l, Task.FIXED_VS_VARIABLE) for l in registry.values()) if x]
        report = compute_baseline(isvar)
        assert (report.most_frequent_count, report.total_count) == (25, 43)

        width = [x for x in (task_label(l, Task.FIXED_WIDTH) for l in registry.values()) if x]
        report = compute_baseline(width)
        assert (report.most_frequent_count, report.total_count) == (17, 25)
        assert report.most_frequent_class == "32"

    def test_fold_mean_arithmetic(self):
        assert mean_fold_accuracy([1.0, 0.5]) == 0.75


class TestRunEvaluation:
    def test_separable_endianness(self, endian_small):
        report = run_evaluation(
            endian_small, Task.ENDIANNESS, FeatureConfig("endsig"), spec_from_name("knn3")
        )
        assert report.feature_accuracy == 1.0
        assert report.baseline.baseline == 0.5  # balanced classes
        assert len(report.per_fold) == 6

    def test_aggregation_consistency(self, fixedwidth_small):
        report = run_evaluation(
            fixedwidth_small, Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", 16),
            spec_from_name("knn3"),
        )
        recomputed = mean_fold_accuracy([fr.accuracy for fr in report.per_fold])
        assert abs(report.feature_accuracy - recomputed) <= 1e-12
        total = sum(fr.n_test for fr in report.per_fold)
        correct = sum(round(fr.accuracy * fr.n_test) for fr in report.per_fold)
        assert report.pooled_accuracy == pytest.approx(correct / total)

    def test_confusion_counts_sum_to_fold_size(self, fixedwidth_small):
        report = run_evaluation(
            fixedwidth_small, Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", 16),
            spec_from_name("knn1"),
        )
        for fr in report.per_fold:
            assert sum(v for row in fr.confusion.values() for v in row.values()) == fr.n_test

    def test_single_isa_classes_flagged(self):
        # widths 16/32 have two ISAs each; width 64 is represented by a
        # single ISA and is therefore unlearnable under LOGOCV.
        paired = generate_synthetic_fixedwidth([16, 32], 2, 2, 2048, 0, seed=6)
        lone = generate_synthetic_fixedwidth([64], 1, 2, 2048, 0, seed=7)
        manifest = CorpusManifest(
            paired.samples + lone.samples, {**paired.registry, **lone.registry}
        )
        report = run_evaluation(
            manifest, Task.FIXED_WIDTH, FeatureConfig("autocorr", 16), spec_from_name("knn1")
        )
        assert report.single_isa_classes == ("64",)
        lone_fold = next(fr for fr in report.per_fold if fr.isa_name == "synthW64_0")
        assert lone_fold.accuracy == 0.0

    def test_extraction_error_carries_sample_path(self, endian_small):
        with pytest.raises(SampleTooShort) as err:
            run_evaluation(endian_small, Task.ENDIANNESS, FeatureConfig("autocorr", 4096),
                           spec_from_name("knn1"))
        assert "synth" in str(err.value)


class TestExtractFeatures:
    def test_stages_share_one_load_and_one_autocorr_per_sample(self, fixedwidth_small,
                                                               monkeypatch):
        manifest = fixedwidth_small
        isvar = eligible_ids(manifest, Task.FIXED_VS_VARIABLE)
        width = eligible_ids(manifest, Task.FIXED_WIDTH)
        stages = {"isvar": (isvar, FeatureConfig("autocorr", 8)),
                  "width": (width, FeatureConfig("autocorr", 32)),
                  "endsig": (isvar, FeatureConfig("endsig"))}
        loads, lags = [], []
        original_load, original_extract = SampleRef.load, evaluate.autocorrelation_rows
        monkeypatch.setattr(SampleRef, "load", lambda ref: loads.append(ref) or original_load(ref))
        monkeypatch.setattr(evaluate, "autocorrelation_rows",
                            lambda batch, l: lags.extend((s.tobytes(), l) for s in batch)
                            or original_extract(batch, l))
        features = extract_features(manifest, stages)
        monkeypatch.undo()

        assert loads == [manifest.samples[i] for i in isvar]  # once each, in manifest order
        assert sorted(lags) == sorted((manifest.samples[i].data, 32 if i in width else 8)
                                      for i in isvar)
        for key, (ids, config) in stages.items():
            assert features[key].shape == (len(ids), config.dim)
            assert features[key].dtype == np.float64 and features[key].flags.c_contiguous
            for row, i in zip(features[key], ids):
                assert np.array_equal(row, extract_feature(manifest.samples[i].load(), config))

    def test_error_names_the_sample(self, fixedwidth_small):
        ids = eligible_ids(fixedwidth_small, Task.FIXED_WIDTH)
        with pytest.raises(SampleTooShort) as err:
            extract_features(fixedwidth_small, {0: (ids, FeatureConfig("autocorr", 8)),
                                                1: (ids, FeatureConfig("autocorr", 4096))})
        assert str(err.value).startswith(fixedwidth_small.samples[ids[0]].source_path + ": ")


def byte_manifest(lengths, seed=0):
    """One ISA's in-memory samples of the given lengths, random bytes."""
    rng = np.random.default_rng(seed)
    samples = [SampleRef(f"mem://{i}", "a", rng.integers(0, 256, n, dtype=np.uint8).tobytes())
               for i, n in enumerate(lengths)]
    return CorpusManifest(samples, {"a": label("a")})


def assert_extracts_like_one_sample_at_a_time(manifest, lag):
    ids = list(range(len(manifest.samples)))
    batched = extract_features(manifest, {0: (ids, FeatureConfig("autocorr", lag))})[0]
    assert batched.shape == (len(ids), lag)
    for i in ids:
        own = autocorrelation_feature(manifest.samples[i].load(), lag)
        assert np.array_equal(batched[i], own), (i, lag)


class TestBatchedExtraction:
    """extract_features runs the autocorrelation of equal-length samples in
    batches; each row must equal the one-sample autocorrelation_feature."""

    @pytest.mark.parametrize("lag", [1, 16, 31, 32, 256, 257, 512])
    def test_mixed_lengths(self, lag):
        # Runs of equal lengths, lengths recurring after others, an FFT-path
        # length at lags above 256 and one long enough for the GEMM at 512.
        lengths = [700] * 3 + [8192] * 14 + [700, 8193, 8193, 2000] + [8192] * 2 + [1 << 16] * 2
        assert_extracts_like_one_sample_at_a_time(byte_manifest(lengths, seed=lag), lag)

    # 8 KiB series take the GEMM path at lags 16 and 64, the FFT at 1024.
    @pytest.mark.parametrize("lag", [16, 64, 1024])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_batches_around_the_staging_budget(self, lag, extra, monkeypatch):
        size = features.autocorr_batch_size(8192, lag)
        assert size > 1
        count = 2 * size + 1 if extra is None else size + extra
        batches = []
        original = evaluate.autocorrelation_rows
        monkeypatch.setattr(evaluate, "autocorrelation_rows",
                            lambda batch, l: batches.append(len(batch)) or original(batch, l))
        assert_extracts_like_one_sample_at_a_time(byte_manifest([8192] * count, seed=count), lag)
        assert sum(batches) == count
        assert max(batches) == min(size, count)

    def test_first_too_short_sample_is_named(self):
        # The first short sample after a part batch, then right after a full one.
        for head in (5, features.autocorr_batch_size(4096, 200)):
            lengths = [4096] * head + [100] + [4096] * 3 + [50] + [4096] * 2
            manifest = byte_manifest(lengths)
            ids = list(range(len(lengths)))
            with pytest.raises(SampleTooShort) as err:
                extract_features(manifest, {0: (ids, FeatureConfig("autocorr", 200))})
            assert str(err.value).startswith(f"mem://{head}: "), head

    def test_a_lag_longer_than_every_sample_reserves_no_matrix(self):
        # A (samples x lag) float64 matrix reserved up front would take 1.6 GB
        # here; the lag must fail as too short, naming the first sample.
        manifest = byte_manifest([2048] * 2)
        tracemalloc.start()
        try:
            with pytest.raises(SampleTooShort) as err:
                extract_features(manifest, {0: ([0, 1], FeatureConfig("autocorr", 10**8))})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "mem://0: autocorrelation with lag 100000000 needs >= " \
            "100000002 bytes, got 2048"
        assert peak < 1 << 20

    def test_extra_memory_does_not_grow_with_the_corpus(self):
        def extra(count, lag):
            manifest = byte_manifest([8192] * count, seed=count)
            stage = {0: (range(count), FeatureConfig("autocorr", lag))}
            tracemalloc.start()
            try:
                result = extract_features(manifest, stage)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result[0].shape == (count, lag)
            return peak - current  # what extraction held beyond its result

        for lag in (16, 1024):  # 8 KiB series: the GEMM and the FFT path
            small, large = extra(100, lag), extra(1000, lag)
            assert small < features.STAGING_BYTES + (512 << 10), lag
            # Holding one more 8 KiB series per sample would add 7 MiB; the
            # per-sample bookkeeping, a dict and a list of (stage, row) pairs
            # to fill for each sample, adds about 0.3.
            assert large - small < 900 * 1024, lag


# sha256 of report_to_dict's JSON (indent=2) for every suite classifier at lag
# 16, computed before the forest grower and the autocorrelation kernel were
# vectorised: both promise outputs equal bit for bit.
GOLDEN_REPORTS = {
    ("isvar", "knn1"): "4189350c90a1016728be13f66cd846debb10660b05dae50e0a27a34d67d776b7",
    ("isvar", "knn3"): "38ffc7c6be683e835057d8747db152266d2ff20f554379452847825fff65f940",
    ("isvar", "knn5"): "76ff44951c8ddecba564f37477c72cbe9d5fb6d9b645e74c6cfbdcd92cba2af4",
    ("isvar", "gnb"): "2b79016bd75b185caa661c966d7f61c6cfb0fc0223dd97d7568667d0df438937",
    ("isvar", "dtree"): "916ac5de9812254da8d4c19f59a9706a87d6f353823cb0c091fd2ded532d63e5",
    ("isvar", "logreg"): "710662968587f5bebabfa17086b11b55894399e653f989cf8d70e7b5de12ff90",
    ("isvar", "rforest"): "4bf12709279668202ad6a823dedd8315fa7f86d318a34831d31e00641ce624fb",
    ("fixedwidth", "knn1"): "126ae01eb4e50b5b6aa52530124409926dad28750338ce27f5460947de2a887c",
    ("fixedwidth", "knn3"): "689372dafe4d85968070a52a590b7439d2c6a891a030876e173d792c648cb01e",
    ("fixedwidth", "knn5"): "5c4dfc492b45d8d613af3faadd6a140415d6203685e5ffe4dbfc5b8535e12d20",
    ("fixedwidth", "gnb"): "b42c1b5e8222f1a316693972cd981db172e24530112ce48737b3bae45ae1e47a",
    ("fixedwidth", "dtree"): "2442bb28dff7c0a49058212e7aeb5d5d5e38f2159def0fc8ec2ac5f5f7b15b12",
    ("fixedwidth", "logreg"): "132c70698c5ca256b278a9119810061732000025948c4a6d58f9e6ef230a57fb",
    ("fixedwidth", "rforest"): "5507fc80fd5a3fa7b49c8f7581a6e7713aca6961ef188448d9a8e461dd7f69fd",
}


@pytest.fixture(scope="module")
def golden_corpus():
    return generate_synthetic_fixedwidth([16, 32, 64], 2, 3, 2048, 2, seed=3)


@pytest.mark.parametrize("task, name", list(GOLDEN_REPORTS), ids="-".join)
def test_golden_report(golden_corpus, task, name):
    report = run_evaluation(golden_corpus, Task(task), FeatureConfig("autocorr", 16),
                            spec_from_name(name))
    text = json.dumps(evaluate.report_to_dict(report), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[task, name]


class TestGridSearch:
    def test_default_grids_match_protocol(self):
        assert DEFAULT_LAG_GRID == (16, 32, 64, 128, 256, 512, 1024)
        assert DEFAULT_C_GRID == tuple(10.0 ** e for e in range(1, 12))

    def test_single_element_grid(self, endian_small):
        best, table = grid_search_c(
            endian_small, Task.ENDIANNESS, FeatureConfig("endsig"), [10.0]
        )
        assert best == 10.0
        assert len(table) == 1

    def test_equal_accuracy_ties_to_smaller_c(self, endian_small):
        # Signature frequencies are tiny, so useful weights are huge and c
        # must be large; both ends of this range separate perfectly.
        best, table = grid_search_c(
            endian_small, Task.ENDIANNESS, FeatureConfig("endsig"), [1e10, 1e9]
        )
        accuracies = {c: acc for c, acc in table}
        assert accuracies[1e9] == accuracies[1e10] == 1.0
        assert best == 1e9

    def test_c_grid_validation(self, endian_small):
        with pytest.raises(ValueError):
            grid_search_c(endian_small, Task.ENDIANNESS, FeatureConfig("endsig"), [])
        with pytest.raises(ValueError):
            grid_search_c(endian_small, Task.ENDIANNESS, FeatureConfig("endsig"), [-1.0])

    def test_lag_grid_validation(self, fixedwidth_small):
        spec = spec_from_name("knn1")
        with pytest.raises(ValueError, match="lag grid must be non-empty"):
            grid_search_lag(fixedwidth_small, Task.FIXED_VS_VARIABLE, spec, [])
        with pytest.raises(ValueError, match="lag values must be positive"):
            grid_search_lag(fixedwidth_small, Task.FIXED_VS_VARIABLE, spec, [16, 0])

    def test_lag_sweep_on_width32_corpus(self):
        manifest = generate_synthetic_fixedwidth([32], 3, 3, 4096, 3, seed=23)
        best, table = grid_search_lag(
            manifest, Task.FIXED_VS_VARIABLE, spec_from_name("knn3"), [16, 32, 64]
        )
        assert best >= 8
        assert [lag for lag, _ in table] == [16, 32, 64]

    def test_lag_tie_to_smaller(self):
        manifest = generate_synthetic_fixedwidth([32], 3, 3, 4096, 3, seed=23)
        best, table = grid_search_lag(
            manifest, Task.FIXED_VS_VARIABLE, spec_from_name("knn3"), [32, 16]
        )
        accuracies = dict(table)
        assert accuracies[16] == accuracies[32]
        assert best == 16

    def test_lag_too_large_names_sample(self, fixedwidth_small):
        with pytest.raises(SampleTooShort) as err:
            grid_search_lag(fixedwidth_small, Task.FIXED_VS_VARIABLE,
                            spec_from_name("knn1"), [4096])
        assert "synth" in str(err.value)

    def test_determinism(self, fixedwidth_small):
        run = lambda: grid_search_lag(fixedwidth_small, Task.FIXED_VS_VARIABLE,
                                      spec_from_name("knn3"), [8, 16])
        assert run() == run()

    def test_lag_sweep_equals_one_evaluation_per_lag(self, fixedwidth_small):
        spec = spec_from_name("knn1")
        _, table = grid_search_lag(fixedwidth_small, Task.FIXED_WIDTH, spec, [4, 16, 64])
        assert table == [
            (lag, run_evaluation(fixedwidth_small, Task.FIXED_WIDTH,
                                 FeatureConfig("autocorr", lag), spec).feature_accuracy)
            for lag in (4, 16, 64)
        ]

    def test_lag_sweep_plans_once(self, fixedwidth_small, endian_small, monkeypatch):
        # Every LOGOCV entry point plans its folds and extracts its matrix
        # once, however many grid points it evaluates.
        names = ("plan_logocv", "eligible_ids", "extract_features")
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(evaluate, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(evaluate, name, counted)
        calls = [
            lambda: grid_search_lag(fixedwidth_small, Task.FIXED_VS_VARIABLE,
                                    spec_from_name("knn3"), DEFAULT_LAG_GRID)[1],
            lambda: grid_search_c(endian_small, Task.ENDIANNESS, FeatureConfig("endsig"),
                                  [1e9, 1e10, 1e11])[1],
            lambda: [run_evaluation(fixedwidth_small, Task.FIXED_VS_VARIABLE,
                                    FeatureConfig("autocorr", 16), spec_from_name("knn3"))],
        ]
        for call, points in zip(calls, (7, 3, 1)):
            counts.update(dict.fromkeys(names, 0))
            assert len(call()) == points
            assert counts == dict.fromkeys(names, 1)

    def test_c_sweep_extracts_each_sample_once(self, endian_small, monkeypatch):
        calls = []
        original = evaluate.endianness_signatures
        monkeypatch.setattr(evaluate, "endianness_signatures",
                            lambda binary: calls.append(binary.source_path) or original(binary))
        _, table = grid_search_c(endian_small, Task.ENDIANNESS, FeatureConfig("endsig"),
                                 [1e9, 1e10, 1e11])
        assert sorted(calls) == sorted(ref.source_path for ref in endian_small.samples)
        monkeypatch.undo()
        assert table == [
            (c, run_evaluation(endian_small, Task.ENDIANNESS, FeatureConfig("endsig"),
                               spec_from_name("logreg", c=c)).feature_accuracy)
            for c in (1e9, 1e10, 1e11)
        ]


def train_stage(manifest, task, config, spec):
    ids = eligible_ids(manifest, task)
    X = np.array([extract_feature(manifest.samples[i].load(), config) for i in ids])
    y = [task_label(manifest.label_of(manifest.samples[i]), task) for i in ids]
    return fit(spec, X, y, config)


def le_fixed32_binary(n_instr=2048, seed=0):
    """Instruction stream carrying both signals: two constant opcode bytes
    per 4-byte instruction (width 32) and, in half the instructions, a
    little-endian 16-bit small integer in the operand slot (little
    endianness). Sparse embedding keeps the autocorrelation shape close
    to the synthetic fixed-width training distribution."""
    rng = np.random.default_rng(seed)
    instr = rng.integers(0, 256, size=(n_instr, 4), dtype=np.uint8)
    instr[:, 0] = 0x2A
    instr[:, 1] = 0xD3
    marked = rng.random(n_instr) < 0.5
    magnitudes = rng.geometric(0.3, n_instr)
    signs = rng.integers(0, 2, n_instr) * 2 - 1
    values = np.clip(magnitudes * signs, -32768, 32767).astype("<i2")
    instr[marked, 2:4] = values.view(np.uint8).reshape(-1, 2)[marked]
    return instr.reshape(-1).tobytes()


@pytest.fixture(scope="module")
def stage_models():
    endian_corpus = generate_synthetic_endian(3, 6, 8192, seed=31)
    size_corpus = generate_synthetic_fixedwidth([16, 32, 64], 2, 4, 8192, 3, seed=31)
    endian_model = train_stage(endian_corpus, Task.ENDIANNESS, FeatureConfig("endsig"),
                               spec_from_name("knn3"))
    isvar_model = train_stage(size_corpus, Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", 32),
                              spec_from_name("knn3"))
    width_model = train_stage(size_corpus, Task.FIXED_WIDTH, FeatureConfig("autocorr", 32),
                              spec_from_name("knn3"))
    return endian_model, isvar_model, width_model


class TestPredictUnknown:
    def test_le_fixed32_end_to_end(self, stage_models):
        binary = BinarySample(le_fixed32_binary(), "unknown", "mem://query")
        result = predict_unknown(binary, *stage_models)
        assert result["endianness"] == "LE"
        assert result["size_kind"] == "fixed"
        assert result["fixed_bits"] == 32
        assert set(result["per_stage_details"]) == {"endianness", "isvar", "fixedwidth"}

    def test_variable_prediction_skips_width(self, stage_models):
        rng = np.random.default_rng(5)
        binary = BinarySample(rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(),
                              "unknown", "mem://noise")
        result = predict_unknown(binary, *stage_models)
        assert result["size_kind"] == "variable"
        assert "fixed_bits" not in result
        assert "fixedwidth" not in result["per_stage_details"]

    def test_autocorr_extracted_once_for_both_size_stages(self, stage_models, monkeypatch):
        calls = []
        original = evaluate.autocorrelation_feature
        monkeypatch.setattr(evaluate, "autocorrelation_feature",
                            lambda binary, l: calls.append(l) or original(binary, l))
        binary = BinarySample(le_fixed32_binary(), "unknown", "mem://query")
        assert predict_unknown(binary, *stage_models)["fixed_bits"] == 32
        assert calls == [32]

    def test_stage_lags_share_the_largest_that_fits(self, stage_models, monkeypatch):
        endian_model, isvar_model, _ = stage_models
        width_model = train_stage(  # at a lag longer than the binary
            generate_synthetic_fixedwidth([16, 32, 64], 2, 4, 8192, 3, seed=31), Task.FIXED_WIDTH,
            FeatureConfig("autocorr", 4000), spec_from_name("knn3"))
        calls = []
        original = evaluate.autocorrelation_feature
        monkeypatch.setattr(evaluate, "autocorrelation_feature",
                            lambda binary, l: calls.append(l) or original(binary, l))
        binary = BinarySample(le_fixed32_binary(n_instr=512), "unknown", "mem://query")
        with pytest.raises(SampleTooShort) as err:
            predict_unknown(binary, endian_model, isvar_model, width_model)
        assert err.value.stage == "fixedwidth"
        assert calls == [32, 4000]

    def test_tiny_input_fails_at_stage_one(self, stage_models):
        binary = BinarySample(b"\x00", "unknown", "mem://tiny")
        with pytest.raises(SampleTooShort) as err:
            predict_unknown(binary, *stage_models)
        assert err.value.stage == "endianness"

    # order[k] is the index in stage_models (endian, isvar, width) of the
    # model passed for stage k: every pairing of a model with another stage.
    @pytest.mark.parametrize("order, stage", [
        ((1, 0, 2), "endianness"),
        ((2, 1, 2), "endianness"),
        ((0, 0, 2), "isvar"),
        ((0, 2, 2), "isvar"),
        ((0, 1, 0), "fixedwidth"),
        ((0, 1, 1), "fixedwidth"),
    ])
    def test_model_of_another_stage_rejected(self, stage_models, order, stage):
        binary = BinarySample(le_fixed32_binary(), "unknown", "mem://query")
        with pytest.raises(IsaTraitsError, match=f"not a model for the {stage} stage") as err:
            predict_unknown(binary, *(stage_models[i] for i in order))
        assert err.value.stage == stage
