"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria 5-7 run the full pipeline on synthetic corpora sized for a
desk-scale machine; tolerances and time budgets are asserted, not
aspirational.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from isatraits.classify import SUITE_NAMES, fit, load_model, predict, save_model, spec_from_name
from isatraits.corpus import (
    BinarySample,
    CorpusManifest,
    Endianness,
    InstructionSizeSpec,
    IsaLabel,
    SampleRef,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    write_corpus,
)
from isatraits.evaluate import FeatureConfig, Task, plan_logocv, run_evaluation
from isatraits.features import autocorrelation_feature

from conftest import CPUREC_LABELS, FEATURE
from oracles import autocorr_oracle


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def sample_of(data: bytes) -> BinarySample:
    return BinarySample(data, "q", "mem://q")


@pytest.fixture(scope="module")
def size_corpus():
    return generate_synthetic_fixedwidth(
        widths_bits=[16, 32, 64], isas_per_width=3, files_per_isa=10,
        file_len=8192, variable_isas=5, seed=101,
    )


def best_of_suite(manifest, task, feature):
    best_name, best_acc = None, -1.0
    for name in SUITE_NAMES:
        report = run_evaluation(manifest, task, feature, spec_from_name(name, seed=0))
        if report.feature_accuracy > best_acc:
            best_name, best_acc = name, report.feature_accuracy
    return best_name, best_acc


def test_criterion_1_pearson_oracle_equivalence():
    with criterion(1, "pearson oracle equivalence (1000 sequences, <10s)"):
        rng = random.Random(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            n = rng.randrange(64, 4097)
            data = bytes(rng.randrange(256) for _ in range(n))
            k = rng.randrange(1, 33)
            ours = autocorrelation_feature(sample_of(data), k)[k - 1]
            reference = autocorr_oracle(data, k)
            worst = max(worst, abs(ours - reference))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_periodicity_invariant():
    with criterion(2, "f(m*p) = 1.0 for exactly periodic series"):
        rng = random.Random(7)
        lag = 64
        for period in (2, 3, 4, 8, 16):
            pattern = [rng.randrange(256) for _ in range(period)]
            if len(set(pattern)) == 1:
                pattern[0] = (pattern[0] + 1) % 256
            data = bytes(pattern * (1024 // period))
            vec = autocorrelation_feature(sample_of(data), lag)
            for m in range(1, lag // period + 1):
                value = vec[m * period - 1]
                assert abs(value - 1.0) <= 1e-9, f"p={period} m={m}: {value}"


def test_criterion_3_cpurec_baseline_arithmetic():
    with criterion(3, "cmd_stats reproduces published CpuRec baselines"):
        proc = subprocess.run(
            [sys.executable, "-m", "isatraits.cli", "stats", "--labels", str(CPUREC_LABELS)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "33/51 = 0.647" in proc.stdout
        assert "25/43 = 0.581" in proc.stdout
        assert "17/25 = 0.680" in proc.stdout
        assert "16:6" in proc.stdout
        assert "24:1" in proc.stdout
        assert "32:17" in proc.stdout
        assert "128:1" in proc.stdout


def test_criterion_4_logocv_structural_suite():
    with criterion(4, "LOGOCV isolation/partition over 10000 random manifests"):
        rng = random.Random(404)
        for _ in range(10_000):
            n_groups = rng.randrange(2, 21)
            registry = {}
            samples = []
            for g in range(n_groups):
                name = f"isa{g}"
                endianness = rng.choice([Endianness.LITTLE, Endianness.BIG])
                registry[name] = IsaLabel(name, endianness, InstructionSizeSpec.unknown())
                for j in range(rng.randrange(1, 5)):
                    samples.append(SampleRef(f"{name}/{j}", name, b""))
            manifest = CorpusManifest(samples, registry)
            plan = plan_logocv(manifest, Task.ENDIANNESS)
            seen = set()
            assert len(plan.folds) == n_groups
            for fold in plan.folds:
                train_isas = {manifest.samples[i].isa_name for i in fold.train_ids}
                assert fold.held_out_isa not in train_isas  # isolation
                assert all(
                    manifest.samples[i].isa_name == fold.held_out_isa for i in fold.test_ids
                )
                assert not (set(fold.train_ids) & set(fold.test_ids))
                assert not (seen & set(fold.test_ids))
                seen.update(fold.test_ids)
            assert seen == set(range(len(samples)))  # partition


def test_criterion_5_synthetic_endianness():
    with criterion(5, "endianness signatures + KNN3 >= 0.95 on synthetic corpus (<60s)"):
        start = time.perf_counter()
        manifest = generate_synthetic_endian(
            isa_count_per_class=4, files_per_isa=20, file_len=65536, seed=202
        )
        assert len(manifest.counts_per_isa()) == 8
        assert len(manifest.samples) == 160
        report = run_evaluation(
            manifest, Task.ENDIANNESS, FeatureConfig("endsig"), spec_from_name("knn3")
        )
        elapsed = time.perf_counter() - start
        assert report.feature_accuracy >= 0.95, report.feature_accuracy
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_synthetic_fixed_vs_variable(size_corpus):
    with criterion(6, "autocorr(128) fixed/variable >= 0.85 with best of suite (<5min)"):
        start = time.perf_counter()
        name, accuracy = best_of_suite(size_corpus, Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", 128))
        elapsed = time.perf_counter() - start
        assert accuracy >= 0.85, f"best {name} reached only {accuracy:.3f}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_synthetic_fixed_width(size_corpus):
    with criterion(7, "autocorr(128) fixed width >= 0.85; single-ISA caveat flagged"):
        name, accuracy = best_of_suite(size_corpus, Task.FIXED_WIDTH, FeatureConfig("autocorr", 128))
        assert accuracy >= 0.85, f"best {name} reached only {accuracy:.3f}"

        # a width held by a single ISA must be flagged as unlearnable
        paired = generate_synthetic_fixedwidth([16, 32], 2, 2, 2048, 0, seed=55)
        lone = generate_synthetic_fixedwidth([64], 1, 2, 2048, 0, seed=56)
        merged = CorpusManifest(paired.samples + lone.samples,
                                {**paired.registry, **lone.registry})
        report = run_evaluation(merged, Task.FIXED_WIDTH, FeatureConfig("autocorr", 16),
                                spec_from_name("knn1"))
        assert report.single_isa_classes == ("64",)


@pytest.mark.skipif(
    "CPUREC_CORPUS" not in os.environ,
    reason="optional: set CPUREC_CORPUS to a local CpuRec corpus root",
)
def test_criterion_8_cpurec_fixed_vs_variable():
    from isatraits.corpus import parse_label_registry, scan_corpus

    with criterion(8, "CpuRec fixed/variable within 0.10 of 0.860 (optional)"):
        registry = parse_label_registry(CPUREC_LABELS)
        manifest = scan_corpus(os.environ["CPUREC_CORPUS"], registry)
        best = -1.0
        for name, lag in (("logreg", 128), ("knn3", 256), ("knn1", 256)):
            report = run_evaluation(
                manifest, Task.FIXED_VS_VARIABLE, FeatureConfig("autocorr", lag),
                spec_from_name(name),
            )
            best = max(best, report.feature_accuracy)
        assert best >= 0.860 - 0.10, best


def test_criterion_9_curve_separation(size_corpus, tmp_path):
    with criterion(9, "mean f(k) separates fixed widths from variable at period multiples"):
        corpus_dir = tmp_path / "corpus"
        write_corpus(size_corpus, corpus_dir)
        lag = 32

        def export(group_by):
            proc = subprocess.run(
                [sys.executable, "-m", "isatraits.cli", "export-curves",
                 "--lag", str(lag), "--group-by", group_by,
                 "--corpus", str(corpus_dir), "--labels", str(corpus_dir / "labels.csv")],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            curves = {}
            for line in proc.stdout.splitlines()[1:]:
                klass, k, value = line.split(",")
                curves.setdefault(klass, {})[int(k)] = float(value)
            return curves

        width_curves = export("fixed-bits")
        variable_curve = export("size-kind")["variable"]
        assert set(width_curves) == {"16", "32", "64"}
        for width_name, curve in width_curves.items():
            period = int(width_name) // 8
            for k in range(period, lag + 1, period):
                assert curve[k] > variable_curve[k], (
                    f"width {width_name} mean f({k})={curve[k]:.3f} "
                    f"not above variable {variable_curve[k]:.3f}"
                )


def test_criterion_10_classifier_suite_sanity(tmp_path):
    with criterion(10, "classifier suite sanity and save/load fidelity"):
        rng = np.random.default_rng(33)

        # 1-NN memorizes duplicate-free training data
        X = rng.normal(size=(30, 4))
        y = [f"c{i % 3}" for i in range(30)]
        assert predict(fit(spec_from_name("knn1"), X, y, FEATURE), X) == y

        # GaussianNB on well-separated blobs
        a = rng.normal(-5.0, 1.0, size=(100, 3))
        b = rng.normal(5.0, 1.0, size=(100, 3))
        Xb = np.vstack([a, b])
        yb = ["neg"] * 100 + ["pos"] * 100
        gnb = fit(spec_from_name("gnb"), Xb, yb, FEATURE)
        accuracy = np.mean([p == t for p, t in zip(predict(gnb, Xb), yb)])
        assert accuracy >= 0.99

        # logistic regression reaches 1.0 on separable data
        lr = fit(spec_from_name("logreg", c=1.0), Xb, yb, FEATURE)
        assert predict(lr, Xb) == yb

        # save/load preserves predictions bit-for-bit
        queries = rng.normal(0.0, 4.0, size=(100, 3))
        for name in ("knn3", "gnb", "dtree", "logreg", "rforest"):
            model = fit(spec_from_name(name, trees=10, seed=1), Xb, yb, FEATURE)
            path = tmp_path / f"{name}.model"
            save_model(model, path)
            assert predict(load_model(path), queries) == predict(model, queries)
