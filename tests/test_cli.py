import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isatraits import cli, evaluate, features
from isatraits.classify import fit, save_model, spec_from_name
from isatraits.corpus import (
    Endianness,
    SampleRef,
    generate_synthetic_fixedwidth,
    parse_label_registry,
    scan_corpus,
    write_label_registry,
)
from isatraits.evaluate import AUTOCORR, DEFAULT_AUTOCORR_LAGS, DEFAULT_LOGREG_C, FeatureConfig, Task

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.conf"))


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "isatraits.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def endian_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("endian_corpus") / "corpus"
    proc = run_cli("synth", "endian", "--isas", 2, "--files", 4, "--len", 4096,
                   "--seed", 3, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def size_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("size_corpus") / "corpus"
    proc = run_cli("synth", "fixedwidth", "--widths", "16,32", "--isas-per-width", 2,
                   "--files", 3, "--len", 4096, "--variable", 2, "--seed", 3, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, endian_corpus, size_corpus):
    out = tmp_path_factory.mktemp("models")
    proc = run_cli("train",
                   "--endian-corpus", endian_corpus,
                   "--size-corpus", size_corpus,
                   "--isvar-lag", 64, "--width-lag", 64,
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


def le_fixed32_query(path: Path, seed=0):
    rng = np.random.default_rng(seed)
    instr = rng.integers(0, 256, size=(2048, 4), dtype=np.uint8)
    instr[:, 0] = 0x2A
    instr[:, 1] = 0xD3
    marked = rng.random(2048) < 0.5
    magnitudes = rng.geometric(0.3, 2048)
    signs = rng.integers(0, 2, 2048) * 2 - 1
    values = np.clip(magnitudes * signs, -32768, 32767).astype("<i2")
    instr[marked, 2:4] = values.view(np.uint8).reshape(-1, 2)[marked]
    path.write_bytes(instr.reshape(-1).tobytes())
    return path


class TestSynth:
    def test_endian_layout(self, endian_corpus):
        files = [p for p in endian_corpus.rglob("*.bin")]
        assert len(files) == 16  # 2 classes x 2 ISAs x 4 files
        labels = (endian_corpus / "labels.csv").read_text().splitlines()
        rows = [l for l in labels if l and not l.startswith(("#", "isa_name"))]
        assert len(rows) == 4

    def test_spec_example_arithmetic(self, tmp_path):
        out = tmp_path / "d"
        proc = run_cli("synth", "endian", "--isas", 4, "--files", 10, "--len", 65536,
                       "--seed", 7, "--out", out)
        assert proc.returncode == 0
        assert len(list(out.rglob("*.bin"))) == 80
        rows = [l for l in (out / "labels.csv").read_text().splitlines()
                if l and not l.startswith(("#", "isa_name"))]
        assert len(rows) == 8

    def test_missing_out_is_usage_error(self):
        proc = run_cli("synth", "endian", "--isas", 2, "--files", 1, "--len", 1024)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_same_seed_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("synth", "endian", "--isas", 2, "--files", 2, "--len", 2048,
                           "--seed", 11, "--out", out)
            assert proc.returncode == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_bad_generator_params_exit_1(self, tmp_path):
        proc = run_cli("synth", "endian", "--isas", 2, "--files", 1, "--len", 10,
                       "--out", tmp_path / "x")
        assert proc.returncode == 1


class TestEvaluate:
    def test_endianness_run(self, endian_corpus, tmp_path):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "folds.csv"
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--classifier", "knn3",
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                       "--report", report_path, "--csv", csv_path)
        assert proc.returncode == 0, proc.stderr
        assert "feature_accuracy:" in proc.stdout
        assert "baseline: 8/16 = 0.5000" in proc.stdout  # balanced classes

        payload = json.loads(report_path.read_text())
        assert payload["config"]["classifier"] == "knn3"
        assert payload["config"]["task"] == "endianness"
        assert payload["version"]
        assert payload["labels_sha256"]
        assert len(payload["per_fold"]) == 4

        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["isa"] for row in rows} == {"synthLE_0", "synthLE_1", "synthBE_0", "synthBE_1"}

    def test_fixedwidth_run_has_fold_per_fixed_isa(self, size_corpus, tmp_path):
        csv_path = tmp_path / "folds.csv"
        proc = run_cli("evaluate", "--task", "fixedwidth", "--feature", "autocorr",
                       "--lag", 64, "--classifier", "knn1",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv",
                       "--csv", csv_path)
        assert proc.returncode == 0, proc.stderr
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["isa"] for row in rows} == {"synthW16_0", "synthW16_1", "synthW32_0", "synthW32_1"}

    def test_unknown_feature_lists_valid_names(self, endian_corpus):
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "trigram",
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 2
        for name in ("bigrams", "endsig", "autocorr"):
            assert name in proc.stderr

    def test_autocorr_without_default_lag_is_usage_error(self, endian_corpus):
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "autocorr",
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 2
        assert "--lag" in proc.stderr

    def test_runtime_error_exit_1(self, endian_corpus, tmp_path):
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--corpus", tmp_path / "missing", "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 1

    def test_config_file_defaults_and_overrides(self, endian_corpus, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("classifier=knn1\nseed=9\n")
        report_a = tmp_path / "a.json"
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--config", cfg, "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv", "--report", report_a)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(report_a.read_text())
        assert payload["config"]["classifier"] == "knn1"
        assert payload["config"]["seed"] == 9

        report_b = tmp_path / "b.json"
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--config", cfg, "--classifier", "knn5",
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                       "--report", report_b)
        assert proc.returncode == 0
        assert json.loads(report_b.read_text())["config"]["classifier"] == "knn5"

    def test_config_file_with_byte_order_mark(self, endian_corpus, tmp_path):
        cfg = tmp_path / "bom.conf"
        cfg.write_bytes(b"\xef\xbb\xbfclassifier=knn1\n")
        report = tmp_path / "report.json"
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--config", cfg, "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv", "--report", report)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(report.read_text())["config"]["classifier"] == "knn1"

    @pytest.mark.parametrize("key", ["frobnicate", "help", "config"])
    def test_unknown_config_key_is_usage_error(self, key, endian_corpus, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"{key}=1\n")
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--config", cfg, "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv")
        one_error_line(proc, f"unknown config key {key!r}")

    # Config lines go in before the command line's flags, so every spelling
    # argparse accepts for an explicit flag overrides the file.
    @pytest.mark.parametrize("explicit", [["--classifier", "knn1"], ["--classifier=knn1"],
                                          ["--class", "knn1"]])
    def test_every_spelling_of_an_explicit_flag_wins(self, explicit, size_corpus, tmp_path):
        report = tmp_path / "report.json"
        proc = run_cli("evaluate", "--config", CONFIG_DIR / "isvar-autocorr.conf", *explicit,
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv",
                       "--report", report)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].endswith("classifier: knn1")
        settings = json.loads(report.read_text())["config"]
        assert settings["classifier"] == "knn1"
        assert settings["lag"] == DEFAULT_AUTOCORR_LAGS[(Task.FIXED_VS_VARIABLE, "knn1")]

    @pytest.mark.parametrize("value, recorded", [("yes", True), ("Off", False)])
    def test_config_switch(self, value, recorded, endian_corpus, tmp_path):
        cfg = tmp_path / "switch.conf"
        cfg.write_text(f"standardize={value}\n")
        report = tmp_path / "report.json"
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig", "--config", cfg,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                       "--report", report)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(report.read_text())["config"]["standardize"] is recorded

    def test_config_switch_not_a_boolean(self, endian_corpus, tmp_path):
        cfg = tmp_path / "switch.conf"
        cfg.write_text("standardize=maybe\n")
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig", "--config", cfg,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        one_error_line(proc, "--standardize: config value 'maybe'")

    def test_config_comments_quotes_and_underscored_keys(self, size_corpus, tmp_path):
        cfg = tmp_path / "curves.conf"
        cfg.write_text('# grouping by width\n\n  group_by = "fixed-bits"\nlag="8"\n')
        proc = run_cli("export-curves", "--config", cfg,
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert [row["class"] for row in rows] == ["16"] * 8 + ["32"] * 8

    def test_config_line_without_equals(self, endian_corpus, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("task=endianness\nfeature endsig\n")
        proc = run_cli("evaluate", "--config", cfg,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        one_error_line(proc, f"{cfg}:2: expected key=value, got 'feature endsig'")

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_uses_the_tuned_tables(self, config, endian_corpus, size_corpus,
                                                  tmp_path):
        keys = dict(line.split("=", 1) for line in config.read_text().splitlines()
                    if line and not line.startswith("#"))
        task = Task(keys["task"])
        corpus = endian_corpus if task is Task.ENDIANNESS else size_corpus
        report = tmp_path / "report.json"
        proc = run_cli("evaluate", "--config", config, "--corpus", corpus,
                       "--labels", corpus / "labels.csv", "--report", report)
        assert proc.returncode == 0, proc.stderr
        settings = json.loads(report.read_text())["config"]
        assert settings["c"] == DEFAULT_LOGREG_C[(task, keys["feature"])]
        assert settings["lag"] == (DEFAULT_AUTOCORR_LAGS[(task, keys["classifier"])]
                                   if keys["feature"] == AUTOCORR else None)

    def test_gridsearch_c_takes_task_from_config(self, endian_corpus):
        proc = run_cli("gridsearch", "c", "--config", CONFIG_DIR / "endianness-signatures.conf",
                       "--grid", "1e9,1e10", "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("best c: 1e+09\n")

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_required_flag_missing_after_config(self, route, endian_corpus, tmp_path):
        cfg = tmp_path / "task.conf"
        cfg.write_text("task=endianness\n")
        head = ["--config", cfg] if route == "config" else ["--task", "endianness"]
        proc = run_cli("evaluate", *head, "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv")
        one_error_line(proc, "required: --feature")

    def test_rerun_reproduces_report(self, endian_corpus, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                           "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                           "--report", path)
            assert proc.returncode == 0
            outputs.append(path.read_text())
        assert outputs[0] == outputs[1]


class TestPositiveIntFlags:
    @pytest.mark.parametrize("flag", ["--jobs", "--lag", "--trees"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_evaluate_rejects_non_positive(self, flag, value, endian_corpus):
        proc = run_cli("evaluate", "--task", "isvar", "--feature", "autocorr", flag, value,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 2
        assert flag in proc.stderr

    @pytest.mark.parametrize("flag", ["--jobs", "--trees"])
    def test_gridsearch_rejects_zero(self, flag, size_corpus):
        proc = run_cli("gridsearch", "lag", "--task", "isvar", flag, "0",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 2

    def test_export_curves_rejects_zero_lag(self, size_corpus):
        proc = run_cli("export-curves", "--lag", "0",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 2

    def test_jobs_is_reserved(self, size_corpus, tmp_path):
        runs = []
        for jobs in (1, 3):
            per_fold = tmp_path / f"jobs{jobs}.csv"
            proc = run_cli("evaluate", "--task", "isvar", "--feature", "autocorr", "--lag", 16,
                           "--classifier", "rforest", "--trees", 5, "--jobs", jobs,
                           "--corpus", size_corpus, "--labels", size_corpus / "labels.csv",
                           "--csv", per_fold)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout.replace(str(per_fold), "CSV"), per_fold.read_bytes()))
        assert runs[0] == runs[1]

    def test_forest_seed_above_64_bits(self, size_corpus):
        proc = run_cli("evaluate", "--task", "isvar", "--feature", "autocorr", "--lag", 16,
                       "--classifier", "rforest", "--seed", 2**70,
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr

    def test_config_value_rejected_as_usage_error(self, endian_corpus, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("jobs=0\n")
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--config", cfg, "--corpus", endian_corpus,
                       "--labels", endian_corpus / "labels.csv")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("command", ["evaluate", "gridsearch"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_cap_checked_at_parse_time(self, command, route, size_corpus, tmp_path):
        head = (["evaluate", "--task", "isvar", "--feature", "autocorr", "--lag", 16]
                if command == "evaluate" else ["gridsearch", "lag", "--task", "isvar"])
        if route == "flag":
            cap = ["--cap", "0"]
        else:
            cfg = tmp_path / "cap.conf"
            cfg.write_text("cap=0\n")
            cap = ["--config", cfg]
        proc = run_cli(*head, *cap, "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert len(errors) == 1 and "cap" in errors[0]
        assert "Traceback" not in proc.stderr


def one_error_line(proc, word):
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error" in line]
    assert len(errors) == 1 and word in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr


def flag_or_config(route, key, value, tmp_path):
    """The arguments that set key, and the name its error line shows: the
    flag, on both routes, since config lines are read as flags."""
    if route == "flag":
        return [f"--{key}", value], f"--{key}"
    cfg = tmp_path / "c.conf"
    cfg.write_text(f"{key}={value}\n")
    return ["--config", cfg], f"--{key}"


class TestPositiveFiniteC:
    BAD = ["inf", "-inf", "nan", "0", "-1", "1e400", "abc"]

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_evaluate_c(self, value, route, endian_corpus, tmp_path):
        c_args, name = flag_or_config(route, "c", value, tmp_path)
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--classifier", "logreg", *c_args,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                       "--report", tmp_path / "report.json")
        one_error_line(proc, name)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key", ["endian-c", "isvar-c", "width-c"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_train_stage_c(self, key, route, endian_corpus, size_corpus, tmp_path):
        c_args, name = flag_or_config(route, key, "inf", tmp_path)
        proc = run_cli("train", "--endian-corpus", endian_corpus, "--size-corpus", size_corpus,
                       *c_args, "--out", tmp_path / "models")
        one_error_line(proc, name)
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_gridsearch_lag_c(self, route, size_corpus, tmp_path):
        c_args, name = flag_or_config(route, "c", "nan", tmp_path)
        proc = run_cli("gridsearch", "lag", "--task", "isvar", "--classifier", "logreg", *c_args,
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        one_error_line(proc, name)

    @pytest.mark.parametrize("grid", ["nan", "inf", "1,inf", "0.5,nan,2", "1e400"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_gridsearch_c_grid(self, grid, route, endian_corpus, tmp_path):
        grid_args, _ = flag_or_config(route, "grid", grid, tmp_path)
        proc = run_cli("gridsearch", "c", "--task", "endianness", "--feature", "endsig",
                       *grid_args,
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv")
        one_error_line(proc, "--grid: values must be positive and finite")

    def test_finite_c_accepted(self, endian_corpus, tmp_path):
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--classifier", "logreg", "--c", "1e10",
                       "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                       "--report", tmp_path / "report.json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["config"]["c"] == 1e10


class TestCountAndSeedFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--isas", "0"), ("--files", "-2"), ("--len", "0"), ("--isas-per-width", "-1"),
        ("--variable", "-1"), ("--seed", "-1"), ("--files", "two"),
    ])
    def test_synth_checks_counts_at_parse_time(self, flag, value, tmp_path):
        counts = {"--isas": "2", "--files": "1", "--len": "2048"}
        counts[flag] = value
        mode = "endian" if flag == "--isas" else "fixedwidth"
        proc = run_cli("synth", mode, *itertools.chain(*counts.items()),
                       *([] if flag in counts else [flag, value]), "--out", tmp_path / "c")
        one_error_line(proc, flag)
        assert not (tmp_path / "c").exists()

    def test_synth_rejects_empty_fixedwidth_corpus(self, tmp_path):
        proc = run_cli("synth", "fixedwidth", "--isas-per-width", 0, "--files", 1,
                       "--len", 2048, "--out", tmp_path / "c")
        one_error_line(proc, "--isas-per-width 0 with --variable 0")
        assert not (tmp_path / "c").exists()

    def test_synth_zero_counts_allowed_when_corpus_is_not_empty(self, tmp_path):
        proc = run_cli("synth", "fixedwidth", "--isas-per-width", 0, "--variable", 2,
                       "--files", 1, "--len", 2048, "--out", tmp_path / "c")
        assert proc.returncode == 0, proc.stderr
        assert "total: 2 samples in 2 groups" in proc.stdout

    @pytest.mark.parametrize("command", ["evaluate", "gridsearch", "train"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_negative_seed_is_usage_error(self, command, route, size_corpus, tmp_path):
        seed_args, name = flag_or_config(route, "seed", "-1", tmp_path)
        corpus = ["--corpus", size_corpus, "--labels", size_corpus / "labels.csv"]
        head = {
            "evaluate": ["evaluate", "--task", "isvar", "--feature", "autocorr",
                         "--classifier", "rforest", *corpus],
            "gridsearch": ["gridsearch", "lag", "--task", "isvar", "--classifier", "rforest",
                           *corpus],
            "train": ["train", "--corpus", size_corpus, "--isvar-classifier", "rforest",
                      "--out", tmp_path / "models"],
        }[command]
        proc = run_cli(*head, *seed_args)
        one_error_line(proc, name)
        assert not (tmp_path / "models").exists()


class TestMemoryError:
    @pytest.mark.parametrize("exc, detail", [
        (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
        (MemoryError(), "allocation failed"),
    ])
    def test_one_line_exit_1(self, exc, detail, monkeypatch, capsys, tmp_path):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "generate_synthetic_endian", exhausted)
        code = cli.main(["synth", "endian", "--isas", "1", "--files", "1",
                         "--len", "100000000000", "--out", str(tmp_path / "corpus")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {detail}\n"


# Runs one CLI command in a fresh interpreter, then prints the scipy
# modules it loaded as the last stderr line.
SCIPY_PROBE = """
import json, sys
from isatraits.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))),
      file=sys.stderr)
sys.exit(code)
"""

# Runs one CLI command in a fresh interpreter where importing scipy fails.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # `import scipy` and `import scipy.x` raise ImportError
from isatraits.cli import main
sys.exit(main(sys.argv[1:]))
"""


def scipy_loaded_by(*args):
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def run_without_scipy(*args):
    return subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *map(str, args)],
                          capture_output=True, text=True)


class TestNoScipyLoaded:
    def test_predict_with_logreg_models(self, models_dir, tmp_path):
        for name in ("endian", "isvar", "width"):
            assert '"kind":"logistic_regression"' in (models_dir / f"{name}.model").read_text()
        assert scipy_loaded_by("predict",
                               "--endian-model", models_dir / "endian.model",
                               "--isvar-model", models_dir / "isvar.model",
                               "--width-model", models_dir / "width.model",
                               le_fixed32_query(tmp_path / "query.bin")) == []

    def test_gridsearch_lag_knn3(self, size_corpus):
        assert scipy_loaded_by("gridsearch", "lag", "--task", "isvar", "--classifier", "knn3",
                               "--grid", "16,32", "--corpus", size_corpus,
                               "--labels", size_corpus / "labels.csv") == []

    @pytest.mark.parametrize("classifier", ["knn1", "gnb", "dtree", "rforest"])
    def test_evaluate_other_classifiers(self, classifier, size_corpus):
        assert scipy_loaded_by("evaluate", "--task", "isvar", "--feature", "autocorr",
                               "--lag", 16, "--classifier", classifier, "--trees", 5,
                               "--corpus", size_corpus, "--labels", size_corpus / "labels.csv") == []

    def test_synth(self, tmp_path):
        assert scipy_loaded_by("synth", "endian", "--isas", 1, "--files", 1, "--len", 1024,
                               "--out", tmp_path / "corpus") == []

    def test_stats(self, endian_corpus):
        assert scipy_loaded_by("stats", "--labels", endian_corpus / "labels.csv",
                               "--corpus", endian_corpus) == []

    def test_export_curves(self, size_corpus):
        assert scipy_loaded_by("export-curves", "--lag", 8, "--corpus", size_corpus,
                               "--labels", size_corpus / "labels.csv") == []

    def test_evaluate_logreg(self, endian_corpus):
        assert scipy_loaded_by("evaluate", "--task", "endianness", "--feature", "endsig",
                               "--classifier", "logreg", "--corpus", endian_corpus,
                               "--labels", endian_corpus / "labels.csv") == []


class TestRunsWithoutScipy:
    def test_train(self, endian_corpus, size_corpus, tmp_path):
        proc = run_without_scipy("train", "--endian-corpus", endian_corpus,
                                 "--size-corpus", size_corpus,
                                 "--isvar-lag", 64, "--width-lag", 64, "--out", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "endian.model", "isvar.model", "width.model"]

    def test_evaluate_logreg(self, size_corpus):
        proc = run_without_scipy("evaluate", "--task", "isvar", "--feature", "autocorr",
                                 "--lag", 16, "--classifier", "logreg", "--corpus", size_corpus,
                                 "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        assert "accuracy" in proc.stdout

    def test_blocking_works(self):
        proc = subprocess.run([sys.executable, "-c",
                               'import sys; sys.modules["scipy"] = None; import scipy.optimize'],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ImportError" in proc.stderr or "ModuleNotFoundError" in proc.stderr


class TestGridsearch:
    def test_lag_sweep_three_rows(self, size_corpus, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli("gridsearch", "lag", "--task", "isvar", "--grid", "16,32,64",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv",
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "best lag:" in proc.stdout
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["param"] for row in rows] == ["16", "32", "64"]

    def test_negative_grid_is_usage_error(self, size_corpus):
        proc = run_cli("gridsearch", "c", "--task", "endianness", "--feature", "endsig",
                       "--grid", "-1",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 2

    def test_too_large_lag_exit_1(self, size_corpus):
        proc = run_cli("gridsearch", "lag", "--task", "isvar", "--grid", "8192",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 1
        assert "lag" in proc.stderr.lower()

    # The golden outputs sweep knn3 and fix --lag, so these pin the tuned
    # defaults that reach the sweeps when no --c or --lag is given.
    @pytest.mark.parametrize("task", cli.TASK_NAMES)
    def test_lag_sweep_of_logreg_takes_the_tuned_c(self, task, size_corpus, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "grid_search_lag", lambda _manifest, _task, spec, grid:
                            seen.append(spec) or (grid[0], [(grid[0], 1.0)]))
        assert cli.main(["gridsearch", "lag", "--task", task, "--classifier", "logreg",
                         "--grid", "16,32", "--corpus", str(size_corpus),
                         "--labels", str(size_corpus / "labels.csv")]) == 0
        assert seen == [spec_from_name("logreg", c=DEFAULT_LOGREG_C.get((Task(task), AUTOCORR), 1.0))]

    @pytest.mark.parametrize("task", ["isvar", "fixedwidth"])
    def test_c_sweep_of_autocorr_takes_the_tuned_lag(self, task, size_corpus, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "grid_search_c", lambda _manifest, _task, feature, grid:
                            seen.append(feature) or (grid[0], [(grid[0], 1.0)]))
        assert cli.main(["gridsearch", "c", "--task", task, "--feature", AUTOCORR, "--grid", "1,10",
                         "--corpus", str(size_corpus), "--labels", str(size_corpus / "labels.csv")]) == 0
        assert seen == [FeatureConfig(AUTOCORR, DEFAULT_AUTOCORR_LAGS[(Task(task), "logreg")])]


class TestTrainPredict:
    def test_predict_le_fixed32(self, models_dir, tmp_path):
        query = le_fixed32_query(tmp_path / "query.bin")
        proc = run_cli("predict",
                       "--endian-model", models_dir / "endian.model",
                       "--isvar-model", models_dir / "isvar.model",
                       "--width-model", models_dir / "width.model",
                       query)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)  # stdout must be exactly one JSON object
        assert payload["endianness"] == "LE"
        assert payload["size_kind"] == "fixed"
        assert payload["fixed_bits"] == 32
        assert "per_stage_details" in payload

    def test_variable_prediction_omits_fixed_bits(self, models_dir, tmp_path):
        rng = np.random.default_rng(8)
        query = tmp_path / "noise.bin"
        query.write_bytes(rng.integers(0, 256, 4096, dtype=np.uint8).tobytes())
        proc = run_cli("predict",
                       "--endian-model", models_dir / "endian.model",
                       "--isvar-model", models_dir / "isvar.model",
                       "--width-model", models_dir / "width.model",
                       query)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["size_kind"] == "variable"
        assert "fixed_bits" not in payload

    def test_missing_model_flag_is_usage_error(self, models_dir, tmp_path):
        query = le_fixed32_query(tmp_path / "query.bin")
        proc = run_cli("predict",
                       "--endian-model", models_dir / "endian.model",
                       "--isvar-model", models_dir / "isvar.model",
                       query)
        assert proc.returncode == 2

    def test_corrupt_model_exit_1(self, models_dir, tmp_path):
        broken = tmp_path / "broken.model"
        text = (models_dir / "endian.model").read_text()
        broken.write_text(text[: len(text) // 2])
        query = le_fixed32_query(tmp_path / "query.bin")
        proc = run_cli("predict",
                       "--endian-model", broken,
                       "--isvar-model", models_dir / "isvar.model",
                       "--width-model", models_dir / "width.model",
                       query)
        assert proc.returncode == 1

    def test_model_missing_spec_exit_1_one_line(self, models_dir, tmp_path):
        lines = (models_dir / "isvar.model").read_text().splitlines()
        payload = json.loads(lines[0])
        del payload["spec"]
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        broken = tmp_path / "nospec.model"
        broken.write_text(f"{body}\ncrc32:{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n")
        query = le_fixed32_query(tmp_path / "query.bin")
        proc = run_cli("predict",
                       "--endian-model", models_dir / "endian.model",
                       "--isvar-model", broken,
                       "--width-model", models_dir / "width.model",
                       query)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert "spec" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("classifier, mutate, word", [
        ("dtree", lambda params: params["tree"].pop("threshold"), "threshold"),
        ("knn3", lambda params: params["train_y"].__setitem__(0, 5), "train_y"),
    ], ids=["dtree-without-threshold", "knn3-with-class-5"])
    def test_corrupt_width_model_exit_1_one_line(self, classifier, mutate, word, endian_corpus,
                                                 size_corpus, tmp_path):
        out = tmp_path / "models"
        proc = run_cli("train", "--endian-corpus", endian_corpus, "--size-corpus", size_corpus,
                       "--width-classifier", classifier, "--isvar-lag", 64, "--width-lag", 64,
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "width.model").read_text().splitlines()[0])
        mutate(payload["parameters"])
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        (out / "width.model").write_text(f"{body}\ncrc32:{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n")
        proc = run_cli("predict", "--endian-model", out / "endian.model",
                       "--isvar-model", out / "isvar.model", "--width-model", out / "width.model",
                       le_fixed32_query(tmp_path / "query.bin"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert word in proc.stderr and "Traceback" not in proc.stderr

    def test_train_on_a_corpus_without_size_labels_names_the_isvar_stage(self, endian_corpus,
                                                                         tmp_path):
        proc = run_cli("train", "--corpus", endian_corpus, "--out", tmp_path / "models")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: [stage=isvar] ") and proc.stderr.count("\n") == 1, \
            proc.stderr
        assert not (tmp_path / "models").exists()

    def test_train_on_one_width_names_the_fixedwidth_stage(self, endian_corpus, tmp_path):
        one_width = tmp_path / "one_width"
        proc = run_cli("synth", "fixedwidth", "--widths", "16", "--isas-per-width", 2,
                       "--files", 3, "--len", 4096, "--variable", 2, "--seed", 3, "--out", one_width)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("train", "--endian-corpus", endian_corpus, "--size-corpus", one_width,
                       "--out", tmp_path / "models")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: [stage=fixedwidth] ") and \
            proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "models").exists()

    def test_train_extracts_each_size_sample_once(self, endian_corpus, size_corpus, tmp_path,
                                                  monkeypatch):
        calls = []
        original = evaluate.autocorrelation_rows
        monkeypatch.setattr(evaluate, "autocorrelation_rows",
                            lambda batch, l: calls.extend((s.tobytes(), l) for s in batch)
                            or original(batch, l))
        out = tmp_path / "models"
        assert cli.main(["train", "--endian-corpus", str(endian_corpus),
                         "--size-corpus", str(size_corpus), "--isvar-lag", "64",
                         "--width-lag", "32", "--out", str(out)]) == 0
        monkeypatch.undo()

        manifest = scan_corpus(size_corpus, parse_label_registry(size_corpus / "labels.csv"))
        isvar_ids = evaluate.eligible_ids(manifest, Task.FIXED_VS_VARIABLE)
        assert sorted(calls) == sorted((manifest.samples[i].load().data, 64) for i in isvar_ids)

        # The width model is the one fitted on vectors extracted at its own lag.
        width_ids = evaluate.eligible_ids(manifest, Task.FIXED_WIDTH)
        direct = fit(
            spec_from_name("logreg", c=evaluate.DEFAULT_LOGREG_C[(Task.FIXED_WIDTH, AUTOCORR)]),
            np.array([evaluate.autocorrelation_feature(manifest.samples[i].load(), 32)
                      for i in width_ids]),
            [evaluate.task_label(manifest.label_of(manifest.samples[i]), Task.FIXED_WIDTH)
             for i in width_ids],
            evaluate.FeatureConfig(AUTOCORR, 32),
        )
        save_model(direct, tmp_path / "direct.model")
        assert (tmp_path / "direct.model").read_text() == (out / "width.model").read_text()

    def test_train_shared_corpus_is_scanned_and_loaded_once(self, endian_corpus, size_corpus,
                                                            tmp_path, monkeypatch):
        # Both synthetic corpora under one root with one label file, as in
        # cpu_rec; the size ISAs get a byte order too, so every stage reads them.
        merged = tmp_path / "merged"
        shutil.copytree(endian_corpus, merged)
        registry = parse_label_registry(endian_corpus / "labels.csv")
        size_labels = parse_label_registry(size_corpus / "labels.csv")
        for n, (name, label) in enumerate(sorted(size_labels.items())):
            shutil.copytree(size_corpus / name, merged / name)
            registry[name] = dataclasses.replace(label, endianness=Endianness("LE" if n % 2 else "BE"))
        write_label_registry(registry, merged / "labels.csv")

        def train(out, *corpus_flags):
            loads, scans = [], []
            original_load, original_scan = SampleRef.load, cli.scan_corpus
            monkeypatch.setattr(SampleRef, "load",
                                lambda ref: loads.append(ref.source_path) or original_load(ref))
            monkeypatch.setattr(cli, "scan_corpus",
                                lambda *args, **kwargs: scans.append(args[0])
                                or original_scan(*args, **kwargs))
            assert cli.main(["train", *corpus_flags, "--isvar-lag", "64", "--width-lag", "32",
                             "--out", str(out)]) == 0
            monkeypatch.undo()
            return loads, scans

        loads, scans = train(tmp_path / "shared", "--corpus", str(merged))
        assert len(scans) == 1
        assert sorted(loads) == sorted(ref.source_path
                                       for ref in scan_corpus(merged, registry).samples)
        # Two spellings of one directory are two corpora: two scans, the same models.
        _, scans = train(tmp_path / "spelled", "--endian-corpus", str(merged),
                             "--size-corpus", f"{merged}/.")
        assert len(scans) == 2
        for name in ("endian", "isvar", "width"):
            assert ((tmp_path / "shared" / f"{name}.model").read_bytes()
                    == (tmp_path / "spelled" / f"{name}.model").read_bytes())

    @pytest.mark.parametrize("existing", [False, True])
    def test_train_error_names_the_file(self, existing, endian_corpus, size_corpus, tmp_path):
        corpus = tmp_path / "size"
        shutil.copytree(size_corpus, corpus)
        (corpus / "synthVAR_0" / "zz_short.bin").write_bytes(b"abc")
        out = tmp_path / "models"
        older = tmp_path / "older"
        if existing:  # an older model set, unlike anything this run would write
            older.mkdir()
            for name in ("endian", "isvar", "width"):
                (older / f"{name}.model").write_text(f"an older {name} model\n")
            shutil.copytree(older, out)
        proc = run_cli("train", "--endian-corpus", endian_corpus, "--size-corpus", corpus,
                       "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert str(corpus / "synthVAR_0" / "zz_short.bin") + ": autocorrelation" in proc.stderr
        # The size stages failed, so not even the fitted endian model is written.
        assert proc.stdout == ""
        if existing:
            assert tree_digest(out) == tree_digest(older)
        else:
            assert not out.exists()

    # Model files passed for other stages, by (endian, isvar, width) flag;
    # TestPredictUnknown in test_evaluate.py covers every swap.
    @pytest.mark.parametrize("files, stage", [
        (("isvar", "endian", "width"), "endianness"),
        (("endian", "isvar", "endian"), "fixedwidth"),
        (("endian", "isvar", "isvar"), "fixedwidth"),
    ])
    def test_model_of_another_stage_exit_1(self, files, stage, models_dir, tmp_path):
        flags = [arg for flag, name in zip(("--endian-model", "--isvar-model", "--width-model"), files)
                 for arg in (flag, models_dir / f"{name}.model")]
        proc = run_cli("predict", *flags, le_fixed32_query(tmp_path / "query.bin"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: [stage={stage}] not a model for the {stage} stage")

    # One CRC-valid model field naming a feature the model cannot have read,
    # rejected before anything is extracted.
    @pytest.mark.parametrize("prefix, field, value, stage", [
        ("isvar", "feature_name", "foo", "isvar"),
        ("isvar", "lag_param", 32, "isvar"),
        ("width", "lag_param", 128, "fixedwidth"),
        ("endian", "lag_param", 7, "endianness"),
        ("endian", "feature_name", "bigrams", "endianness"),
    ])
    def test_model_feature_checked_per_stage(self, prefix, field, value, stage, models_dir,
                                             tmp_path, capsys, monkeypatch):
        for name in ("bigram_histogram", "endianness_signatures", "autocorrelation_feature"):
            monkeypatch.setattr(evaluate, name, lambda *args: pytest.fail("extracted"))
        payload = json.loads((models_dir / f"{prefix}.model").read_text().splitlines()[0])
        payload[field] = value
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        broken = tmp_path / f"{prefix}.model"
        broken.write_text(f"{body}\ncrc32:{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n")
        models = {name: models_dir / f"{name}.model" for name in ("endian", "isvar", "width")}
        models[prefix] = broken
        argv = ["predict", *(arg for name, path in models.items()
                             for arg in (f"--{name}-model", str(path))),
                str(le_fixed32_query(tmp_path / "query.bin"))]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: [stage={stage}] ")

    def test_tiny_binary_reports_stage(self, models_dir, tmp_path):
        query = tmp_path / "tiny.bin"
        query.write_bytes(b"\x00")
        proc = run_cli("predict",
                       "--endian-model", models_dir / "endian.model",
                       "--isvar-model", models_dir / "isvar.model",
                       "--width-model", models_dir / "width.model",
                       query)
        assert proc.returncode == 1
        assert "endianness" in proc.stderr

    @pytest.mark.parametrize("body", [
        lambda payload: "[" * 200_000 + "]" * 200_000,
        lambda payload: json.dumps({**payload, "spec": {**payload["spec"], "k": float("inf")}}),
        lambda payload: json.dumps({**payload, "spec": {**payload["spec"], "k": 3.9}}),
    ], ids=["nested-200000-deep", "k-infinite", "k-fractional"])
    def test_crc_valid_bad_payload_exit_1_one_line(self, body, models_dir, tmp_path):
        payload = json.loads((models_dir / "isvar.model").read_text().splitlines()[0])
        text = body(payload)
        broken = tmp_path / "isvar.model"
        broken.write_text(f"{text}\ncrc32:{zlib.crc32(text.encode()) & 0xFFFFFFFF:08x}\n")
        proc = run_cli("predict", "--endian-model", models_dir / "endian.model",
                       "--isvar-model", broken, "--width-model", models_dir / "width.model",
                       le_fixed32_query(tmp_path / "query.bin"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and str(broken) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUsageErrorsBeforeCorpusWork:
    """Each of these exits 2 naming its flag, with a corpus that does not
    exist: no corpus is read first."""

    def test_train_without_a_size_corpus(self, tmp_path):
        proc = run_cli("train", "--endian-corpus", tmp_path / "missing", "--out", tmp_path / "m")
        one_error_line(proc, "--size-corpus")
        assert not (tmp_path / "m").exists()

    def test_gridsearch_lag_grid_not_a_list(self, tmp_path):
        proc = run_cli("gridsearch", "lag", "--task", "isvar", "--grid", "abc",
                       "--corpus", tmp_path / "missing", "--labels", tmp_path / "labels.csv")
        one_error_line(proc, "--grid")

    @pytest.mark.parametrize("mode, grid, value", [
        ("lag", "16,16,32", "16"),
        ("lag", "32,16,032", "32"),
        ("c", "1e9,1e9,1000000000", "1e+09"),
        ("c", "10,1e1", "10"),
    ])
    def test_gridsearch_repeated_grid_value(self, mode, grid, value, capsys, tmp_path):
        head = (["lag", "--task", "isvar"] if mode == "lag"
                else ["c", "--task", "endianness", "--feature", "endsig"])
        code = cli.main(["gridsearch", *head, "--grid", grid, "--corpus", str(tmp_path / "missing"),
                         "--labels", str(tmp_path / "labels.csv")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            f"error: --grid: {value} is given more than once"]

    def test_gridsearch_c_without_feature(self, tmp_path):
        proc = run_cli("gridsearch", "c", "--task", "endianness",
                       "--corpus", tmp_path / "missing", "--labels", tmp_path / "labels.csv")
        one_error_line(proc, "--feature")

    @pytest.mark.parametrize("widths", ["12", "16,20"])
    def test_synth_width_not_a_multiple_of_8(self, widths, tmp_path):
        proc = run_cli("synth", "fixedwidth", "--widths", widths, "--files", 1, "--len", 4096,
                       "--out", tmp_path / "c")
        one_error_line(proc, "--widths")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("widths", ["16,16", "16,016"])
    def test_synth_repeated_width(self, widths, capsys, tmp_path):
        code = cli.main(["synth", "fixedwidth", "--widths", widths, "--isas-per-width", "1",
                         "--files", "2", "--len", "4096", "--variable", "1",
                         "--out", str(tmp_path / "c")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            "error: --widths: 16 is given more than once"]
        assert not (tmp_path / "c").exists()


class TestExportCurves:
    def test_size_kind_grouping(self, size_corpus, tmp_path):
        out = tmp_path / "curves.csv"
        proc = run_cli("export-curves", "--lag", 16, "--group-by", "size-kind",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv",
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["class"] for row in rows} == {"fixed", "variable"}
        assert len(rows) == 2 * 16

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_that_cannot_be_written_is_not_reported(self, size_corpus):
        proc = run_cli("export-curves", "--lag", 512, "--corpus", size_corpus,
                       "--labels", size_corpus / "labels.csv", "--out", "/dev/full")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_fixed_bits_grouping(self, size_corpus):
        proc = run_cli("export-curves", "--lag", 8, "--group-by", "fixed-bits",
                       "--corpus", size_corpus, "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert {row["class"] for row in rows} == {"16", "32"}

    def test_widths_in_numeric_order_as_in_stats(self, tmp_path):
        corpus = tmp_path / "corpus"
        proc = run_cli("synth", "fixedwidth", "--widths", "8,16", "--isas-per-width", 1,
                       "--files", 2, "--len", 2048, "--seed", 5, "--out", corpus)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("export-curves", "--lag", 4, "--group-by", "fixed-bits",
                       "--corpus", corpus, "--labels", corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert [row["class"] for row in rows] == ["8"] * 4 + ["16"] * 4
        stats = run_cli("stats", "--labels", corpus / "labels.csv")
        assert "fixed width classes: 8:1 16:1" in stats.stdout


# Each reader of an input path, called on the path in sys.argv[1]. A
# reader that opened a FIFO would wait for a writer, so each runs in a
# child process under a timeout: a hang fails the test instead of the run.
READERS = {
    "sample": "from isatraits.corpus import SampleRef; SampleRef(path, 'x').load()",
    "labels": "from isatraits.corpus import parse_label_registry; parse_label_registry(path)",
    "config": "import argparse; from isatraits import cli; p = argparse.ArgumentParser(); "
              "cli._evaluate_flags(p); cli._config_flags(path, p)",
    "model": "from isatraits.classify import load_model; load_model(path)",
    "labels-sha256": "from isatraits import cli; cli._labels_sha256(path)",
}
READER_PROBE = """
import sys
from isatraits.errors import NotRegularFile
path = sys.argv[1]
try:
    exec(sys.argv[2])
except NotRegularFile as exc:
    print(exc)
else:
    print("read")
"""
# A child has this long to refuse a FIFO; the refusal itself takes
# milliseconds, and the rest is interpreter start-up.
FIFO_TIMEOUT_S = 60

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


@pytest.fixture
def fifo(tmp_path):
    path = tmp_path / "q.fifo"
    os.mkfifo(path)
    return path


def refused(proc, path):
    """proc exited 1 with the one line that names path as not a regular file."""
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {path} is not a regular file\n"
    assert proc.stdout == ""


@needs_fifo
class TestNonRegularInputs:
    @pytest.mark.parametrize("reader", list(READERS))
    def test_each_reader_refuses_a_fifo(self, reader, fifo):
        proc = subprocess.run([sys.executable, "-c", READER_PROBE, str(fifo), READERS[reader]],
                              capture_output=True, text=True, timeout=FIFO_TIMEOUT_S)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{fifo} is not a regular file\n"

    @pytest.mark.parametrize("stage", ["binary", "endian-model", "width-model"])
    def test_predict_refuses_a_fifo(self, stage, fifo, models_dir):
        paths = {f"{prefix}-model": models_dir / f"{prefix}.model"
                 for prefix in ("endian", "isvar", "width")}
        paths["binary"] = le_fixed32_query(fifo.parent / "q.bin")
        paths[stage] = fifo
        binary = paths.pop("binary")
        argv = [arg for flag, path in paths.items() for arg in (f"--{flag}", path)]
        refused(run_cli("predict", *argv, binary, timeout=FIFO_TIMEOUT_S), fifo)

    @pytest.mark.parametrize("flag", ["--labels", "--config"])
    def test_evaluate_refuses_a_fifo(self, flag, fifo, endian_corpus):
        paths = {"--labels": endian_corpus / "labels.csv", flag: fifo}
        proc = run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                       "--corpus", endian_corpus, *itertools.chain(*paths.items()),
                       timeout=FIFO_TIMEOUT_S)
        refused(proc, fifo)

    def test_a_directory_is_refused(self, tmp_path, endian_corpus):
        refused(run_cli("stats", "--labels", tmp_path), tmp_path)
        refused(run_cli("evaluate", "--task", "endianness", "--feature", "endsig",
                        "--corpus", endian_corpus, "--labels", endian_corpus / "labels.csv",
                        "--config", tmp_path), tmp_path)

    @pytest.mark.skipif(os.devnull != "/dev/null", reason="needs /dev/null")
    def test_dev_null_is_refused(self, models_dir):
        refused(run_cli("predict", *itertools.chain(*(
            (f"--{prefix}-model", models_dir / f"{prefix}.model")
            for prefix in ("endian", "isvar", "width"))), os.devnull), os.devnull)


def cli_stdout(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(arg) for arg in argv]) == 0
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def golden_models(tmp_path_factory, endian_corpus, size_corpus):
    """Stage models at two different autocorrelation lags, so train and
    predict both cut one stage's lag from the other's extraction."""
    out = tmp_path_factory.mktemp("golden_models")
    cli_stdout("train", "--endian-corpus", endian_corpus, "--size-corpus", size_corpus,
               "--isvar-lag", 64, "--width-lag", 32, "--out", out)
    return out


def golden_output(name, models, endian_corpus, size_corpus, tmp_path) -> bytes:
    if name.endswith(".model"):
        return (models / name).read_bytes()
    if name.startswith("predict"):
        if name == "predict-fixed32":
            query = le_fixed32_query(tmp_path / "query.bin")
        else:
            query = tmp_path / "noise.bin"
            query.write_bytes(np.random.default_rng(8).integers(0, 256, 4096, dtype=np.uint8).tobytes())
        return cli_stdout("predict", *(arg for _, prefix, _ in cli.STAGES
                                       for arg in (f"--{prefix}-model", models / f"{prefix}.model")),
                          query)
    corpus = endian_corpus if name == "gridsearch-c-endsig" else size_corpus
    argv = {
        "gridsearch-lag": ["gridsearch", "lag", "--task", "isvar", "--grid", "16,32,64"],
        "gridsearch-c-endsig": ["gridsearch", "c", "--task", "endianness", "--feature", "endsig",
                                "--grid", "1e9,1e10"],
        "gridsearch-c-autocorr": ["gridsearch", "c", "--task", "fixedwidth", "--feature",
                                  "autocorr", "--lag", 32, "--grid", "1,10,100"],
        "curves-size-kind": ["export-curves", "--lag", 16, "--group-by", "size-kind"],
        "curves-fixed-bits": ["export-curves", "--lag", 16, "--group-by", "fixed-bits"],
    }[name]
    return cli_stdout(*argv, "--corpus", corpus, "--labels", corpus / "labels.csv")


# sha256 of the bytes each command writes on the corpora of the endian_corpus
# and size_corpus fixtures, pinned before the features became one matrix per
# stage; model files and predict stdout come from golden_models.
GOLDEN_OUTPUTS = {
    "endian.model": "4b0da12475bd1dc0bfe3cb856a3729b832961472db429e0a0741f96829206cab",
    "isvar.model": "eabb399527e1283fe31add5399fd0f5d4cecb94d9bd7011515bb58070c77154c",
    "width.model": "670346f96bb2d04fb1fc26821976589ae302de1f1f0f773ccbf50321f737d93b",
    "predict-fixed32": "036ad31de609230b842f4583e840c5371e5e949771ed6926517da603028968ab",
    "predict-variable": "80fdf54f569253bab51234e0e9b84ea9a5c45ee5d0a846a01c83b0f4bf4e535f",
    "gridsearch-lag": "09fe32d73d870e1c5ea90dd7b9b819d5a6f2c10a041fcdd1a330a4a5c5f2bbf9",
    "gridsearch-c-endsig": "880db017fa2e9f2a0f93203101c455bcb8fdc355f3a5275fa650ee5dfb0a7f99",
    "gridsearch-c-autocorr": "4ef7cc24e6e22fce8c3c6af195156a2e57300865d50b61988d6a00d93c60f0c5",
    "curves-size-kind": "5c78edcc9549322212c5d6b2d6f16e021e6f05fe836a3ed71bafaed6d5c251bd",
    "curves-fixed-bits": "525c81cc32a81ec3e155efd470b6d593ac7b384374253f1ca9fe3270c007129b",
}


@pytest.mark.parametrize("name", list(GOLDEN_OUTPUTS))
def test_golden_output(name, golden_models, endian_corpus, size_corpus, tmp_path):
    output = golden_output(name, golden_models, endian_corpus, size_corpus, tmp_path)
    assert hashlib.sha256(output).hexdigest() == GOLDEN_OUTPUTS[name]


class TestStats:
    def test_cpurec_baselines(self, cpurec_labels_path):
        proc = run_cli("stats", "--labels", cpurec_labels_path)
        assert proc.returncode == 0, proc.stderr
        assert "33/51 = 0.647" in proc.stdout
        assert "25/43 = 0.581" in proc.stdout
        assert "17/25 = 0.680" in proc.stdout
        assert "16:6" in proc.stdout and "24:1" in proc.stdout
        assert "32:17" in proc.stdout and "128:1" in proc.stdout

    def test_task_without_eligible_isas(self, size_corpus):
        proc = run_cli("stats", "--labels", size_corpus / "labels.csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "endianness classes: none" in lines
        assert "endianness baseline: n/a (no eligible ISAs)" in lines

    def test_file_counts_with_corpus(self, endian_corpus):
        proc = run_cli("stats", "--labels", endian_corpus / "labels.csv",
                       "--corpus", endian_corpus)
        assert proc.returncode == 0
        assert "synthLE_0: 4" in proc.stdout

    def test_corpus_warns_about_unknown_isa(self, endian_corpus, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(endian_corpus, corpus)
        (corpus / "mystery").mkdir()
        (corpus / "mystery" / "a.bin").write_bytes(bytes(64))
        proc = run_cli("stats", "--labels", corpus / "labels.csv", "--corpus", corpus)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: unknown ISA directory 'mystery' skipped\n"

    def test_cell_over_the_csv_field_limit_exit_1_one_line(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("isa_name,endianness,inst_size_kind,inst_size_bits,inst_size_min,"
                          "inst_size_max,word_size_bits\n" + "x" * 200_000 + ",LE,fixed,32,,,\n")
        proc = run_cli("stats", "--labels", labels)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_labels_exit_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("stats", "--labels", empty).returncode == 1
        header_only = tmp_path / "header.csv"
        header_only.write_text(
            "isa_name,endianness,inst_size_kind,inst_size_bits,inst_size_min,inst_size_max,word_size_bits\n"
        )
        assert run_cli("stats", "--labels", header_only).returncode == 1


# ----------------------------------------------------------------------
# Property: any argv built from the real command and flag vocabulary ends
# with exit 0, 1 or 2, one error line when it fails, and no traceback.
# ----------------------------------------------------------------------

_PARSER, _COMMANDS = cli.build_parser()
JUNK_VALUES = ["0", "-1", "abc", "", "1e400", "nan", "inf", "a=b", "12", "8,0"]


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """Small corpora, stage models, 0-, 1- and 3-byte binaries and config
    files, by the kind of value a flag takes."""
    root = tmp_path_factory.mktemp("fuzz_main")
    assert cli.main(["synth", "endian", "--isas", "2", "--files", "2", "--len", "1024",
                     "--seed", "1", "--out", str(root / "endian")]) == 0
    assert cli.main(["synth", "fixedwidth", "--widths", "16,32", "--isas-per-width", "1",
                     "--files", "2", "--len", "256", "--variable", "1", "--seed", "1",
                     "--out", str(root / "size")]) == 0
    assert cli.main(["train", "--endian-corpus", str(root / "endian"), "--size-corpus",
                     str(root / "size"), "--isvar-lag", "8", "--width-lag", "8",
                     "--out", str(root / "models")]) == 0
    binaries = []
    for size in (0, 1, 3):
        binaries.append(root / f"bin{size}")
        binaries[-1].write_bytes(bytes(range(7, 7 + size)))
    configs = []
    for name, text in [("good.conf", "lag=8\nclassifier=knn1\nstandardize=yes\n"),
                       ("bad.conf", "jobs=0\n"), ("unknown.conf", "colour=blue\n"),
                       ("garbage.conf", "no equals sign\n")]:
        configs.append(root / name)
        configs[-1].write_text(text)
    configs.append(root / "latin1.conf")
    configs[-1].write_bytes(b"lag=\xff\n")
    kinds = {
        "corpus": [root / "endian", root / "size", root / "missing", binaries[1]],
        "labels": [root / "endian" / "labels.csv", root / "size" / "labels.csv", binaries[2]],
        "model": sorted((root / "models").glob("*.model")) + binaries,
        "binary": binaries + [root / "size" / "synthW32_0" / "0000.bin", root / "endian"],
        "config": configs,
        "out": [root / "out", root / "out" / "deep" / "file", root / "endian"],
        "int": ["1", "2", "3", "8", "16", "300"],
        "float": ["1", "10", "1e10", "0.5"],
        "list": ["16,32", "8", "8,16,32", "1,2,4", "1e3,10"],
    }
    return root, {kind: [str(v) for v in values] for kind, values in kinds.items()}


def _value_kind(action) -> str:
    for suffix in ("corpus", "labels", "model", "binary", "config"):
        if action.dest.endswith(suffix):
            return suffix
    if action.dest in ("out", "report", "csv"):
        return "out"
    if action.dest in ("widths", "grid"):
        return "list"
    return "float" if action.type is cli._positive_float else "int"


@st.composite
def cli_argv(draw, kinds):
    """A command, its positionals, every flag it requires and some others,
    each with a value of its kind, or now and then junk (never for an
    output path, which must stay inside the workspace)."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    actions = [a for a in _COMMANDS[command]._actions if a.dest != "help"]
    chosen = [a for a in actions if not a.option_strings or a.required]
    optional = [a for a in actions if a not in chosen]
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), max_size=5, unique_by=id))
    words = []  # each action's flag and value, kept together when shuffled
    for action in chosen:
        flag = [draw(st.sampled_from(action.option_strings))] if action.option_strings else []
        if action.nargs == 0:
            words.append(flag)
            continue
        kind = _value_kind(action)
        values = list(action.choices or kinds[kind])
        if kind != "out" and draw(st.sampled_from([False] * 9 + [True])):
            values = JUNK_VALUES
        words.append(flag + [draw(st.sampled_from(values))])
    return [command, *(word for group in draw(st.permutations(words)) for word in group)]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_main_exits_0_1_or_2_with_one_error_line(fuzz_workspace, data):
    root, kinds = fuzz_workspace
    argv = data.draw(cli_argv(kinds))
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(root)  # relative paths in argv resolve inside the workspace
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse: usage errors, --help
                code = exc.code
    finally:
        os.chdir(here)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, stderr)
    assert "Traceback" not in stderr
    if code != 0:
        assert len([line for line in stderr.splitlines() if "error" in line]) == 1, (argv, stderr)


# ----------------------------------------------------------------------
# Parity: main parses with the named command's parser alone, and must
# exit, print and fail as the full parser does.
# ----------------------------------------------------------------------

def full_parser_main(argv):
    """main's parsing on the full build_parser() tree: every --config
    command's required flags wait for a second parse, which sees the file's
    flags placed right after the command."""
    parser, subparsers = cli.build_parser()
    deferred = [a for p in subparsers.values() if "--config" in p._option_string_actions
                for a in p._actions if a.required and a.option_strings]
    for action in deferred:
        action.required = False
    args = parser.parse_args(argv)
    for action in deferred:
        action.required = True
    if getattr(args, "config", None):
        at = argv.index(args.command) + 1
        argv[at:at] = cli._config_flags(args.config, subparsers[args.command])
    args = parser.parse_args(argv)
    return cli.COMMANDS[args.command].run(args)


# An argv after its command that each command parses without error.
PARITY_ARGV = {
    "synth": ["endian", "--files", "2", "--len", "64", "--out", "o"],
    "evaluate": ["--task", "endianness", "--feature", "endsig", "--corpus", "c", "--labels", "l"],
    "gridsearch": ["lag", "--task", "isvar", "--corpus", "c", "--labels", "l"],
    "train": ["--corpus", "c", "--labels", "l", "--out", "o"],
    "predict": ["--endian-model", "e", "--isvar-model", "i", "--width-model", "w", "b"],
    "export-curves": ["--lag", "16", "--corpus", "c", "--labels", "l"],
    "stats": ["--labels", "l", "--corpus", "c"],
}
assert sorted(PARITY_ARGV) == sorted(cli.COMMANDS)


def _parity_cases():
    yield from ([], ["--help"], ["-h", "predict"], ["--version"], ["frobnicate"], ["--bogus"])
    for name, valid in PARITY_ARGV.items():
        yield from ([name], [name, "--help"], [name, *valid], [name, *valid, "extra"],
                    [name, *valid, "--bogus=1"], [name, *valid, "--class", "knn1"],
                    [name, *valid, "--conf", "parity.conf"])
        if "--labels" in valid:  # the file supplies it: required by evaluate, gridsearch, ...
            at = valid.index("--labels")
            yield [name, *valid[:at], *valid[at + 2:], "--conf=parity.conf"]
        for action in _COMMANDS[name]._actions:
            if action.choices and action.option_strings:
                yield [name, *valid, action.option_strings[-1], "bogus"]
            elif action.choices:
                yield [name, "bogus", *valid[1:]]


@pytest.mark.parametrize("argv", list(_parity_cases()), ids=" ".join)
def test_command_parser_matches_full_parser(argv, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "parity.conf").write_text("cap=2\nlabels=from-config.csv\n")
    for name, command in cli.COMMANDS.items():  # each command returns what it parsed
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(
            run=lambda args: sorted((k, v) for k, v in vars(args).items() if k != "command")))

    def outcome(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = call(list(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    assert outcome(cli.main) == outcome(full_parser_main)


def test_a_run_that_succeeds_builds_no_full_parser(models_dir, endian_corpus, monkeypatch,
                                                  tmp_path, capsys):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    query = le_fixed32_query(tmp_path / "query.bin")
    assert cli.main(["predict", *(arg for _, prefix, _ in cli.STAGES for arg in
                                  (f"--{prefix}-model", str(models_dir / f"{prefix}.model"))),
                     str(query)]) == 0
    cfg = tmp_path / "run.conf"
    cfg.write_text("task=endianness\nclassifier=knn1\n")
    assert cli.main(["evaluate", "--config", str(cfg), "--feature", "endsig",
                     "--corpus", str(endian_corpus),
                     "--labels", str(endian_corpus / "labels.csv")]) == 0
    assert cli.main(["evaluate", "--task", "endianness", "--feature", "endsig",
                     "--corpus", str(endian_corpus),
                     "--labels", str(endian_corpus / "labels.csv")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[0])["endianness"] == "LE"
    assert "classifier: knn1" in out and "classifier: knn3" in out


@pytest.fixture(scope="module")
def large_binary(tmp_path_factory):
    """A 1 MiB + 3 B binary: the kernels split it over many chunks or blocks
    and a ragged last one."""
    manifest = generate_synthetic_fixedwidth([32], 1, 1, (1 << 20) + 3, 0, seed=3)
    path = tmp_path_factory.mktemp("large") / "large.bin"
    path.write_bytes(manifest.samples[0].load().data)
    return path


@pytest.fixture(scope="module")
def lag1024_models(tmp_path_factory, endian_corpus, size_corpus):
    """Stage models at lag 1024: predict on the large binary takes the FFT
    path over many blocks."""
    out = tmp_path_factory.mktemp("lag1024")
    proc = run_cli("train", "--endian-corpus", endian_corpus, "--size-corpus", size_corpus,
                   "--isvar-lag", 1024, "--width-lag", 1024, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out


def predict_argv(models: Path, binary: Path) -> list[str]:
    return ["predict", *(arg for _, prefix, _ in cli.STAGES
                         for arg in (f"--{prefix}-model", str(models / f"{prefix}.model"))),
            str(binary)]


def test_a_helpers_memory_error_exits_1_with_one_line(models_dir, large_binary, monkeypatch,
                                                     capsys):
    # np.matmul fails on the kernel's helper threads only; the caller's
    # first product waits until a helper has failed.
    monkeypatch.setattr(features, "_cpus", lambda: 4)
    failed = threading.Event()
    matmul = np.matmul

    def failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            failed.set()
            raise MemoryError("helper")
        failed.wait(timeout=30)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_off_the_main_thread)
    before = threading.active_count()
    assert cli.main(predict_argv(models_dir, large_binary)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory: helper\n"
    assert threading.active_count() == before


# Runs one CLI command pinned to one CPU, where starting a thread fails.
ONE_CPU = """
import os, sys, threading
os.sched_setaffinity(0, {{{cpu}}})

def refuse(thread):
    raise AssertionError("a helper thread started")

threading.Thread.start = refuse
from isatraits.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("models", ["models_dir", "lag1024_models"])
def test_one_cpu_starts_no_helper_and_prints_the_same_bytes(models, large_binary, request):
    argv = predict_argv(request.getfixturevalue(models), large_binary)
    code = ONE_CPU.format(cpu=min(os.sched_getaffinity(0)))
    pinned = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True)
    free = subprocess.run([sys.executable, "-m", "isatraits.cli", *argv], capture_output=True)
    assert (pinned.returncode, pinned.stderr) == (0, b""), pinned.stderr
    assert (free.returncode, free.stderr) == (0, b""), free.stderr
    assert pinned.stdout == free.stdout and json.loads(free.stdout)

