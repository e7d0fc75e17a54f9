"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads, defines the e2e metrics)

cli = run.import_package()

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import (  # noqa: E402
    SIZES,
    WORKLOADS,
    Call,
    Malformed,
    Op,
    Prepared,
    SetupContext,
    Workload,
    check_predict,
    check_report,
    task_truth,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_metric_emitted_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lag-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def suite_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("suite")
    return WORKLOADS["suite-logocv"].setup(SetupContext(SIZES["tiny"], 1, work, cli.main))


def test_wrong_ground_truth_lowers_report_accuracy(suite_inputs):
    call = suite_inputs.probe  # evaluate --task isvar --classifier logreg
    right = run.run_op(cli.main, Op("probe", (call,), 0))
    assert right.error is None

    report = Path(call.argv[call.argv.index("--report") + 1])
    from isatraits.corpus import generate_synthetic_fixedwidth

    widths, per_width, files, length, variable = SIZES["tiny"].corpus
    manifest = generate_synthetic_fixedwidth(widths, per_width, files, length, variable, 1)
    truth = task_truth(manifest, "isvar")
    files_per_isa = manifest.counts_per_isa()
    assert check_report(report, "isvar", truth, files_per_isa) == right.score

    # Relabel an ISA the model got fully right: its fold must now score 0.
    folds = json.loads(report.read_text(encoding="utf-8"))["per_fold"]
    isa = next(f["isa"] for f in folds if f["accuracy"] == 1.0)
    wrong = dict(truth)
    wrong[isa] = "variable" if wrong[isa] == "fixed" else "fixed"
    lowered = run.run_op(cli.main, Op("probe", (
        Call(call.argv, lambda out: check_report(report, "isvar", wrong, files_per_isa), 1),), 0))
    assert lowered.error is None
    assert lowered.score < right.score


def test_wrong_ground_truth_lowers_predict_accuracy():
    out = json.dumps({"endianness": "LE", "size_kind": "fixed", "fixed_bits": 32,
                      "per_stage_details": {"endianness": {}, "isvar": {}, "fixedwidth": {}}})
    assert check_predict(out, {"size_kind": "fixed", "fixed_bits": 32}) == 2.0
    assert check_predict(out, {"size_kind": "fixed", "fixed_bits": 16}) == 1.0
    assert check_predict(out, {"endianness": "BE"}) == 0.0


def test_malformed_predict_output_is_rejected():
    with pytest.raises(Malformed):
        check_predict('{"endianness": "LE", "size_kind": "fixed"}', {})
    with pytest.raises(Malformed):
        check_predict("not json", {})


def test_failing_op_raises_error_rate(suite_inputs, tmp_path):
    good = suite_inputs.probe
    missing = [a if a != good.argv[good.argv.index("--corpus") + 1] else str(tmp_path / "nope")
               for a in good.argv]
    failing = Op("missing-corpus", (Call(missing, good.check, 1),), 1)

    result = run.run_op(cli.main, failing)
    assert result.error is not None and result.score == 0.0 and result.weight == 1

    def setup(ctx):
        return Prepared([Op("ok", (good,), 1), failing], good)

    workload = Workload("mixed", "one good op and one failing op", {}, setup)
    record = run.measure_e2e(cli, workload, SIZES["tiny"], 1, 0.01, tmp_path / "work")
    assert record["failed"] >= 1
    assert record["failed"] / record["attempted"] > 0
    assert record["metrics"]["accuracy"] < 1.0


def test_check_tripping_on_odd_output_fails_the_op_not_the_run():
    op = Op("version", (Call(["--version"], lambda out: out["accuracy"], 1),), 0)
    result = run.run_op(cli.main, op)
    assert result.error is not None and "TypeError" in result.error
