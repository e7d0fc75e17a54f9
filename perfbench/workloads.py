"""The benchmark's workloads: inputs, ops and the checks on each op's output.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. An op is one or more ``isatraits.cli.main``
calls, made in process with the argv a user would type. All inputs come
from the package's public generators, seeded by the benchmark's --seed.

Each call has a check that parses what the command printed or wrote. A
malformed output raises ``Malformed`` (the op then counts as failed); a
well-formed output returns a score in [0, weight] scored against the
generators' ground truth where the output allows it, so a wrong answer
lowers accuracy instead of being dropped.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from isatraits.corpus import (
    CorpusManifest,
    IsaLabel,
    SizeKind,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    write_corpus,
)

from tracing import SUITE_NAMES

DEFAULT_LAG_GRID = (16, 32, 64, 128, 256, 512, 1024)


class Malformed(Exception):
    """An op's output does not have the shape its command promises."""


# A check parses what the program wrote; output of the wrong shape can fail
# it with any of these as well, and counts as malformed like Malformed.
PARSE_ERRORS = (Malformed, KeyError, IndexError, TypeError, ValueError, AttributeError)


class SetupError(Exception):
    """Set-up could not produce the workload's inputs."""


@dataclass(frozen=True)
class Size:
    """Input sizes. "full" is the benchmark; "tiny" only exercises the code paths."""

    corpus: tuple  # generate_synthetic_fixedwidth(widths, isas_per_width, files, len, variable)
    endian: tuple  # generate_synthetic_endian(isas_per_class, files, len)
    grid: tuple[int, ...]
    # Distinct inputs in one cycle of ops: corpora for lag-sweep and
    # suite-logocv, six-binary mixes for predict-large. Accuracy averages
    # over all of them, so it depends less on one seed's draw.
    lag_corpora: int
    suite_corpora: int
    mixes: int
    mix_len: int
    probe_len: int
    cold_reps: int


SIZES = {
    "full": Size(([16, 32, 64], 3, 10, 8192, 5), (4, 20, 65536), DEFAULT_LAG_GRID,
                 lag_corpora=4, suite_corpora=9, mixes=2, mix_len=4 << 20, probe_len=64 << 10,
                 cold_reps=11),
    "tiny": Size(([16, 32, 64], 2, 2, 2048, 2), (2, 3, 4096), (16, 32),
                 lag_corpora=2, suite_corpora=2, mixes=2, mix_len=64 << 10, probe_len=4 << 10,
                 cold_reps=1),
}

# Set-up repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds
# of set-up have passed, so that cheap set-ups get a steady median too.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25
# The k-th further input made from one --seed uses derived_seed(seed, k).
SEED_STRIDE = 1_000_003


def derived_seed(seed: int, k: int) -> int:
    return seed + k * SEED_STRIDE


@dataclass(frozen=True)
class Call:
    """One cli.main invocation; check(stdout) scores it out of weight."""

    argv: list[str]
    check: Callable[[str], float]
    weight: int


@dataclass(frozen=True)
class Op:
    label: str  # ops with one label do the same work on different inputs
    calls: tuple[Call, ...]
    input_bytes: int

    @property
    def weight(self) -> int:
        return sum(call.weight for call in self.calls)


@dataclass
class Prepared:
    """What set-up leaves for the timed loop: one cycle of ops, and the
    workload's smallest command (the probe). The probe runs once in process
    as the warm-up, and in fresh processes for cold_start_s."""

    cycle: list[Op]
    probe: Call


# ----------------------------------------------------------------------
# Ground truth and output checks
# ----------------------------------------------------------------------

def known_traits(label: IsaLabel) -> dict:
    """The traits a generator label fixes; unknown ones are not scored."""
    traits: dict = {}
    if label.endianness.value in ("LE", "BE"):
        traits["endianness"] = label.endianness.value
    if label.inst_size.kind in (SizeKind.FIXED, SizeKind.VARIABLE):
        traits["size_kind"] = label.inst_size.kind.value
    if label.inst_size.kind is SizeKind.FIXED:
        traits["fixed_bits"] = label.inst_size.fixed_bits
    return traits


def task_truth(manifest: CorpusManifest, task: str) -> dict[str, str]:
    """ISA name -> class for the ISAs a task can use."""
    key = {"isvar": "size_kind", "fixedwidth": "fixed_bits"}[task]
    truth = {}
    for isa, label in manifest.registry.items():
        traits = known_traits(label)
        if key in traits:
            truth[isa] = str(traits[key])
    return truth


def _unit_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Malformed(f"{what}: {text!r} is not a number") from None
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise Malformed(f"{what}: {value!r} is outside [0, 1]")
    return value


def check_grid(stdout: str, grid: tuple[int, ...]) -> float:
    """`gridsearch lag` prints the best lag, then a param,accuracy table
    with one row per grid lag in ascending order. Returns the sum of the
    row accuracies (weight: one per lag)."""
    lines = stdout.splitlines()
    expected_lags = sorted(grid)
    if len(lines) != len(grid) + 2 or not lines[0].startswith("best lag: "):
        raise Malformed(f"gridsearch output has {len(lines)} lines, expected {len(grid) + 2}")
    if lines[1] != "param,accuracy":
        raise Malformed(f"gridsearch table header {lines[1]!r}")
    rows = []
    for line in lines[2:]:
        param, _, acc = line.partition(",")
        rows.append((param, _unit_float(acc, f"accuracy at lag {param}")))
    if [p for p, _ in rows] != [str(lag) for lag in expected_lags]:
        raise Malformed(f"gridsearch lags {[p for p, _ in rows]} != {expected_lags}")
    best_acc = max(acc for _, acc in rows)
    best = next(p for p, acc in rows if acc == best_acc)  # ties go to the smaller lag
    if lines[0] != f"best lag: {best}":
        raise Malformed(f"{lines[0]!r} but the table's best is lag {best}")
    return sum(acc for _, acc in rows)


def check_report(path: Path, task: str, truth: dict[str, str], files_per_isa: dict[str, int]) -> float:
    """An `evaluate --report` JSON: every fold present, accuracies in [0, 1]
    and consistent with the confusion counts. Returns the LOGOCV feature
    accuracy recomputed from the confusion counts against truth."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        folds = report["per_fold"]
        reported = report["feature_accuracy"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Malformed(f"report {path.name}: {exc}") from None
    if report.get("task") != task:
        raise Malformed(f"report task {report.get('task')!r} != {task!r}")
    isas = [fold.get("isa") for fold in folds]
    if sorted(isas) != sorted(truth) or len(set(isas)) != len(isas):
        raise Malformed(f"report folds {isas} != one per ISA of {sorted(truth)}")
    scored = []
    for fold in folds:
        isa = fold["isa"]
        accuracy = _unit_float(str(fold.get("accuracy")), f"fold {isa} accuracy")
        confusion = fold.get("confusion", {})
        n_test = sum(n for row in confusion.values() for n in row.values())
        if fold.get("n_test") != files_per_isa[isa] or n_test != files_per_isa[isa]:
            raise Malformed(f"fold {isa}: {fold.get('n_test')} / {n_test} test samples, "
                            f"expected {files_per_isa[isa]}")
        agreed = sum(row.get(true, 0) for true, row in confusion.items())
        if abs(agreed / n_test - accuracy) > 1e-12:
            raise Malformed(f"fold {isa}: accuracy {accuracy} disagrees with its confusion")
        scored.append(sum(row.get(truth[isa], 0) for row in confusion.values()) / n_test)
    reported = _unit_float(str(reported), "feature_accuracy")
    if abs(reported - sum(f["accuracy"] for f in folds) / len(folds)) > 1e-9:
        raise Malformed("feature_accuracy is not the mean of the fold accuracies")
    return sum(scored) / len(scored)


def check_predict(stdout: str, truth: dict) -> float:
    """`predict` prints one JSON object. Returns how many of the binary's
    known traits it got right (weight: len(truth))."""
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise Malformed(f"predict output is not JSON: {exc}") from None
    if not isinstance(payload, dict) or len(stdout.strip().splitlines()) != 1:
        raise Malformed("predict output is not a single JSON object line")
    if payload.get("endianness") not in ("LE", "BE"):
        raise Malformed(f"endianness {payload.get('endianness')!r}")
    kind = payload.get("size_kind")
    if kind not in ("fixed", "variable"):
        raise Malformed(f"size_kind {kind!r}")
    bits = payload.get("fixed_bits")
    if (kind == "fixed") != isinstance(bits, int) or (bits is not None and bits <= 0):
        raise Malformed(f"fixed_bits {bits!r} with size_kind {kind!r}")
    stages = payload.get("per_stage_details")
    expected = {"endianness", "isvar"} | ({"fixedwidth"} if kind == "fixed" else set())
    if not isinstance(stages, dict) or set(stages) != expected:
        raise Malformed(f"per_stage_details stages {sorted(stages or {})} != {sorted(expected)}")
    return float(sum(payload.get(trait) == value for trait, value in truth.items()))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class SetupContext:
    """What one set-up gets, and the seconds it spent writing corpora to
    disk. setup_s leaves those out: on a shared virtual disk the same writes
    took from 0.04 s to 0.8 s from one minute to the next, far more than
    the work they stage."""

    size: Size
    seed: int
    work: Path
    main: Callable
    requests: Path | None = None
    write_s: float = 0.0

    def write(self, manifest: CorpusManifest, out: Path) -> Path:
        start = time.perf_counter()
        try:
            return write_corpus(manifest, out)
        finally:
            self.write_s += time.perf_counter() - start


def _size_corpus(ctx: SetupContext, seed: int, out: Path) -> tuple[CorpusManifest, list[str], int]:
    """Write one size corpus; returns its manifest, the --corpus/--labels
    flags and its total bytes."""
    widths, per_width, files, length, variable = ctx.size.corpus
    manifest = generate_synthetic_fixedwidth(widths, per_width, files, length, variable, seed)
    labels = ctx.write(manifest, out)
    total = sum(len(ref.data) for ref in manifest.samples)
    return manifest, ["--corpus", str(out), "--labels", str(labels)], total


def setup_lag_sweep(ctx: SetupContext) -> Prepared:
    grid = ctx.size.grid
    grid_flags = [] if grid == DEFAULT_LAG_GRID else ["--grid", ",".join(map(str, grid))]
    sweep = ["gridsearch", "lag", "--task", "isvar", "--classifier", "knn3"]
    cycle = []
    for k in range(ctx.size.lag_corpora):
        _, corpus, total = _size_corpus(ctx, derived_seed(ctx.seed, k), ctx.work / f"size{k}")
        call = Call([*sweep, *grid_flags, *corpus], lambda out: check_grid(out, grid), len(grid))
        cycle.append(Op("gridsearch-lag", (call,), total))
        if k == 0:
            probe = Call([*sweep, "--grid", "16", *corpus], lambda out: check_grid(out, (16,)), 1)
    return Prepared(cycle, probe)


def _evaluate_call(manifest: CorpusManifest, corpus: list[str], task: str, classifier: str,
                   report: Path) -> Call:
    argv = ["evaluate", "--task", task, "--feature", "autocorr", "--lag", "16",
            "--classifier", classifier, "--jobs", "1", *corpus, "--report", str(report)]
    truth = task_truth(manifest, task)
    files_per_isa = manifest.counts_per_isa()
    return Call(argv, lambda out: check_report(report, task, truth, files_per_isa), 1)


def setup_suite_logocv(ctx: SetupContext) -> Prepared:
    reports = ctx.work / "reports"
    reports.mkdir()
    cycle = []
    for k in range(ctx.size.suite_corpora):
        manifest, corpus, total = _size_corpus(ctx, derived_seed(ctx.seed, k),
                                               ctx.work / f"size{k}")
        calls = tuple(
            _evaluate_call(manifest, corpus, task, classifier,
                           reports / f"{k}-{classifier}-{task}.json")
            for classifier in SUITE_NAMES
            for task in ("isvar", "fixedwidth")
        )
        cycle.append(Op("evaluate-suite", calls, total))
        if k == 0:
            probe = _evaluate_call(manifest, corpus, "isvar", "logreg", reports / "probe.json")
    return Prepared(cycle, probe)


def make_mixes(size: Size, seed: int, out: Path, env: dict) -> dict:
    """Write the predict-large binaries once per run; they are the requests,
    not set-up. The 4 MiB generators peak far above one predict op, so they
    run in a child process and do not set this process's peak RSS."""
    out.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mix.py")), "--seed", str(seed),
         "--mixes", str(size.mixes), "--len", str(size.mix_len),
         "--probe-len", str(size.probe_len), "--out", str(out)],
        env=env, check=True, timeout=150, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / "truth.json").read_text(encoding="utf-8"))


def setup_predict_large(ctx: SetupContext) -> Prepared:
    size, mixes = ctx.size, ctx.requests
    endian_dir, size_dir, models = ctx.work / "endian", ctx.work / "size", ctx.work / "models"
    isas, files, length = size.endian
    ctx.write(generate_synthetic_endian(isas, files, length, ctx.seed), endian_dir)
    _size_corpus(ctx, ctx.seed, size_dir)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = ctx.main(["train", "--endian-corpus", str(endian_dir), "--size-corpus", str(size_dir),
                   "--out", str(models)])
    if rc != 0:
        raise SetupError(f"train exited with {rc}: {out.getvalue().strip()[-300:]}")
    truths = json.loads((mixes / "truth.json").read_text(encoding="utf-8"))
    model_flags = ["--endian-model", str(models / "endian.model"),
                   "--isvar-model", str(models / "isvar.model"),
                   "--width-model", str(models / "width.model")]

    def predict_call(name: str) -> Call:
        truth = truths[name]
        return Call(["predict", *model_flags, str(mixes / f"{name}.bin")],
                    lambda out: check_predict(out, truth), len(truth))

    cycle = [Op(f"predict:{kind}", (predict_call(f"m{k}_{kind}"),),
                (mixes / f"m{k}_{kind}.bin").stat().st_size)
             for k in range(size.mixes) for kind in MIX_KINDS]
    return Prepared(cycle, predict_call(PROBE_NAME))


# generate_synthetic_fixedwidth([16, 32, 64], 1, 1, len, 1, s) and
# generate_synthetic_endian(1, 1, len, s) name their six binaries so.
MIX_KINDS = ("synthW16_0", "synthW32_0", "synthW64_0", "synthVAR_0", "synthLE_0", "synthBE_0")
PROBE_NAME = "probe_synthW32_0"

SIZE_CORPUS = "generate_synthetic_fixedwidth([16,32,64], 3, 10, 8192, 5, {seed})"
K_SEEDS = f"seed + k*{SEED_STRIDE}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generators: dict
    setup: Callable[[SetupContext], Prepared]
    # Made once per run before set-up, untimed: the requests set-up does not own.
    make_requests: Callable[[Size, int, Path, dict], object] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lag-sweep",
            "gridsearch lag over lags 16..1024: the per-lag autocorrelation loop and "
            "repeated sample loads dominate, so feature-kernel and extract-once work shows here",
            {"corpora": SIZE_CORPUS.format(seed=K_SEEDS) + ", k = 0..3, one op each",
             "probe": "gridsearch lag --grid 16 on corpus k = 0"},
            setup_lag_sweep,
        ),
        Workload(
            "suite-logocv",
            "evaluate all 7 classifiers x 2 tasks at lag 16: fitting dominates and extraction "
            "is cheap, so tree and solver work shows here and a feature kernel barely moves it",
            {"corpora": SIZE_CORPUS.format(seed=K_SEEDS) + ", k = 0..8, one op each",
             "probe": "evaluate --classifier logreg --task isvar on corpus k = 0"},
            setup_suite_logocv,
        ),
        Workload(
            "predict-large",
            "two-stage predict on 4 MiB binaries with trained models: few huge inputs through "
            "the bigram and autocorrelation paths and model loads, with no fitting or LOGOCV",
            {
                "endian_corpus": "generate_synthetic_endian(4, 20, 65536, seed)",
                "size_corpus": SIZE_CORPUS.format(seed="seed"),
                "models": "train with its defaults on the two corpora",
                "mixes": "generate_synthetic_fixedwidth([16,32,64], 1, 1, 4 MiB, 1, m) and "
                         f"generate_synthetic_endian(1, 1, 4 MiB, m), m = seed + k*{SEED_STRIDE}"
                         ", k = 1, 2",
                "probe": "predict on generate_synthetic_fixedwidth([32], 1, 1, 64 KiB, 0, m), "
                         f"m = seed + {SEED_STRIDE}",
            },
            setup_predict_large,
            make_mixes,
        ),
    )
}


def prepare(workload: Workload, size: Size, seed: int, work: Path, main, env: dict,
            min_reps: int = SETUP_MIN_REPS, min_seconds: float = SETUP_MIN_S):
    """Make the requests once, then set up into an emptied directory
    min_reps times or more, until min_seconds have been spent. Returns the
    last set-up's result and each set-up's seconds, without disk writes."""
    requests = None
    if workload.make_requests is not None:
        requests = work / "requests"
        workload.make_requests(size, seed, requests, env)
    seconds: list[float] = []
    while len(seconds) < min_reps or (sum(seconds) < min_seconds
                                      and len(seconds) < SETUP_MAX_REPS):
        shutil.rmtree(work / "setup", ignore_errors=True)
        (work / "setup").mkdir(parents=True)
        ctx = SetupContext(size, seed, work / "setup", main, requests)
        start = time.perf_counter()
        prepared = workload.setup(ctx)
        seconds.append(time.perf_counter() - start - ctx.write_s)
    return prepared, seconds
