"""isatraits benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {lag-sweep,suite-logocv,predict-large} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root. The package is imported from ./src (never
from an installed copy); without it the run exits 2 and prints no result.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced ops and reports the per-layer metrics from
the traced ones, plus the tracing overhead (traced minus untraced op time).
--size tiny shrinks every input so the test suite can run all code paths
in seconds; its numbers mean nothing.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Details (environment, per-op times, spans) go to
.bench_out/ under the repository root.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads: with one BLAS thread the process runs
# on one thread, within any nproc, and results do not depend on the pool size.
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

E2E_UNITS = {
    "wall_s": "s",
    "wall_s.tail": "s",
    "mb_per_s": "MB/s",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cold_start_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a result; it exits non-zero without one."""


def import_package():
    """Import isatraits from ./src, refusing any other copy."""
    if not (SRC / "isatraits" / "__init__.py").is_file():
        raise BenchError(f"no isatraits package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isatraits.cli

    if SRC.resolve() not in Path(isatraits.__file__).resolve().parents:
        raise BenchError(f"isatraits imported from {isatraits.__file__}, not {SRC}")
    return isatraits.cli


@dataclass
class OpResult:
    label: str
    wall: float
    score: float
    weight: int
    input_bytes: int
    error: str | None = None


def run_op(main, op) -> OpResult:
    """Run an op's cli.main calls in order and check each output. Wall time
    covers the calls only. A failed op scores 0 out of its full weight."""
    from workloads import PARSE_ERRORS

    wall = 0.0
    score = 0.0
    for call in op.calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(call.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises is counted, not fatal
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
        if error is None:
            try:
                score += call.check(out.getvalue())
            except PARSE_ERRORS as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        if error is not None:
            return OpResult(op.label, wall, 0.0, op.weight, op.input_bytes,
                            f"{' '.join(call.argv[:2])}: {error}")
    return OpResult(op.label, wall, score, op.weight, op.input_bytes)


def timed_loop(cycle, seconds: float, run_one, between=lambda: None) -> list:
    """Closed loop, one client: whole cycles of ops until the ops have taken
    `seconds`. between() runs after each op, outside the measured time."""
    results = []
    busy = 0.0
    while True:
        for op in cycle:
            start = time.perf_counter()
            results.append(run_one(op))
            busy += time.perf_counter() - start
            between()
        if busy >= seconds:
            return results


def tail(walls: list[float]) -> float:
    """p75 of the op times, interpolated between order statistics. A run of
    one cycle holds 4 to 12 ops, too few for any percentile to have ten
    samples beyond it; over ten runs p90 spread twice as far as p75."""
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=4, method="inclusive")[-1]


def cold_start(probe, env: dict) -> tuple[float, str | None]:
    """Seconds for a fresh `python -m isatraits.cli` process to answer the probe."""
    from workloads import PARSE_ERRORS

    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "isatraits.cli", *probe.argv],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "cold start timed out"
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, f"cold start exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        probe.check(proc.stdout)
    except PARSE_ERRORS as exc:
        return seconds, f"cold start malformed output: {type(exc).__name__}: {exc}"
    return seconds, None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_e2e(cli, workload, size, seed: int, seconds: float, work: Path) -> dict:
    from workloads import Op, prepare

    env = child_env()
    prepared, setup_reps = prepare(workload, size, seed, work, cli.main, env)
    warm = run_op(cli.main, Op("warm-up", (prepared.probe,), 0))
    colds: list[tuple[float, str | None]] = []
    per_op = -(-size.cold_reps // len(prepared.cycle))

    def next_cold_starts() -> None:
        # Spread over the first cycle, cold starts see the same machine load
        # as the ops, from the run's start to its end.
        for _ in range(min(per_op, size.cold_reps - len(colds))):
            colds.append(cold_start(prepared.probe, env))

    # The loop runs at least one whole cycle, so all cold starts are made.
    timed = timed_loop(prepared.cycle, seconds, lambda op: run_op(cli.main, op), next_cold_starts)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [r.wall for r in timed]
    by_op: dict[str, list[float]] = {}
    for r in timed:
        by_op.setdefault(r.label, []).append(r.wall)
    errors = [r.error for r in [warm, *timed] if r.error] + [e for _, e in colds if e]
    attempted = 1 + len(timed) + len(colds)
    metrics = {
        # A cycle mixes ops of different cost (predict-large: fixed-width
        # binaries take two stages more), so the median is taken per op of
        # the cycle and averaged over the cycle, not across the mix.
        "wall_s": statistics.fmean(statistics.median(v) for v in by_op.values()),
        "wall_s.tail": tail(walls),
        "mb_per_s": sum(r.input_bytes for r in timed) / 1e6 / sum(walls),
        "accuracy": sum(r.score for r in timed) / sum(r.weight for r in timed),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_reps),
        # A single cold start lands in one of the shared host's two speed
        # modes; over ten runs the median of 7 jumped between them and spread
        # up to 0.24, the mean 0.17. Seven starts, one after each op and
        # the rest back to back, spread 0.27 once on lag-sweep; 11 spread
        # evenly over the whole cycle follow the host's drift less.
        "cold_start_s": statistics.fmean(s for s, _ in colds),
    }
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "summary": [
            f"wall_s.tail is p75 of {len(walls)} timed ops",
            f"error_rate: {len(errors) / attempted:.4f} ({len(errors)}/{attempted} ops, "
            f"counting 1 warm-up and {len(colds)} cold starts)",
        ],
        "ops": [(r.label, r.wall, r.error) for r in timed],
        "setup_reps_s": setup_reps,
        "cold_starts_s": [s for s, _ in colds],
    }


def measure_layers(cli, workload, size, seed: int, seconds: float, work: Path) -> dict:
    from tracing import LAYERS, MOVES, PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import Op, prepare

    env = child_env()
    # Set up once: setup_s is an end-to-end metric, measured with tracing off.
    prepared, _ = prepare(workload, size, seed, work, cli.main, env, 1, 0.0)
    warm = run_op(cli.main, Op("warm-up", (prepared.probe,), 0))
    # One op of each label: per-op layer numbers need every kind of op, not
    # every input the untraced run spreads accuracy over.
    cycle = list({op.label: op for op in reversed(prepared.cycle)}.values())[::-1]

    tracer = Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main", None)
    op_ids: list[int] = []

    def pair(op):
        plain = run_op(cli.main, op)
        tracer.op = len(op_ids)
        op_ids.append(tracer.op)
        tracer.install()
        try:
            with tracer.span("bench.op"):
                traced = run_op(traced_main, op)
        finally:
            tracer.uninstall()
            tracer.op = None
        return plain, traced

    pairs = timed_loop(cycle, seconds, pair)
    overhead = statistics.fmean(t.wall - p.wall for p, t in pairs)
    metrics = layer_metrics(tracer, op_ids, overhead)
    results = [warm, *(r for p in pairs for r in p)]
    errors = [r.error for r in results if r.error]
    # The cli layer's only span is main, so its self time is cli.main.self_s.
    layer_self = sum(metrics["cli.main.self_s" if layer == "cli" else f"{layer}.self_s"]
                     for layer in LAYERS)
    return {
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "attempted": len(results),
        "failed": len(errors),
        "errors": errors,
        "summary": [
            f"traced ops: {len(pairs)}, each paired with an untraced run of the same op",
            f"layer self times sum to {layer_self:.4f} s of {metrics['trace.op_s']:.4f} s per op; "
            f"unaccounted {metrics['trace.unaccounted_s']:.6f} s; "
            f"tracing overhead {overhead:.4f} s per op",
            f"unwrapped names (absent in this version): {tracer.missing or 'none'}",
        ],
        "ops": [(p.label, p.wall, t.wall, t.error or p.error) for p, t in pairs],
        "moves": MOVES,
        "spans": [s.to_dict() for s in tracer.spans],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="isatraits benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        cli = import_package()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import SIZES, WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    measure = measure_layers if args.trace else measure_e2e
    try:
        record = measure(cli, workload, size, args.seed, args.seconds, work)
    except (SetupError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    env = environment()
    record.update(workload=workload.name, why=workload.why, generators=workload.generators,
                  seed=args.seed, seconds=args.seconds, trace=args.trace, size=args.size, env=env)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {workload.name}  seed: {args.seed}  trace: {args.trace}  size: {args.size}")
    for name, value in record["metrics"].items():
        print(f"{name}: {value:.6g} {record['units'][name]}")
    for line in record["summary"] + [f"error: {e}" for e in record["errors"]]:
        print(line)
    print(f"details: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
