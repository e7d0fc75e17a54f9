"""Command-line interface.

Subcommands: synth (generate synthetic corpora), evaluate (LOGOCV run),
gridsearch (c or lag sweep), train (fit the three stage models), predict
(two-stage classification of one binary), export-curves (mean
autocorrelation per class), stats (label counts and baselines).

Exit codes: 0 success, 1 runtime/data error, 2 usage error. A --config
file's key=value lines are read as flags placed before the command line's
own, so argparse checks them and any explicit flag overrides them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .classify import SUITE_NAMES, fit, load_model, save_model, spec_from_name
from .corpus import (
    CorpusManifest,
    SampleRef,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    manifest_summary,
    parse_label_registry,
    scan_corpus,
    write_corpus,
)
from .errors import EmptyLabelList, IsaTraitsError
from .evaluate import (
    AUTOCORR,
    DEFAULT_AUTOCORR_LAGS,
    DEFAULT_C_GRID,
    DEFAULT_LAG_GRID,
    DEFAULT_LOGREG_C,
    FeatureConfig,
    Task,
    compute_baseline,
    eligible_ids,
    extract_features,
    grid_search_c,
    grid_search_lag,
    mean_curve_by_class,
    predict_unknown,
    run_evaluation,
    task_label,
    write_grid_csv,
    write_report_csv,
    write_report_json,
)
from .features import FEATURE_NAMES

TASK_NAMES = tuple(task.value for task in Task)
# The pipeline's stages: (task, prefix of its --<prefix>-* flags and of its
# <prefix>.model file, prefix of its --<corpus>-corpus/--<corpus>-labels flags).
STAGES = (
    (Task.ENDIANNESS, "endian", "endian"),
    (Task.FIXED_VS_VARIABLE, "isvar", "size"),
    (Task.FIXED_WIDTH, "width", "size"),
)
# Folds run serially: a fold's fit and predict are short numpy calls under
# the interpreter lock, so worker threads only contended (a forest
# evaluation took 1.30 s on two threads against 0.83 s on one). --jobs is
# still parsed and checked, and recorded in reports, so that existing
# command lines and config files keep working.
JOBS_HELP = "reserved: accepted (a positive int) and recorded, but folds always run serially"


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# Config files: flat key=value lines, keys named after long flags.
# ----------------------------------------------------------------------

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """A --config file's key=value lines as the flags they name: --key=value
    for a flag that takes a value, the bare flag for a true switch and
    nothing for a false one. Placed before the command line's own flags,
    they lose to any spelling of the same flag there, since argparse keeps
    the last occurrence; argparse also checks their values."""
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags: dict[argparse.Action, str | None] = {}  # a repeated key: its last line wins
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        flag, value = action.option_strings[0], value.strip('"')
        if action.nargs != 0:
            flags[action] = f"{flag}={value}"
        elif value.lower() in _TRUE + _FALSE:
            flags[action] = flag if value.lower() in _TRUE else None
        else:
            raise UsageError(f"argument {flag}: config value {value!r} is not one of "
                             + "/".join(_TRUE + _FALSE))
    return [flag for flag in flags.values() if flag]


def _int_at_least(lowest: int, kind: str):
    """An argparse type: an int >= lowest, else a usage error naming the flag."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {raw!r}")
    return value


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _scan(corpus: str, registry: dict, cap: int | None = None) -> CorpusManifest:
    manifest = scan_corpus(corpus, registry, per_isa_cap=cap)
    for name in manifest.warnings:
        print(f"warning: unknown ISA directory {name!r} skipped", file=sys.stderr)
    return manifest


def _load_manifest(corpus: str, labels: str, cap: int | None) -> CorpusManifest:
    return _scan(corpus, parse_label_registry(labels), cap)


def _resolve_lag(lag: int | None, task: Task, classifier: str, flag: str = "--lag") -> int:
    if lag is not None:
        return lag
    default = DEFAULT_AUTOCORR_LAGS.get((task, classifier))
    if default is None:
        raise UsageError(f"no default lag for task {task.value} with classifier {classifier}; pass {flag}")
    return default


def _resolve_c(c: float | None, task: Task, feature: str) -> float:
    return c if c is not None else DEFAULT_LOGREG_C.get((task, feature), 1.0)


def _class_order(classes, task: Task) -> list[str]:
    """A task's class labels in output order: widths by value, others by name."""
    return sorted(classes, key=int) if task is Task.FIXED_WIDTH else sorted(classes)


def _labels_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_int_list(raw: str, flag: str, as_float: bool = False) -> list:
    cast = float if as_float else int
    try:
        values = [cast(cell) for cell in raw.split(",") if cell.strip()]
    except ValueError:
        raise UsageError(f"{flag}: could not parse {raw!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise UsageError(f"{flag}: values must be positive and finite")
    return values


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.mode == "endian":
        manifest = generate_synthetic_endian(args.isas, args.files, args.len, args.seed)
    else:
        if args.isas_per_width == 0 and args.variable == 0:
            raise UsageError("--isas-per-width 0 with --variable 0 makes an empty corpus")
        widths = _parse_int_list(args.widths, "--widths")
        if any(width % 8 for width in widths):
            raise UsageError(f"--widths: each width must be a multiple of 8 bits, got {args.widths!r}")
        manifest = generate_synthetic_fixedwidth(
            widths, args.isas_per_width, args.files, args.len, args.variable, args.seed
        )
    labels_path = write_corpus(manifest, args.out)
    print(manifest_summary(manifest), end="")
    print(f"labels: {labels_path}")
    return 0


def cmd_evaluate(args) -> int:
    task = Task(args.task)
    lag = _resolve_lag(args.lag, task, args.classifier) if args.feature == AUTOCORR else None
    feature = FeatureConfig(args.feature, lag)
    spec = spec_from_name(
        args.classifier,
        c=_resolve_c(args.c, task, args.feature),
        trees=args.trees,
        seed=args.seed,
        standardize=args.standardize,
    )
    manifest = _load_manifest(args.corpus, args.labels, args.cap)
    report = run_evaluation(manifest, task, feature, spec)

    print(f"task: {task.value}  feature: {feature.name}"
          + (f" (lag {feature.lag})" if feature.lag else "")
          + f"  classifier: {args.classifier}")
    print(f"feature_accuracy: {report.feature_accuracy:.4f}")
    print(f"pooled_accuracy: {report.pooled_accuracy:.4f}")
    print(f"baseline: {report.baseline.most_frequent_count}/{report.baseline.total_count}"
          f" = {report.baseline.baseline:.4f}")
    if report.single_isa_classes:
        print("note: classes represented by a single ISA are unlearnable under LOGOCV: "
              + ", ".join(report.single_isa_classes))

    meta = {
        "version": __version__,
        "labels_sha256": _labels_sha256(args.labels),
        "config": {
            "task": task.value,
            "feature": feature.name,
            "lag": feature.lag,
            "classifier": args.classifier,
            "c": spec.c,
            "trees": spec.trees,
            "standardize": spec.standardize,
            "cap": args.cap,
            "seed": args.seed,
            "jobs": args.jobs,
            "corpus": args.corpus,
            "labels": args.labels,
        },
    }
    if args.report:
        write_report_json(report, args.report, meta)
        print(f"report: {args.report}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            write_report_csv(report, fh)
        print(f"per-fold csv: {args.csv}")
    return 0


def cmd_gridsearch(args) -> int:
    task = Task(args.task)
    if args.mode == "c":
        if args.feature is None:
            raise UsageError("gridsearch c requires --feature")
        lag = _resolve_lag(args.lag, task, "logreg") if args.feature == AUTOCORR else None
        grid = _parse_int_list(args.grid, "--grid", as_float=True) if args.grid else list(DEFAULT_C_GRID)
        manifest = _load_manifest(args.corpus, args.labels, args.cap)
        best, table = grid_search_c(manifest, task, FeatureConfig(args.feature, lag), grid)
        print(f"best c: {best:g}")
    else:
        spec = spec_from_name(args.classifier, c=_resolve_c(args.c, task, AUTOCORR),
                              trees=args.trees, seed=args.seed)
        grid = _parse_int_list(args.grid, "--grid") if args.grid else list(DEFAULT_LAG_GRID)
        manifest = _load_manifest(args.corpus, args.labels, args.cap)
        best, table = grid_search_lag(manifest, task, spec, grid)
        print(f"best lag: {best}")
    write_grid_csv(table, sys.stdout)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_grid_csv(table, fh)
        print(f"table: {args.out}")
    return 0


def cmd_train(args) -> int:
    # Every stage's settings, corpus and labels are resolved before any scan.
    by_corpus: dict[str, tuple] = {}  # corpus flag prefix -> (root, labels, its stages in STAGES order)
    for task, prefix, corpus in STAGES:
        name = getattr(args, f"{prefix}_feature", AUTOCORR)
        classifier = getattr(args, f"{prefix}_classifier")
        lag = (_resolve_lag(getattr(args, f"{prefix}_lag"), task, classifier, f"--{prefix}-lag")
               if name == AUTOCORR else None)
        spec = spec_from_name(classifier, c=_resolve_c(getattr(args, f"{prefix}_c"), task, name),
                              seed=args.seed)
        root = getattr(args, f"{corpus}_corpus") or args.corpus
        if root is None:
            raise UsageError(f"no corpus given for the {prefix} stage: pass --{corpus}-corpus or --corpus")
        labels = getattr(args, f"{corpus}_labels") or args.labels or str(Path(root) / "labels.csv")
        by_corpus.setdefault(corpus, (root, labels, []))[2].append(
            (task, prefix, FeatureConfig(name, lag), spec))

    # Every stage is fitted before any file is written, so a failing stage
    # leaves --out as it was.
    models = []
    for root, labels, stages in by_corpus.values():
        manifest = _load_manifest(root, labels, args.cap)
        ids = {task: eligible_ids(manifest, task) for task, _, _, _ in stages}
        features = extract_features(manifest, {task: (ids[task], feature)
                                               for task, _, feature, _ in stages})
        for task, prefix, feature, spec in stages:
            y = [task_label(manifest.label_of(manifest.samples[i]), task) for i in ids[task]]
            models.append((prefix, fit(spec, features[task], y, feature)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for prefix, model in models:
        save_model(model, out_dir / f"{prefix}.model")
        print(f"wrote {out_dir / f'{prefix}.model'}")
    return 0


def cmd_predict(args) -> int:
    models = [load_model(getattr(args, f"{prefix}_model")) for _, prefix, _ in STAGES]
    result = predict_unknown(SampleRef(args.binary, "unknown").load(), *models)
    payload = {
        "endianness": result.endianness,
        "size_kind": result.size_kind,
        "per_stage_details": result.per_stage,
    }
    if result.fixed_bits is not None:
        payload["fixed_bits"] = result.fixed_bits
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_export_curves(args) -> int:
    manifest = _load_manifest(args.corpus, args.labels, args.cap)
    task = Task.FIXED_VS_VARIABLE if args.group_by == "size-kind" else Task.FIXED_WIDTH
    curves = mean_curve_by_class(manifest, args.lag, task)
    if not curves:
        raise EmptyLabelList("no samples matched the requested grouping")

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("class,k,mean_f_k\n")
        for klass in _class_order(curves, task):
            for k, value in enumerate(curves[klass], start=1):
                out.write(f"{klass},{k},{float(value)!r}\n")
    finally:
        if args.out:
            out.close()
            print(f"curves: {args.out}")
    return 0


def cmd_stats(args) -> int:
    registry = parse_label_registry(args.labels)
    if not registry:
        raise EmptyLabelList(f"label file {args.labels} has no rows")

    sections = [
        ("endianness", Task.ENDIANNESS),
        ("fixed/variable", Task.FIXED_VS_VARIABLE),
        ("fixed width", Task.FIXED_WIDTH),
    ]
    for title, task in sections:
        labels = [task_label(lbl, task) for lbl in registry.values()]
        labels = [x for x in labels if x is not None]
        counts: dict[str, int] = {}
        for x in labels:
            counts[x] = counts.get(x, 0) + 1
        print(f"{title} classes: " + " ".join(f"{k}:{counts[k]}" for k in _class_order(counts, task)))
        if labels:
            b = compute_baseline(labels)
            print(f"{title} baseline: {b.most_frequent_count}/{b.total_count} = {b.baseline:.3f}")
        else:
            print(f"{title} baseline: n/a (no eligible ISAs)")

    if args.corpus:
        manifest = _scan(args.corpus, registry)
        print("file counts per ISA:")
        for isa, count in manifest.counts_per_isa().items():
            print(f"  {isa}: {count}")
        print(f"  total: {len(manifest.samples)}")
    return 0


# ----------------------------------------------------------------------
# Parser construction
# ----------------------------------------------------------------------

def _add_corpus_flags(p, labels_required=True):
    p.add_argument("--corpus", required=True, help="corpus root: <root>/<isa>/<files...>")
    p.add_argument("--labels", required=labels_required, help="label CSV path")
    p.add_argument("--cap", type=_positive_int, default=None,
                   help="max files per ISA (lexicographic-first)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="isatraits",
        description="Detect endianness and instruction-size characteristics of unknown-ISA binaries.",
    )
    parser.add_argument("--version", action="version", version=f"isatraits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("synth", help="generate a synthetic corpus with known ground truth")
    p.add_argument("mode", choices=["endian", "fixedwidth"])
    p.add_argument("--isas", type=_positive_int, default=4,
                   help="endian mode: ISAs per endianness class")
    p.add_argument("--widths", default="16,32", help="fixedwidth mode: comma-separated widths in bits")
    p.add_argument("--isas-per-width", type=_non_negative_int, default=3)
    p.add_argument("--variable", type=_non_negative_int, default=0,
                   help="fixedwidth mode: variable-size ISA count")
    p.add_argument("--files", type=_positive_int, required=True, help="files per ISA")
    p.add_argument("--len", type=_positive_int, required=True, help="bytes per file")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_synth)
    registry["synth"] = p

    p = sub.add_parser("evaluate", help="run a LOGOCV evaluation")
    p.add_argument("--task", required=True, choices=TASK_NAMES)
    p.add_argument("--feature", required=True, choices=FEATURE_NAMES)
    p.add_argument("--classifier", default="knn3", choices=SUITE_NAMES)
    p.add_argument("--lag", type=_positive_int, default=None,
                   help="autocorr lag (default: tuned per task/classifier)")
    p.add_argument("--c", type=_positive_float, default=None, help="logreg inverse regularization (default: tuned)")
    p.add_argument("--trees", type=_positive_int, default=100)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_corpus_flags(p)
    p.add_argument("--report", default=None, help="write full JSON report here")
    p.add_argument("--csv", default=None, help="write per-fold CSV here")
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.set_defaults(func=cmd_evaluate)
    registry["evaluate"] = p

    p = sub.add_parser("gridsearch", help="sweep c (logreg) or lag (autocorr)")
    p.add_argument("mode", choices=["c", "lag"])
    p.add_argument("--task", required=True, choices=TASK_NAMES)
    p.add_argument("--feature", default=None, choices=FEATURE_NAMES, help="c mode: feature to use")
    p.add_argument("--classifier", default="knn3", choices=SUITE_NAMES, help="lag mode: classifier")
    p.add_argument("--grid", default=None, help="comma-separated grid values")
    p.add_argument("--lag", type=_positive_int, default=None, help="c mode with autocorr: fixed lag")
    p.add_argument("--c", type=_positive_float, default=None, help="lag mode with logreg: fixed c")
    p.add_argument("--trees", type=_positive_int, default=100)
    p.add_argument("--jobs", type=_positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    _add_corpus_flags(p)
    p.add_argument("--out", default=None, help="write the sweep table CSV here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_gridsearch)
    registry["gridsearch"] = p

    p = sub.add_parser("train", help="fit the three stage models and write model files")
    p.add_argument("--corpus", default=None, help="corpus for all stages unless overridden")
    p.add_argument("--labels", default=None)
    for corpus in dict.fromkeys(corpus for _, _, corpus in STAGES):
        p.add_argument(f"--{corpus}-corpus", default=None, help="corpus for its stages (default: --corpus)")
        p.add_argument(f"--{corpus}-labels", default=None)
    p.add_argument("--endian-feature", default="endsig", choices=FEATURE_NAMES)
    for _, prefix, _ in STAGES:
        p.add_argument(f"--{prefix}-classifier", default="logreg", choices=SUITE_NAMES)
        p.add_argument(f"--{prefix}-c", type=_positive_float, default=None)
        p.add_argument(f"--{prefix}-lag", type=_positive_int, default=None)
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="directory for endian.model/isvar.model/width.model")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)
    registry["train"] = p

    p = sub.add_parser("predict", help="classify one binary with trained stage models")
    for _, prefix, _ in STAGES:
        p.add_argument(f"--{prefix}-model", required=True)
    p.add_argument("binary", help="path to the binary to classify")
    p.set_defaults(func=cmd_predict)
    registry["predict"] = p

    p = sub.add_parser("export-curves", help="mean autocorrelation per class as CSV")
    p.add_argument("--lag", type=_positive_int, required=True)
    p.add_argument("--group-by", default="size-kind", choices=["size-kind", "fixed-bits"])
    _add_corpus_flags(p)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_export_curves)
    registry["export-curves"] = p

    p = sub.add_parser("stats", help="per-class counts and baselines from a label file")
    p.add_argument("--labels", required=True)
    p.add_argument("--corpus", default=None, help="also count files per ISA")
    p.set_defaults(func=cmd_stats)
    registry["stats"] = p

    return parser, registry


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    # The first parse only finds the command and its --config file, so a
    # command that takes --config does not yet insist on flags the file may
    # supply. The second parse sees the file's flags and checks everything.
    deferred = [a for p in registry.values() if "--config" in p._option_string_actions
                for a in p._actions if a.required and a.option_strings]
    for action in deferred:
        action.required = False
    args = parser.parse_args(argv)
    for action in deferred:
        action.required = True
    try:
        if getattr(args, "config", None):
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, registry[args.command])
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        registry[args.command].print_usage(sys.stderr)
        return 2
    except (IsaTraitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
