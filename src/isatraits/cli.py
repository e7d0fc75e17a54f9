"""Command-line interface.

Subcommands: synth (generate synthetic corpora), evaluate (LOGOCV run),
gridsearch (c or lag sweep), train (fit the three stage models), predict
(two-stage classification of one binary), export-curves (mean
autocorrelation per class), stats (label counts and baselines).

COMMANDS holds each command's help line, its cmd_* function and the
function that adds its flags. A call whose first argument names a command
builds and parses with that command's parser alone; the full parser,
built by build_parser from the same table, serves --help, --version, a
missing or unknown command and the report of an unrecognized argument.

evaluate, gridsearch and train build each (feature, classifier) pair they
run with _resolve, which fills an unset lag or c from the tuned tables in
evaluate; predict prints the object predict_unknown returns.

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
from collections import namedtuple
from pathlib import Path

from . import __version__
from .classify import SUITE_NAMES, ClassifierSpec, fit, load_model, save_model, spec_from_name
from .corpus import (
    CorpusManifest,
    SampleRef,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    manifest_summary,
    open_regular,
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
    # utf-8-sig drops the byte-order mark that some editors put first.
    with open_regular(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    for line_no, raw in enumerate(text.splitlines(), start=1):
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


def _resolve(task: Task, feature: str, classifier: str, lag: int | None, c: float | None,
             lag_flag: str = "--lag", **spec) -> tuple[FeatureConfig, ClassifierSpec]:
    """The feature and classifier a command runs. An autocorr feature takes
    the lag given or else the tuned lag of (task, classifier); another
    feature takes none. The classifier takes the c given or else the tuned
    c of (task, feature), or 1.0, and spec's other fields as given."""
    if feature != AUTOCORR:
        lag = None
    elif lag is None:
        lag = DEFAULT_AUTOCORR_LAGS.get((task, classifier))
        if lag is None:
            raise UsageError(f"no default lag for task {task.value} with classifier {classifier};"
                             f" pass {lag_flag}")
    if c is None:
        c = DEFAULT_LOGREG_C.get((task, feature), 1.0)
    return FeatureConfig(feature, lag), spec_from_name(classifier, c=c, **spec)


def _class_order(classes, task: Task) -> list[str]:
    """A task's class labels in output order: widths by value, others by name."""
    return sorted(classes, key=int) if task is Task.FIXED_WIDTH else sorted(classes)


def _labels_sha256(path: str) -> str:
    with open_regular(path) as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_int_list(raw: str, flag: str, as_float: bool = False) -> list:
    """flag's values, each one grid point or width: one given twice, compared
    as parsed (1e9 and 1000000000 are one c), is a usage error."""
    cast = float if as_float else int
    try:
        values = [cast(cell) for cell in raw.split(",") if cell.strip()]
    except ValueError:
        raise UsageError(f"{flag}: could not parse {raw!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise UsageError(f"{flag}: values must be positive and finite")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{flag}: {value:g} is given more than once")
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
    feature, spec = _resolve(task, args.feature, args.classifier, args.lag, args.c,
                             trees=args.trees, seed=args.seed, standardize=args.standardize)
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
        feature, _ = _resolve(task, args.feature, "logreg", args.lag, None)
        grid = _parse_int_list(args.grid, "--grid", as_float=True) if args.grid else list(DEFAULT_C_GRID)
        manifest = _load_manifest(args.corpus, args.labels, args.cap)
        best, table = grid_search_c(manifest, task, feature, grid)
        print(f"best c: {best:g}")
    else:
        grid = _parse_int_list(args.grid, "--grid") if args.grid else list(DEFAULT_LAG_GRID)
        _, spec = _resolve(task, AUTOCORR, args.classifier, max(grid), args.c,
                           trees=args.trees, seed=args.seed)
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
    # Stages of one root and labels share one scan and one load of each sample.
    by_corpus: dict[tuple[str, str], list] = {}  # (root, labels) -> its stages in STAGES order
    for task, prefix, corpus in STAGES:
        feature, spec = _resolve(task, getattr(args, f"{prefix}_feature", AUTOCORR),
                                 getattr(args, f"{prefix}_classifier"), getattr(args, f"{prefix}_lag"),
                                 getattr(args, f"{prefix}_c"), f"--{prefix}-lag", seed=args.seed)
        root = getattr(args, f"{corpus}_corpus") or args.corpus
        if root is None:
            raise UsageError(f"no corpus given for the {prefix} stage: pass --{corpus}-corpus or --corpus")
        labels = getattr(args, f"{corpus}_labels") or args.labels or str(Path(root) / "labels.csv")
        by_corpus.setdefault((root, labels), []).append((task, prefix, feature, spec))

    # Every stage is fitted before any file is written, so a failing stage
    # leaves --out as it was.
    models = []
    for (root, labels), stages in by_corpus.items():
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
    print(json.dumps(predict_unknown(SampleRef(args.binary, "unknown").load(), *models), sort_keys=True))
    return 0


def cmd_export_curves(args) -> int:
    manifest = _load_manifest(args.corpus, args.labels, args.cap)
    task = Task.FIXED_VS_VARIABLE if args.group_by == "size-kind" else Task.FIXED_WIDTH
    curves = mean_curve_by_class(manifest, args.lag, task)
    if not curves:
        raise EmptyLabelList("no samples matched the requested grouping")

    text = "class,k,mean_f_k\n" + "".join(f"{klass},{k},{float(value)!r}\n"
                                         for klass in _class_order(curves, task)
                                         for k, value in enumerate(curves[klass], start=1))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"curves: {args.out}")
    else:
        sys.stdout.write(text)
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
        print(f"{title} classes: "
              + (" ".join(f"{k}:{counts[k]}" for k in _class_order(counts, task)) or "none"))
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

def _add_corpus_flags(p):
    p.add_argument("--corpus", required=True, help="corpus root: <root>/<isa>/<files...>")
    p.add_argument("--labels", required=True, help="label CSV path")
    p.add_argument("--cap", type=_positive_int, default=None,
                   help="max files per ISA (lexicographic-first)")


def _synth_flags(p):
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


def _evaluate_flags(p):
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


def _gridsearch_flags(p):
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


def _train_flags(p):
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


def _predict_flags(p):
    for _, prefix, _ in STAGES:
        p.add_argument(f"--{prefix}-model", required=True)
    p.add_argument("binary", help="path to the binary to classify")


def _export_curves_flags(p):
    p.add_argument("--lag", type=_positive_int, required=True)
    p.add_argument("--group-by", default="size-kind", choices=["size-kind", "fixed-bits"])
    _add_corpus_flags(p)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--config", default=None)


def _stats_flags(p):
    p.add_argument("--labels", required=True)
    p.add_argument("--corpus", default=None, help="also count files per ISA")


# A command: its help line in the full parser's listing, the function that
# runs it on the parsed flags and the function that adds those flags.
Command = namedtuple("Command", ("help", "run", "add_flags"))
COMMANDS: dict[str, Command] = {
    "synth": Command("generate a synthetic corpus with known ground truth", cmd_synth, _synth_flags),
    "evaluate": Command("run a LOGOCV evaluation", cmd_evaluate, _evaluate_flags),
    "gridsearch": Command("sweep c (logreg) or lag (autocorr)", cmd_gridsearch, _gridsearch_flags),
    "train": Command("fit the three stage models and write model files", cmd_train, _train_flags),
    "predict": Command("classify one binary with trained stage models", cmd_predict, _predict_flags),
    "export-curves": Command("mean autocorrelation per class as CSV", cmd_export_curves,
                             _export_curves_flags),
    "stats": Command("per-class counts and baselines from a label file", cmd_stats, _stats_flags),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The whole command line: the top-level parser, with every command's
    parser under it by name. main builds it only to print the top-level
    help, usage or version and to report an unknown command or an
    unrecognized argument."""
    parser = argparse.ArgumentParser(
        prog="isatraits",
        description="Detect endianness and instruction-size characteristics of unknown-ISA binaries.",
    )
    parser.add_argument("--version", action="version", version=f"isatraits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}
    for name, command in COMMANDS.items():
        subparsers[name] = sub.add_parser(name, help=command.help)
        command.add_flags(subparsers[name])
    return parser, subparsers


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv parsed by one command's parser. Arguments it does not know are
    reported as the full parser reports them, with the top-level usage."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        build_parser()[0].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in COMMANDS:
        # No command first: --help, --version, an empty or unknown command.
        # The full parser prints or reports it and exits, unless a "--"
        # comes before the command and the running argparse skips it.
        args = build_parser()[0].parse_args(argv)
        argv = argv[argv.index(args.command):]
    name, argv = argv[0], argv[1:]
    parser = argparse.ArgumentParser(prog=f"isatraits {name}")
    COMMANDS[name].add_flags(parser)
    # A command that takes --config does not yet insist on flags the file
    # may supply: the first parse finds the file, and a second parse, with
    # the file's flags placed first, checks everything.
    deferred = ([a for a in parser._actions if a.required and a.option_strings]
                if "--config" in parser._option_string_actions else [])
    for action in deferred:
        action.required = False
    args = _parse(parser, argv)
    for action in deferred:
        action.required = True
    try:
        # Required flags have no default, so None marks one not given; the
        # second parse then reports it.
        if deferred and (args.config or any(getattr(args, a.dest) is None for a in deferred)):
            if args.config:
                argv = _config_flags(args.config, parser) + argv
            args = _parse(parser, argv)
        return COMMANDS[name].run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (IsaTraitsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
