"""isatraits: endianness and instruction-size detection for unknown-ISA binaries."""

from .corpus import (
    BinarySample,
    CorpusManifest,
    Endianness,
    InstructionSizeSpec,
    IsaLabel,
    SampleRef,
    SizeKind,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
    parse_label_registry,
    scan_corpus,
)
from .evaluate import (
    Task,
    compute_baseline,
    grid_search_c,
    grid_search_lag,
    mean_curve_by_class,
    plan_logocv,
    predict_unknown,
    run_evaluation,
)
from .features import (
    FeatureConfig,
    autocorrelation_feature,
    bigram_histogram,
    endianness_signatures,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySample",
    "CorpusManifest",
    "Endianness",
    "FeatureConfig",
    "InstructionSizeSpec",
    "IsaLabel",
    "SampleRef",
    "SizeKind",
    "Task",
    "__version__",
    "autocorrelation_feature",
    "bigram_histogram",
    "compute_baseline",
    "endianness_signatures",
    "generate_synthetic_endian",
    "generate_synthetic_fixedwidth",
    "grid_search_c",
    "grid_search_lag",
    "mean_curve_by_class",
    "parse_label_registry",
    "plan_logocv",
    "predict_unknown",
    "run_evaluation",
    "scan_corpus",
]
