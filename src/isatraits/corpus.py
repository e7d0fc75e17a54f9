"""Corpus handling: label registries, on-disk corpora, synthetic generators.

A corpus is a directory with one subdirectory per ISA holding raw binary
files. Ground truth lives in a label CSV (see LABEL_HEADER). Synthetic
generators produce in-memory corpora with known endianness or instruction
width so the full pipeline can be verified without real firmware.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DuplicateIsa, EmptyCorpus, MalformedLabelFile, NotRegularFile

LABEL_HEADER = [
    "isa_name",
    "endianness",
    "inst_size_kind",
    "inst_size_bits",
    "inst_size_min",
    "inst_size_max",
    "word_size_bits",
]


class Endianness(str, Enum):
    LITTLE = "LE"
    BIG = "BE"
    BI = "BI"
    UNKNOWN = "NA"


class SizeKind(str, Enum):
    FIXED = "fixed"
    VARIABLE = "variable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class InstructionSizeSpec:
    """Instruction-width ground truth: fixed (with width in bits), variable
    (optionally with a min..max bit range), or unknown. Errors name the
    label-file columns the fields are read from: inst_size_bits for
    fixed_bits, inst_size_min and inst_size_max for variable_range."""

    kind: SizeKind
    fixed_bits: int | None = None
    variable_range: tuple[int | None, int | None] | None = None

    def __post_init__(self):
        if self.kind is SizeKind.FIXED:
            if self.fixed_bits is None or self.fixed_bits <= 0:
                raise ValueError("fixed instruction size requires a positive inst_size_bits")
        elif self.fixed_bits is not None:
            raise ValueError(f"{self.kind.value} instruction size cannot carry inst_size_bits")
        if self.variable_range is None:
            return
        if self.kind is not SizeKind.VARIABLE:
            raise ValueError(f"{self.kind.value} instruction size cannot carry a min/max range")
        lo, hi = self.variable_range
        if lo is None or hi is None:
            raise ValueError("inst_size_min and inst_size_max must appear together")
        if lo <= 0 or hi < lo:
            raise ValueError(f"invalid min/max range {lo}..{hi}: inst_size_min must be positive"
                             " and at most inst_size_max")

    @classmethod
    def fixed(cls, bits: int) -> "InstructionSizeSpec":
        return cls(SizeKind.FIXED, fixed_bits=bits)

    @classmethod
    def variable(cls, min_bits: int | None = None, max_bits: int | None = None) -> "InstructionSizeSpec":
        rng = None if min_bits is None and max_bits is None else (min_bits, max_bits)
        return cls(SizeKind.VARIABLE, variable_range=rng)

    @classmethod
    def unknown(cls) -> "InstructionSizeSpec":
        return cls(SizeKind.UNKNOWN)


@dataclass(frozen=True)
class IsaLabel:
    """Ground-truth characteristics of one ISA."""

    isa_name: str
    endianness: Endianness
    inst_size: InstructionSizeSpec
    word_size_bits: int | None = None


@dataclass(frozen=True)
class BinarySample:
    """Raw byte content of one binary, tagged with its ISA group."""

    data: bytes
    isa_name: str
    source_path: str


def open_regular(path: str | Path, mode: str = "rb", **kwargs):
    """path opened for reading, as open(path, mode, **kwargs) would, if it
    is a regular file; anything else is a NotRegularFile before any read.
    The open does not wait for a FIFO's writer (O_NONBLOCK); fstat then
    checks the file that was opened, so no other can take its place."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise NotRegularFile(f"{path} is not a regular file")
    os.set_blocking(fd, True)
    return open(fd, mode, **kwargs)


@dataclass(frozen=True)
class SampleRef:
    """Lazy handle to a sample: synthetic corpora keep bytes in memory,
    scanned corpora read from disk on load()."""

    source_path: str
    isa_name: str
    data: bytes | None = None

    def load(self) -> BinarySample:
        payload = self.data
        if payload is None:
            with open_regular(self.source_path) as fh:
                payload = fh.read()
        return BinarySample(payload, self.isa_name, self.source_path)


@dataclass
class CorpusManifest:
    """An ordered sample listing plus the registry resolving each ISA."""

    samples: list[SampleRef]
    registry: dict[str, IsaLabel]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        for ref in self.samples:
            if ref.isa_name not in self.registry:
                raise KeyError(f"sample {ref.source_path}: ISA {ref.isa_name!r} not in registry")

    def label_of(self, ref: SampleRef) -> IsaLabel:
        return self.registry[ref.isa_name]

    def counts_per_isa(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ref in self.samples:
            counts[ref.isa_name] = counts.get(ref.isa_name, 0) + 1
        return dict(sorted(counts.items()))


# ----------------------------------------------------------------------
# Label registry I/O
# ----------------------------------------------------------------------

def _parse_optional_int(cell: str, line_no: int, column: str) -> int | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = int(cell)
    except ValueError:
        raise MalformedLabelFile(line_no, f"column {column}: {cell!r} is not an integer") from None
    if value <= 0:
        raise MalformedLabelFile(line_no, f"column {column}: {value} must be positive")
    return value


def _parse_label_row(row: list[str], line_no: int) -> IsaLabel:
    if len(row) != len(LABEL_HEADER):
        raise MalformedLabelFile(line_no, f"expected {len(LABEL_HEADER)} columns, got {len(row)}")
    name = row[0].strip()
    if not name:
        raise MalformedLabelFile(line_no, "empty isa_name")

    try:
        endianness = Endianness(row[1].strip())
    except ValueError:
        raise MalformedLabelFile(line_no, f"endianness {row[1]!r} not one of LE/BE/BI/NA") from None

    kind_cell = row[2].strip()
    try:
        kind = SizeKind(kind_cell)
    except ValueError:
        raise MalformedLabelFile(
            line_no, f"inst_size_kind {kind_cell!r} not one of fixed/variable/unknown"
        ) from None

    bits = _parse_optional_int(row[3], line_no, "inst_size_bits")
    lo = _parse_optional_int(row[4], line_no, "inst_size_min")
    hi = _parse_optional_int(row[5], line_no, "inst_size_max")
    word = _parse_optional_int(row[6], line_no, "word_size_bits")
    try:
        size = InstructionSizeSpec(kind, bits, None if lo is None and hi is None else (lo, hi))
    except ValueError as exc:
        raise MalformedLabelFile(line_no, str(exc)) from None
    return IsaLabel(name, endianness, size, word)


def _csv_rows(fh):
    """A CSV file's rows, each with the file line it ends on (a quoted cell
    can span lines); a row the reader rejects is a MalformedLabelFile."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise MalformedLabelFile(reader.line_num, str(exc)) from None


def parse_label_registry(path: str | Path) -> dict[str, IsaLabel]:
    """Read a label CSV into a registry. Rows with bad enum values or
    malformed integers abort parsing rather than being skipped."""
    registry: dict[str, IsaLabel] = {}
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    with open_regular(path, "r", newline="", encoding="utf-8-sig") as fh:
        header_seen = False
        for line_no, row in _csv_rows(fh):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if not header_seen:
                if [c.strip() for c in row] != LABEL_HEADER:
                    raise MalformedLabelFile(line_no, f"bad header; expected {','.join(LABEL_HEADER)}")
                header_seen = True
                continue
            label = _parse_label_row(row, line_no)
            if label.isa_name in registry:
                raise DuplicateIsa(label.isa_name)
            registry[label.isa_name] = label
        if not header_seen:
            raise MalformedLabelFile(1, "missing header row")
    return registry


def write_label_registry(registry: dict[str, IsaLabel], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for name in sorted(registry):
            label = registry[name]
            size = label.inst_size
            lo, hi = size.variable_range if size.variable_range else (None, None)
            writer.writerow([
                name,
                label.endianness.value,
                size.kind.value,
                size.fixed_bits if size.fixed_bits is not None else "",
                lo if lo is not None else "",
                hi if hi is not None else "",
                label.word_size_bits if label.word_size_bits is not None else "",
            ])


# ----------------------------------------------------------------------
# Corpus scanning
# ----------------------------------------------------------------------

def scan_corpus(
    root: str | Path,
    registry: dict[str, IsaLabel],
    per_isa_cap: int | None = None,
) -> CorpusManifest:
    """Walk root/<isa_name>/<files...> and build a manifest.

    Directories that do not resolve in the registry are recorded as
    warnings. Under a cap the lexicographically-first file paths win,
    which keeps selections deterministic and prefix-monotone in the cap.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpus(f"corpus root {root} does not exist or is not a directory")
    if per_isa_cap is not None and per_isa_cap < 1:
        raise ValueError("per_isa_cap must be positive")

    samples: list[SampleRef] = []
    warnings: list[str] = []
    # One scandir per directory; DirEntry.is_dir and is_file follow symlinks
    # as Path's do, and an entry's path is str(directory / name).
    with os.scandir(root) as entries:
        names = sorted(entry.name for entry in entries if entry.is_dir())
    for name in names:
        if name not in registry:
            warnings.append(name)
            continue
        with os.scandir(root / name) as entries:
            files = sorted(entry.path for entry in entries if entry.is_file())
        if per_isa_cap is not None:
            files = files[:per_isa_cap]
        samples.extend(SampleRef(path, name) for path in files)

    if not samples:
        raise EmptyCorpus(f"no samples found under {root}")
    return CorpusManifest(samples, dict(registry), warnings=warnings)


def write_corpus(manifest: CorpusManifest, out_dir: str | Path) -> Path:
    """Materialize an in-memory manifest as root/<isa>/<file> plus a
    labels.csv. Returns the labels path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ref in manifest.samples:
        if ref.data is None:
            raise ValueError(f"sample {ref.source_path} has no in-memory bytes to write")
        isa_dir = out_dir / ref.isa_name
        isa_dir.mkdir(exist_ok=True)
        (isa_dir / Path(ref.source_path).name).write_bytes(ref.data)
    labels_path = out_dir / "labels.csv"
    write_label_registry(manifest.registry, labels_path)
    return labels_path


# ----------------------------------------------------------------------
# Synthetic corpora
# ----------------------------------------------------------------------
#
# Every file gets its own generator seeded by an integer tuple, so any
# (seed, class, isa, file) coordinate yields the same bytes regardless of
# generation order, and distinct ISAs are genuinely distinct groups.

_STREAM_ENDIAN = 0
_STREAM_FIXED_LAYOUT = 1
_STREAM_FIXED_FILE = 2
_STREAM_VARIABLE = 3


def _endian_stream(rng: np.random.Generator, n: int, byte_order: str) -> np.ndarray:
    """A stream of n uint8: small-magnitude 16/32-bit integers in the
    given byte order, interleaved 50/50 with uniform filler bytes.

    Small magnitudes keep the high bytes at 0x00 (positives) or 0xff
    (negatives), which is what makes the four endianness-signature
    bigrams dominate on real code and data.

    The bytes are fixed by four draws from rng, in this order:

    1. n token kinds, ``integers(0, 4)``: 0 and 1 a filler byte, 2 an
       int16, 3 an int32. An int32 dtype draws the same values as int64.
    2. n magnitudes, ``geometric(0.3)``, drawn as numpy draws them for
       p < 1/3: ceil(E / -log1p(-0.3)) of n ``standard_exponential`` E.
    3. n signs, ``integers(0, 2)``: 1 positive, 0 negative; the value is
       the signed magnitude clipped to int16.
    4. k filler bytes, ``integers(0, 256, dtype=uint8)``.

    Only the first k tokens, about n / 2, reach byte n, and k is known
    only once the kinds are drawn. Draws 1-3 are still taken at length n:
    each starts where the one before it stopped, and an exponential reads
    a varying number of words from the stream, so a shorter draw would
    move every later one. The fillers come last, so k of them suffice.
    """
    kinds = rng.integers(0, 4, size=n, dtype=np.int32)
    k = _token_count(kinds, n)
    kinds = kinds[:k].astype(np.uint8)
    # Every token as the 4 bytes of an int32, of which it keeps the first
    # 1, 2 or 4. Each draw is cut to its first k values and let go before
    # the next draw, which then reuses its memory.
    exponentials = rng.standard_exponential(n)
    magnitudes = exponentials[:k]
    magnitudes /= -np.log1p(-0.3)
    np.ceil(magnitudes, out=magnitudes)
    np.minimum(magnitudes, 32768.0, out=magnitudes)  # before the cast to int32
    words = magnitudes.astype(np.int32)
    del exponentials, magnitudes
    signs = rng.integers(0, 2, size=n, dtype=np.int32)[:k]
    signs *= 2
    signs -= 1
    words *= signs
    del signs
    np.minimum(words, 32767, out=words)
    # A filler token keeps one byte: its word's low byte becomes the filler.
    fillers = rng.integers(0, 256, size=k, dtype=np.uint8)
    blend = words ^ fillers
    blend &= np.array([0xFF, 0xFF, 0, 0], dtype=np.int32).take(kinds)
    words ^= blend
    del blend
    if byte_order == ">":
        # Big-endian order writes the high byte first, so the filler moves
        # to the top byte and an int16 to the top half.
        words <<= np.array([24, 24, 16, 0], dtype=np.int32).take(kinds)
    table = words.astype(byte_order + "i4", copy=False).view(np.uint8)
    # Each token's keep mask is the bytes of one little-endian word: 1, 2 or 4 ones.
    keep = np.array([0x01, 0x01, 0x0101, 0x01010101], dtype="<u4").take(kinds).view(np.bool_)
    return np.compress(keep, table)[:n]  # row-major: tokens in order


def _token_count(kinds: np.ndarray, n: int) -> int:
    """How many tokens, of lengths 1, 1, 2, 4 bytes by kind, it takes to
    reach byte n: the first k whose lengths sum to at least n.

    Tokens average 2 bytes with a standard deviation under 1.3, so the
    k-th nearly always lies within a window of 4 sqrt(n) tokens around
    n / 2, more than 9 standard deviations wide each side. The bytes
    before the window are counted, and only the window is summed in
    order; if k falls outside it, the whole of kinds is.
    """
    lengths = np.array([1, 1, 2, 4], dtype=np.uint8)
    margin = 4 * int(n ** 0.5) + 64
    for lo, hi in ((max(0, n // 2 - margin), min(n, n // 2 + margin)), (0, n)):
        head = kinds[:lo]
        start = lo + np.count_nonzero(head >= 2) + 2 * np.count_nonzero(head == 3)
        ends = np.cumsum(lengths.take(kinds[lo:hi]), dtype=np.int64)
        ends += start
        if start < n <= ends[-1]:  # always so for the whole: n tokens are n bytes or more
            break
    return lo + int(np.searchsorted(ends, n)) + 1


def generate_synthetic_endian(
    isa_count_per_class: int,
    files_per_isa: int,
    file_len: int,
    seed: int,
) -> CorpusManifest:
    """Synthetic corpus with isa_count_per_class ISAs per endianness class
    (synthLE_i / synthBE_i), files_per_isa files each, file_len bytes.
    Byte-identical for identical arguments and seed."""
    if isa_count_per_class < 1 or files_per_isa < 1:
        raise ValueError("counts must be >= 1")
    if file_len < 1024:
        raise ValueError("file_len must be >= 1024")

    samples: list[SampleRef] = []
    registry: dict[str, IsaLabel] = {}
    classes = [("LE", Endianness.LITTLE, "<"), ("BE", Endianness.BIG, ">")]
    for class_idx, (tag, endianness, byte_order) in enumerate(classes):
        for isa_idx in range(isa_count_per_class):
            isa = f"synth{tag}_{isa_idx}"
            registry[isa] = IsaLabel(isa, endianness, InstructionSizeSpec.unknown())
            for file_idx in range(files_per_isa):
                rng = np.random.default_rng([_STREAM_ENDIAN, seed, class_idx, isa_idx, file_idx])
                # Made into bytes once the stream's temporaries are freed, so the
                # bytes kept do not sit between them and fragment the heap: 160
                # files of 64 KiB peaked at 46.9 MB RSS in a fresh process,
                # against 47.3 MB with the bytes made among the temporaries.
                data = _endian_stream(rng, file_len, byte_order).tobytes()
                samples.append(SampleRef(f"{isa}/{file_idx:04d}.bin", isa, data))
    return CorpusManifest(samples, registry)


def _opcode_layout(rng: np.random.Generator, width_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-ISA opcode layout: which byte offsets inside an instruction are
    constant, and their values. Offsets are consecutive so the constant
    bytes cannot alias to a shorter period than the instruction width, and
    values are drawn away from the byte mean (outside [64, 192)) so every
    fixed-width ISA has periodicity contrast against uniform operands."""
    n_opcode = 1 if width_bytes <= 3 else 2
    start = int(rng.integers(0, width_bytes - n_opcode + 1))
    positions = np.arange(start, start + n_opcode)
    raw = rng.integers(0, 128, size=n_opcode, dtype=np.int64)
    values = np.where(raw < 64, raw, raw + 128).astype(np.uint8)
    return positions, values


def _fixed_width_file(rng: np.random.Generator, file_len: int, width_bytes: int,
                      positions: np.ndarray, values: np.ndarray) -> bytes:
    n_instr = -(-file_len // width_bytes)  # ceil
    arr = rng.integers(0, 256, size=(n_instr, width_bytes), dtype=np.uint8)
    arr[:, positions] = values
    return arr.reshape(-1)[:file_len].tobytes()


def _variable_width_file(rng: np.random.Generator, file_len: int) -> bytes:
    # Uniform bytes, so no lag shows consistent structure. The draw of 1..6
    # byte instruction lengths shapes no byte; it stays so that the bytes
    # start at the same stream position and every corpus keeps its bytes.
    rng.integers(1, 7, size=file_len)
    return rng.integers(0, 256, size=file_len, dtype=np.uint8).tobytes()


def generate_synthetic_fixedwidth(
    widths_bits: list[int],
    isas_per_width: int,
    files_per_isa: int,
    file_len: int,
    variable_isas: int,
    seed: int,
) -> CorpusManifest:
    """Synthetic corpus for instruction-size tasks: back-to-back fixed-width
    instructions (synthW<bits>_i) with per-ISA opcode bytes at fixed
    offsets, plus variable-length ISAs (synthVAR_i)."""
    for i, w in enumerate(widths_bits):
        if w <= 0 or w % 8 != 0:
            raise ValueError(f"width {w} must be a positive multiple of 8 bits")
        if w in widths_bits[:i]:  # its ISAs would share names, and so files
            raise ValueError(f"width {w} is given more than once")
    if isas_per_width < 0 or files_per_isa < 1 or variable_isas < 0:
        raise ValueError("counts must be non-negative (files_per_isa >= 1)")
    if (not widths_bits or isas_per_width == 0) and variable_isas == 0:
        raise ValueError("need at least one ISA: a width with isas_per_width >= 1, or a variable ISA")
    if widths_bits:
        min_len = 64 * (max(widths_bits) // 8)
        if file_len < min_len:
            raise ValueError(f"file_len must be >= {min_len} (64 x max width in bytes)")

    samples: list[SampleRef] = []
    registry: dict[str, IsaLabel] = {}
    for width_idx, width in enumerate(widths_bits):
        width_bytes = width // 8
        for isa_idx in range(isas_per_width):
            isa = f"synthW{width}_{isa_idx}"
            registry[isa] = IsaLabel(isa, Endianness.UNKNOWN, InstructionSizeSpec.fixed(width))
            layout_rng = np.random.default_rng([_STREAM_FIXED_LAYOUT, seed, width_idx, isa_idx])
            positions, values = _opcode_layout(layout_rng, width_bytes)
            for file_idx in range(files_per_isa):
                rng = np.random.default_rng([_STREAM_FIXED_FILE, seed, width_idx, isa_idx, file_idx])
                data = _fixed_width_file(rng, file_len, width_bytes, positions, values)
                samples.append(SampleRef(f"{isa}/{file_idx:04d}.bin", isa, data))
    for isa_idx in range(variable_isas):
        isa = f"synthVAR_{isa_idx}"
        registry[isa] = IsaLabel(isa, Endianness.UNKNOWN, InstructionSizeSpec.variable(8, 48))
        for file_idx in range(files_per_isa):
            rng = np.random.default_rng([_STREAM_VARIABLE, seed, isa_idx, file_idx])
            samples.append(SampleRef(f"{isa}/{file_idx:04d}.bin", isa, _variable_width_file(rng, file_len)))

    return CorpusManifest(samples, registry)


def manifest_summary(manifest: CorpusManifest) -> str:
    buf = io.StringIO()
    counts = manifest.counts_per_isa()
    for isa, count in counts.items():
        buf.write(f"{isa}: {count} files\n")
    buf.write(f"total: {len(manifest.samples)} samples in {len(counts)} groups\n")
    if manifest.warnings:
        buf.write(f"unknown ISA directories skipped: {', '.join(manifest.warnings)}\n")
    return buf.getvalue()
