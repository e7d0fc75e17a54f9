"""Feature extraction from raw byte series.

Three extractors:

* bigram_histogram      - normalized frequency of all 65536 byte bigrams
* endianness_signatures - the four bigrams whose relative frequencies
                          discriminate byte order: 0xfffe, 0xfeff,
                          0x0001, 0x0100
* autocorrelation_feature - (f(1), ..., f(l)), each f(k) the Pearson
                          correlation between the byte series and itself
                          shifted by k; periodic instruction streams peak
                          at multiples of the instruction width in bytes

All extractors are pure functions of (bytes, parameters) and return a
1-D float64 array. FeatureConfig names one of them with its lag, and its
dim is the length of that array: the width of the (samples x dim) matrix
every learner and LOGOCV fold reads.

Both bigram extractors read one pair reader, _pair_words: the input as
native uint16 words from an even and from an odd offset, two views that
hold every overlapping pair. _BIN_WORDS maps bin 256*b0 + b1 to the word of
pair (b0, b1), for the histogram's bincount and endsig's four words alike.

The autocorrelation kernel, autocorrelation_rows, computes every lag 1..l
at once for a batch of equal-length series (autocorrelation_feature is the
batch of one), from the exact integer lagged products
p[k] = sum_i s[i]*s[i+k], k = 0..l, by one of two paths:

* GEMM (l <= GEMM_LAGS, or l <= GEMM_MAX_LAGS on a series of at least
  GEMM_WIDE_ROWS rows of width l): banded float32 matrix products. Each
  series is read as rows of width w, a multiple of the block height bw
  that GEMM_BLOCKS gives lag l, with w >= bw + l, in chunks of at most
  GEMM_ROWS rows. A worker takes a group of consecutive chunks at once
  (more than one only on a series too long to share a batch, below) and
  copies it, for every series in the batch, into one reused flat float32
  buffer, with the row after it. Block b of every row (its bw bytes at
  offset b*bw) is multiplied by band b (the bw + l bytes from the same
  offset, read in place with row stride w), in one batched product per
  group; diagonal k of each (bw, bw + l) product sums
  s[i]*s[i+k] over the chunk's i in block b, so p[k] is diagonal k summed
  over the blocks. Only the band of diagonals 0..l is multiplied:
  2 * (bw + l) flops per byte. Every entry sums at most GEMM_ROWS byte
  products of at most 255**2, and 256 * 255**2 < 2**24, so each float32
  partial sum is an exact integer whatever bw, order, thread split or FMA
  the BLAS uses. The diagonals are summed in float64, exact below 2**53.
  O(n l) time.
* FFT (every other l): one series and one block of AUTOCORR_BLOCK bytes
  at a time, each block correlated with itself plus the l bytes that
  follow it by a zero-padded real FFT (Wiener-Khinchin). Every moment is
  an integer below 2**53 and each block's FFT error is far below 0.5
  (under 1e-6 for blocks of 8 to 32 KiB, even of all-0xff bytes), so
  rounding each block's products to the nearest integer recovers them
  exactly. O(n log(block + l)) time.

Which path is faster was measured (tables in CHANGES.md): at 4 MiB and
lag 128 the GEMM path took about 15 ms against about 200 ms for the FFT.
The GEMM path's cost per byte grows with l and, on short series, with its
per-chunk work, so on 8 KiB the FFT is faster at lag 512, while at lags
257-512 the GEMM path is faster from GEMM_WIDE_ROWS rows of width l up
(12 KiB at lag 512). Both paths keep a series uint8 and copy it only one
group of chunks or one block at a time, so a batch of one needs
O(GEMM_ROWS * l + l**2) or O(block + l) extra memory a worker, never O(n).

A series too long to share a batch (autocorr_batch_size 1) is split over
threads (_split_plan, _split): the caller and helpers that each call
starts and joins take GEMM chunk groups or FFT blocks from one shared
iterator, each into its own buffers and partial sums, which are added at
the end. Every partial sum is an exact integer below 2**53, so the result
is bit-identical for any split and any number of workers. There is one
worker per CPU the process may run on, at most one per chunk or block and
no more than fit their buffers, as _worker_bytes counts them, in
STAGING_BYTES (one worker at lags 256 and 512, whose buffers are about
0.6 and 1.9 MiB); each takes as many chunks at once, up to GEMM_GROUP, as
that budget allows. Short series, one chunk or one block each, and every
series that shares a batch run on the caller alone, as does everything on
one CPU. A helper's error is raised in the caller once every helper has
ended. On 4 MiB at lag 128 (2 vCPUs, one BLAS thread) the kernel took
about 9.5 ms against 14 ms on one worker taking one chunk at a time, and
at lag 1024 about 70 against 115 ms (tables in CHANGES.md).

The window sums Sx, Sy, Sxx and Syy of every lag come from the series
total, the lag-0 product and cumulative sums over the first and last l
bytes. The Pearson formula then runs in float64 on the same integers that
a per-lag loop sums, elementwise over the batch's (series, l) array, so
f(1..l) is bit-identical to the per-lag computation, whatever the batch,
and to the first l values of f(1..L) for any L >= l.

Batching pays for many short series, where per-call overhead dominates:
on 140 series of 8 KiB at lag 16 the GEMM path took 3.7 ms in batches of
19, and 3 to 4 times as long one series at a time. The FFT path transforms one series
at a time whatever the batch, since batched transforms measured no faster,
so a batch there shares its moment and Pearson arithmetic, which runs once
per batch and not once per series: extract_features on 140 series of 8 KiB
at lag 1024 took about 49 ms in batches of 9 against 59 ms one series at a
time. extract_features cuts the samples it reads into runs of one length
and lag, and each run into batches of autocorr_batch_size, which caps a
batch so that its stacked bytes, moment arrays and, on the GEMM path,
float32 buffers stay within STAGING_BYTES, whatever the corpus size; a
series too long to share that budget is a batch of one, read in place,
and charged for every worker's buffers.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import BinarySample
from .errors import SampleTooShort

BIGRAM_DIM = 256 * 256
SIGNATURE_BIGRAMS = (0xFFFE, 0xFEFF, 0x0001, 0x0100)
# Entry 256*b0 + b1 is the native uint16 of bytes (b0, b1): native-order
# views, since comparing big-endian views made endsig 2.7x slower on 4 MiB.
_BIN_WORDS = np.arange(BIGRAM_DIM, dtype=">u2").view(np.uint16)
# Words per comparison in endianness_signatures, into one reused bool mask:
# on 4 MiB that took 2.35 ms, against 3.4 for a new mask over each whole
# 2M-word view (2.5 ms with chunks of 128K words, 3.1 with 1M).
ENDSIG_CHUNK = 1 << 18

BIGRAMS = "bigrams"
ENDSIG = "endsig"
AUTOCORR = "autocorr"
FEATURE_NAMES = (BIGRAMS, ENDSIG, AUTOCORR)


@dataclass(frozen=True)
class FeatureConfig:
    """Which extractor to run; lag is set for autocorr only."""

    name: str
    lag: int | None = None

    def __post_init__(self):
        if self.name not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {self.name!r}; valid: {', '.join(FEATURE_NAMES)}")
        if self.name == AUTOCORR and (self.lag is None or self.lag < 1):
            raise ValueError("autocorr requires a positive lag")
        if self.name != AUTOCORR and self.lag is not None:
            raise ValueError(f"{self.name} takes no lag, got {self.lag}")

    @property
    def dim(self) -> int:
        """Length of the feature vector: 65,536 bigrams, 4 signatures or lag."""
        return {BIGRAMS: BIGRAM_DIM, ENDSIG: len(SIGNATURE_BIGRAMS)}.get(self.name, self.lag)


def _pair_words(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Every overlapping byte pair of data as a native uint16 word, in two
    zero-copy views: the pairs at even offsets and those at odd ones."""
    n = len(data)
    if n < 2:
        raise SampleTooShort(f"bigram extraction needs >= 2 bytes, got {n}")
    return (np.frombuffer(data, dtype=np.uint16, count=n // 2),
            np.frombuffer(data, dtype=np.uint16, offset=1, count=(n - 1) // 2))


def bigram_histogram(sample: BinarySample) -> np.ndarray:
    """Overlapping adjacent byte pairs counted into bins 256*b0 + b1 and
    normalized by the bigram count, so values sum to 1."""
    even, odd = _pair_words(sample.data)
    word_counts = np.bincount(even, minlength=BIGRAM_DIM)
    word_counts += np.bincount(odd, minlength=BIGRAM_DIM)
    return word_counts[_BIN_WORDS].astype(np.float64) / (len(sample.data) - 1)


def endianness_signatures(sample: BinarySample) -> np.ndarray:
    """The four signature bins of bigram_histogram, in the fixed order
    (0xfffe, 0xfeff, 0x0001, 0x0100)."""
    even, odd = _pair_words(sample.data)
    words = _BIN_WORDS[list(SIGNATURE_BIGRAMS)]
    counts = np.zeros(len(words), dtype=np.int64)
    mask = np.empty(min(even.size, ENDSIG_CHUNK), dtype=bool)
    for view in (even, odd):
        for start in range(0, view.size, ENDSIG_CHUNK):
            chunk = view[start:start + ENDSIG_CHUNK]
            hits = mask[:chunk.size]
            for i, word in enumerate(words):
                counts[i] += np.count_nonzero(np.equal(chunk, word, out=hits))
    return counts.astype(np.float64) / (len(sample.data) - 1)


def _pearson_from_moments(m, sx, sy, sxx, syy, sxy) -> np.ndarray:
    # Raw-moment form: r = (m*Sxy - Sx*Sy) / sqrt((m*Sxx - Sx^2)(m*Syy - Sy^2)),
    # elementwise over float64 moments of windows of length m. Zero-variance
    # windows make the denominator vanish; by convention that yields 0.0 (no
    # linear-relationship evidence) instead of an error.
    dx = m * sxx - sx * sx
    dy = m * syy - sy * sy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = (m * sxy - sx * sy) / np.sqrt(dx * dy)
    r = np.where((dx > 0.0) & (dy > 0.0), r, 0.0)
    return np.minimum(1.0, np.maximum(-1.0, r))


# Bytes per block of the FFT path. Transforms of about 8K points stay in
# cache; at 32K points each point cost 1.6x as much.
AUTOCORR_BLOCK = 8 * 1024
# Up to this many lags the GEMM path is used on any series. The GEMM costs
# O(l) per byte, a block's FFT O(log(block + l)); on 8 KiB samples the GEMM
# took 0.66 of the FFT's time at 256 lags and 1.5 times it at 512 (tables in
# CHANGES.md).
GEMM_LAGS = 256
# Up to this many lags the GEMM path is also used on a series of at least
# GEMM_WIDE_ROWS rows of width l, where its per-chunk work is spread over
# enough rows: at lags 257-512 it took 0.46-0.90 of the FFT's time on 24
# rows, 0.25-0.84 on 32 and 0.19-0.39 on 64 KiB, but up to 1.4 times it on
# 16 rows (a single FFT block). At lag 1024 the FFT is faster at every size
# (tables in CHANGES.md).
GEMM_MAX_LAGS = 512
GEMM_WIDE_ROWS = 24
# Most rows per GEMM chunk. Each float32 product entry sums GEMM_ROWS byte
# products of at most 255**2, so it stays an integer below 2**24: exact in
# any summation order.
GEMM_ROWS = 256
# Block height of the banded GEMM by lag: (top, bw) gives block height bw
# to the lags above the previous entry's top and up to top. Each block of
# bw bytes of a row is multiplied by the bw + l bytes from its offset, the
# band of diagonals 0..l and no more, so a byte costs 2 * (bw + l) flops:
# taller blocks multiply more diagonals past l, shorter ones make more,
# smaller products. The time is not monotone in bw, since the BLAS runs
# some block shapes faster than others, so the heights come from a sweep
# of lags 1-512, bw 8-64 and 8 KiB to 4 MiB (tables in CHANGES.md). At lag
# 128 on 4 MiB, bw = 12 took 3.5 ns a byte, 16 took 4.2 and 64 took 4.8.
# At lags 64-312 bw = 12 was the fastest, or within 8% of it, on 64 KiB to
# 4 MiB, and within 3% of bw = 16 on 8 KiB; at lags 33-63 the two tied.
# At lags up to 32 and above 312 the fastest height depended on the size
# (16 or 12 on short series, 32 or 48-64 on long ones); those ranges take
# 32 and 64.
GEMM_BLOCKS = ((32, 32), (312, 12), (GEMM_MAX_LAGS, 64))
# Most GEMM chunks a worker takes at once: one copy, one batched product
# and one diagonal sum serve them all, so the per-call work and, with
# several workers, the hand-overs of Python's lock come once a group. On
# 4 MiB at lag 16 one worker took 8.4 ms in groups of 8 against 11.5 ms a
# chunk at a time, and two workers 4.7 ms against 12.8 (2 vCPUs, one BLAS
# thread; tables in CHANGES.md).
GEMM_GROUP = 8
# Bytes a batch of series may stage at once (autocorr_batch_size): 19
# series of 8 KiB at lag 16, 7 at lag 128, 2 at lag 256 and 9 at lag 1024.
# On 140 series of 8 KiB those batches extracted in 3.7, 9.0 and 22.7 ms
# at lags 16, 128 and 256, against 4.0, 10.7 and 29.8 ms in the batches of
# 12, 4 and 1 that a charge for larger buffers allowed; one series at a
# time took 3 to 4 times as long.
STAGING_BYTES = 1 << 20


@lru_cache(maxsize=128)
def _fast_len(target: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= target, a length the FFT handles fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < target:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _block_products(ext: np.ndarray, count: int, max_lag: int, size: int) -> np.ndarray:
    # sum_{i < count, i + k < len(ext)} ext[i] * ext[i + k] for k = 0..max_lag.
    head = np.fft.rfft(ext[:count], size)
    if count == ext.size:  # nothing follows the block: |X|^2, no cross term
        spec = head.real * head.real + head.imag * head.imag
    else:
        spec = head.conj() * np.fft.rfft(ext, size)
    return np.rint(np.fft.irfft(spec, size)[: max_lag + 1]).astype(np.int64)


@lru_cache(maxsize=128)
def _gemm_shape(n: int, max_lag: int) -> tuple[int, int, int]:
    """(block height bw, row width w, rows per chunk) of the banded GEMM on
    series of n bytes at lag max_lag: bw from GEMM_BLOCKS, w the least
    multiple of bw with w >= bw + max_lag, and the series' rows split into
    the fewest chunks of at most GEMM_ROWS rows, of equal size but for the
    last, so that a ragged last chunk multiplies few rows of zeros."""
    bw = next(bw for top, bw in GEMM_BLOCKS if max_lag <= top)
    w = -(-(bw + max_lag) // bw) * bw
    total = max(1, -(-n // w))
    chunks = -(-total // GEMM_ROWS)
    return bw, w, -(-total // chunks)


def _gemm_buffer_bytes(n: int, max_lag: int, group: int = 1) -> int:
    # One worker's float32 buffers for one series: the rows of group chunks
    # and the row after them, and their block products of w * (bw + l).
    bw, w, rows = _gemm_shape(n, max_lag)
    return 4 * ((group * rows + 1) * w + group * w * (bw + max_lag))


def _worker_bytes(n: int, max_lag: int, group: int = 1) -> int:
    """What one worker of the kernel allocates for one series of n bytes: on
    the GEMM path its float32 buffers for group chunks and its float64
    partial sums (and a unit's diagonal sums), on the FFT path one block's
    transforms (tracemalloc measured 32 bytes a point at lags 257-4096) and
    its int64 partial sums."""
    if _uses_gemm(n, max_lag):
        return _gemm_buffer_bytes(n, max_lag, group) + 2 * 8 * (max_lag + 1)
    return 32 * _fast_len(min(n, AUTOCORR_BLOCK) + max_lag) + 8 * (max_lag + 1)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split_plan(n: int, max_lag: int) -> tuple[int, int]:
    """(workers, group) of the kernel on series of n bytes at lag max_lag.
    A series that shares a batch with others (autocorr_batch_size) or has
    one chunk (GEMM) or block (FFT) runs as one worker taking one unit at a
    time: no helper starts. A longer series runs on one worker per CPU, at
    most one per unit and no more than fit their buffers in STAGING_BYTES
    (at least one), each taking group consecutive chunks at once: at most
    GEMM_GROUP, as many as the workers' buffers fit in STAGING_BYTES and no
    more than leave each worker one group."""
    if _uses_gemm(n, max_lag):
        _, w, rows = _gemm_shape(n, max_lag)
        units, most = -(-n // (rows * w)), GEMM_GROUP
    else:
        units, most = -(-n // AUTOCORR_BLOCK), 1
    if units == 1 or 2 * _series_staging_bytes(n, max_lag, (1, 1)) <= STAGING_BYTES:
        return 1, 1
    workers = max(1, min(units, _cpus(), STAGING_BYTES // _worker_bytes(n, max_lag)))
    group = 1
    while (group < most and (group + 1) * workers <= units
           and workers * _worker_bytes(n, max_lag, group + 1) <= STAGING_BYTES):
        group += 1
    return workers, group


def _split(starts: Iterable, workers: int, work: Callable[[Iterator], np.ndarray]) -> np.ndarray:
    """The sum of work(units) over workers threads, the caller and
    workers - 1 helpers, which all take their units from one shared iterator
    over starts. Each work returns exact integer partial sums, so the total
    is the same for any split. The helpers are joined before this returns
    or raises, and the first error a worker raised is raised here."""
    if workers <= 1:
        return work(iter(starts))
    shared, lock, errors = iter(starts), threading.Lock(), []
    parts = []

    def units():
        while not errors:
            with lock:
                start = next(shared, None)
            if start is None:
                return
            yield start

    def run():
        try:
            parts.append(work(units()))
        except BaseException as exc:  # raised in the caller
            errors.append(exc)

    started = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=run)
            try:
                helper.start()
            except RuntimeError:  # no thread to be had: fewer workers do it all
                break
            started.append(helper)
        run()
    except BaseException as exc:
        errors.append(exc)
    finally:
        for helper in started:
            helper.join()
    if errors:
        raise errors[0]
    return sum(parts[1:], parts[0])


def _gemm_products(series: np.ndarray, max_lag: int, workers: int | None = None,
                   group: int | None = None) -> np.ndarray:
    # Row r of a chunk of series j is s[r*w:(r+1)*w], zero past the end of
    # the series. A worker takes group consecutive chunks at once: flat[j]
    # holds their rows and the row after them, and chunk c of them starts at
    # flat[j, c*rows*w]. Block b of a row is its bw bytes at offset b*bw, and
    # band b the bw + l bytes from there on, which run into the next row:
    # x[j, c, b] and y[j, c, b] read them from every row of chunk c in place
    # (row stride w >= bw + l, so both are plain BLAS operands).
    # prod[j, c, b] = x[j, c, b].T @ y[j, c, b] holds at [a, a + k] the sum of
    # s[i] * s[i + k] over chunk c's i = b*bw + a (mod w), so diagonal k of
    # prod[j], summed over its chunks and blocks, is the group's p[k]. Each
    # worker owns these buffers and takes group starts from one shared
    # iterator; workers and group default to _split_plan's.
    k, n = series.shape
    bw, w, rows = _gemm_shape(n, max_lag)
    blocks, band = w // bw, bw + max_lag
    step = rows * w
    plan = _split_plan(n, max_lag)
    workers = plan[0] if workers is None else workers
    group = plan[1] if group is None else group
    span = group * step

    def work(starts: Iterator[int]) -> np.ndarray:
        flat = np.empty((k, span + w), dtype=np.float32)
        item = flat.itemsize
        x = np.lib.stride_tricks.as_strided(
            flat, shape=(k, group, blocks, bw, rows),
            strides=(flat.strides[0], step * item, bw * item, item, w * item))
        y = np.lib.stride_tricks.as_strided(
            flat, shape=(k, group, blocks, rows, band),
            strides=(flat.strides[0], step * item, bw * item, w * item, item))
        prod = np.empty((k, group, blocks, bw, band), dtype=np.float32)
        diagonals = np.lib.stride_tricks.as_strided(
            prod, shape=(k, max_lag + 1, group, blocks, bw),
            strides=(prod.strides[0], item, prod.strides[1], bw * band * item, (band + 1) * item))
        out = np.zeros((k, max_lag + 1), dtype=np.float64)  # integer sums below 2**53: exact
        for start in starts:
            seg = series[:, start:start + span + w]
            flat[:, :seg.shape[1]] = seg
            flat[:, seg.shape[1]:] = 0
            chunks = -(-seg.shape[1] // step)
            if chunks < group:  # the series' last group, so no further start comes
                x, y, prod = x[:, :chunks], y[:, :chunks], prod[:, :chunks]
                diagonals = diagonals[:, :, :chunks]
            np.matmul(x, y, out=prod)
            out += diagonals.sum(axis=(2, 3, 4), dtype=np.float64)
        return out

    return _split(range(0, n, span), workers, work).astype(np.int64)


def _fft_products(series: np.ndarray, max_lag: int, workers: int | None = None) -> np.ndarray:
    # Each worker takes (series, block start) pairs from one shared iterator
    # into its own int64 sums; workers defaults to _split_plan's.
    k, n = series.shape
    block = AUTOCORR_BLOCK
    size = _fast_len(min(n, block) + max_lag)

    def work(units: Iterator[tuple[int, int]]) -> np.ndarray:
        out = np.zeros((k, max_lag + 1), dtype=np.int64)
        for j, start in units:
            out[j] += _block_products(series[j, start:start + block + max_lag],
                                      min(block, n - start), max_lag, size)
        return out

    workers = _split_plan(n, max_lag)[0] if workers is None else workers
    return _split(itertools.product(range(k), range(0, n, block)), workers, work)


def _uses_gemm(n: int, max_lag: int) -> bool:
    return max_lag <= GEMM_LAGS or (max_lag <= GEMM_MAX_LAGS and n >= GEMM_WIDE_ROWS * max_lag)


def lagged_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Exact int64 sums p[k] = sum_i s[i] * s[i + k] for k = 0..max_lag over a
    uint8 series, or over each row of a (k, n) stack of them: by float32
    matrix products for max_lag <= GEMM_LAGS and for max_lag <= GEMM_MAX_LAGS
    on a series of at least GEMM_WIDE_ROWS rows of width max_lag, by FFTs over
    blocks of AUTOCORR_BLOCK bytes otherwise. Both are exact, and split a long
    series over _split_plan's threads, so the path and the split change only the
    time taken."""
    stack = series.reshape(-1, series.shape[-1])
    kernel = _gemm_products if _uses_gemm(stack.shape[1], max_lag) else _fft_products
    return kernel(stack, max_lag).reshape(series.shape[:-1] + (max_lag + 1,))


def _series_staging_bytes(n: int, l: int, plan: tuple[int, int] | None = None) -> int:
    # Per series: its n bytes, stacked, about a dozen int64 or float64 moment
    # arrays of l entries (the first worker's partial sums among them), on
    # the GEMM path its share of the first worker's float32 buffers, and
    # everything each further worker allocates (_worker_bytes), for the
    # (workers, group) of plan, by default _split_plan's. The first worker's
    # FFT buffers are one series' worth whatever the batch.
    workers, group = _split_plan(n, l) if plan is None else plan
    per_series = n + 12 * 8 * l + (workers - 1) * _worker_bytes(n, l, group)
    if _uses_gemm(n, l):
        per_series += _gemm_buffer_bytes(n, l, group)
    return per_series


def autocorr_batch_size(n: int, l: int) -> int:
    """How many series of n bytes autocorrelation_rows takes at once at lag l:
    as many as fit STAGING_BYTES, each costing its bytes, its moment arrays
    and its GEMM buffers (_series_staging_bytes). The FFT path's buffers are
    one series' worth whatever the batch, since it transforms one series at
    a time."""
    return max(1, STAGING_BYTES // _series_staging_bytes(n, l))


def autocorr_series(sample: BinarySample, l: int) -> np.ndarray:
    """The sample's bytes as the uint8 series the autocorrelation at lag l
    reads, once the lag and the sample's length are checked."""
    if l < 1:
        raise ValueError(f"lag parameter must be >= 1, got {l}")
    n = len(sample.data)
    if n < l + 2:
        raise SampleTooShort(f"autocorrelation with lag {l} needs >= {l + 2} bytes, got {n}")
    return np.frombuffer(sample.data, dtype=np.uint8)


def _series_totals(stack: np.ndarray) -> np.ndarray:
    # Each series' byte sum, exact in int64: runs of 256 bytes are summed in
    # uint16 (256 * 255 < 2**16), read in place, and only those partial sums
    # and the ragged tail are widened. On 4 MiB that took 0.77 ms against
    # 1.84 for one int64 sum over every byte.
    k, n = stack.shape
    head = n - n % 256
    runs = np.lib.stride_tricks.as_strided(
        stack, shape=(k, head // 256, 256),
        strides=(stack.strides[0], 256 * stack.strides[1], stack.strides[1]))
    return (runs.sum(axis=2, dtype=np.uint16).sum(axis=1, dtype=np.int64)
            + stack[:, head:].sum(axis=1, dtype=np.int64))


def autocorrelation_rows(series: Sequence[np.ndarray], l: int) -> np.ndarray:
    """(f(1), ..., f(l)) of each of a few equal-length series from
    autocorr_series, as the rows of one (len(series), l) array."""
    # Window x = s[:n-k] drops the last k bytes, window y = s[k:] the first k.
    stack = series[0][None] if len(series) == 1 else np.stack(series)
    n = stack.shape[1]
    products = lagged_products(stack, l)
    total = _series_totals(stack)[:, None]
    head = stack[:, :l].astype(np.int64)
    tail = stack[:, n - l:][:, ::-1].astype(np.int64)
    sx = (total - np.cumsum(tail, axis=1)).astype(np.float64)
    sy = (total - np.cumsum(head, axis=1)).astype(np.float64)
    sxx = (products[:, :1] - np.cumsum(tail * tail, axis=1)).astype(np.float64)
    syy = (products[:, :1] - np.cumsum(head * head, axis=1)).astype(np.float64)
    m = np.arange(n - 1, n - l - 1, -1, dtype=np.float64)
    return _pearson_from_moments(m, sx, sy, sxx, syy, products[:, 1:].astype(np.float64))


def autocorrelation_feature(sample: BinarySample, l: int) -> np.ndarray:
    """The ordered vector (f(1), ..., f(l))."""
    return autocorrelation_rows([autocorr_series(sample, l)], l)[0]
