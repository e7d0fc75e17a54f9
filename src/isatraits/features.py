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
  GEMM_WIDE_ROWS rows of width l): each series is read as rows of width
  w = max(l, GEMM_MIN_WIDTH), GEMM_ROWS rows at a time, each chunk of
  every series in the batch copied into one reused float32 buffer next to
  the row that follows each of its rows. One batched float32 matrix
  product per chunk (a matrix per series) gives every sum of s[i]*s[i+k]
  over the chunk's i in one residue class mod w; p[k] is its k-th
  diagonal. Every entry sums at most GEMM_ROWS byte products of at
  most 255**2, and 256 * 255**2 < 2**24, so each float32 partial sum is an
  exact integer whatever order, thread split or FMA the BLAS uses. The
  diagonals are summed in float64, exact below 2**53. O(n l) time.
* FFT (every other l): one series and one block of AUTOCORR_BLOCK bytes
  at a time, each block correlated with itself plus the l bytes that
  follow it by a zero-padded real FFT (Wiener-Khinchin). Every moment is
  an integer below 2**53 and each block's FFT error is far below 0.5
  (under 1e-6 for blocks of 8 to 32 KiB, even of all-0xff bytes), so
  rounding each block's products to the nearest integer recovers them
  exactly. O(n log(block + l)) time.

Which path is faster was measured (tables in CHANGES.md): at 4 MiB and
lag 128 the GEMM path took about 40 ms against about 200 ms for the FFT.
The GEMM path's cost per byte grows with l and, on short series, with its
per-chunk work, so on 8 KiB the FFT is as fast from about lag 256 up, while
at lag 512 the GEMM path is about twice as fast from 64 KiB up. Both paths
keep a series uint8 and copy it only one chunk or block at a time, so a
batch of one needs O(GEMM_ROWS * l + l**2) or O(block + l) extra memory,
never O(n).

The window sums Sx, Sy, Sxx and Syy of every lag come from the series
total, the lag-0 product and cumulative sums over the first and last l
bytes. The Pearson formula then runs in float64 on the same integers that
a per-lag loop sums, elementwise over the batch's (series, l) array, so
f(1..l) is bit-identical to the per-lag computation, whatever the batch,
and to the first l values of f(1..L) for any L >= l.

Batching pays for many short series, where per-call overhead dominates:
on 140 series of 8 KiB at lag 16 the GEMM path took 6.5 ms in batches of
12 against 20 ms one series at a time. The FFT path transforms one series
at a time whatever the batch, since batched transforms measured no faster,
so a batch there shares its moment and Pearson arithmetic, which runs once
per batch and not once per series: extract_features on 140 series of 8 KiB
at lag 1024 took about 49 ms in batches of 9 against 59 ms one series at a
time. autocorr_batch_size caps a batch so that its stacked bytes, moment
arrays and, on the GEMM path, float32 buffers stay within STAGING_BYTES,
whatever the corpus size; a series too long to share that budget is a
batch of one, read in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .corpus import BinarySample
from .errors import SampleTooShort

BIGRAM_DIM = 256 * 256
SIGNATURE_BIGRAMS = (0xFFFE, 0xFEFF, 0x0001, 0x0100)
# Entry 256*b0 + b1 is the native uint16 of bytes (b0, b1): native-order
# views, since comparing big-endian views made endsig 2.7x slower on 4 MiB.
_BIN_WORDS = np.arange(BIGRAM_DIM, dtype=">u2").view(np.uint16)

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
    counts = [np.count_nonzero(even == word) + np.count_nonzero(odd == word)
              for word in _BIN_WORDS[list(SIGNATURE_BIGRAMS)]]
    return np.array(counts, dtype=np.float64) / (len(sample.data) - 1)


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
# O(l) per byte, a block's FFT O(log(block + l)); on 8 KiB samples the two
# are level at 256 lags and the FFT is 2x faster at 512 (table in CHANGES.md).
GEMM_LAGS = 256
# Up to this many lags the GEMM path is also used on a series of at least
# GEMM_WIDE_ROWS rows of width l, where its per-chunk work is spread over
# enough rows: at lag 512 it took 0.4-0.6 of the FFT's time from 64 KiB up,
# but 0.6-1.2 at 32 KiB and 1.2-2.3 at 8-16 KiB. At lag 1024 the FFT is
# faster at every size (tables in CHANGES.md).
GEMM_MAX_LAGS = 512
GEMM_WIDE_ROWS = 128
# Rows per GEMM chunk. Each float32 product entry sums GEMM_ROWS byte
# products of at most 255**2, so it stays an integer below 2**24: exact in
# any summation order.
GEMM_ROWS = 256
# Narrowest row of the GEMM path: below it the per-chunk overhead dominates,
# so small lags use rows this wide and read fewer diagonals.
GEMM_MIN_WIDTH = 32
# Bytes a batch of series may stage at once (autocorr_batch_size): 12
# series of 8 KiB at lag 16, as fast per series as 16 or 32 were, while one
# series at a time took 3x as long.
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


def _fft_row_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    n = series.size
    block = AUTOCORR_BLOCK
    size = _fast_len(min(n, block) + max_lag)
    out = np.zeros(max_lag + 1, dtype=np.int64)
    for start in range(0, n, block):
        out += _block_products(series[start:start + block + max_lag], min(block, n - start),
                               max_lag, size)
    return out


def _gemm_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    # Row r of a chunk of series j is s[r*w:(r+1)*w], zero past the end of
    # the series. Row r of buf[j] is [row r | row r+1], so prod[j] =
    # this_row[j].T @ buf[j] holds at [a, a + k] the sum of s[i] * s[i + k] over
    # the chunk's i = a (mod w), for k = 0..w: diagonal k of prod[j], summed,
    # is the chunk's p[k] of series j.
    k, n = series.shape
    w = max(max_lag, GEMM_MIN_WIDTH)
    rows = min(GEMM_ROWS, max(1, -(-n // w)))
    step = rows * w
    buf = np.empty((k, rows, 2 * w), dtype=np.float32)
    this_row, next_row = buf[:, :, :w], buf[:, :, w:]
    prod = np.empty((k, w, 2 * w), dtype=np.float32)
    item = prod.itemsize
    diagonals = np.lib.stride_tricks.as_strided(
        prod, shape=(k, max_lag + 1, w), strides=(2 * w * w * item, item, (2 * w + 1) * item))
    out = np.zeros((k, max_lag + 1), dtype=np.float64)  # integer sums below 2**53: exact
    for start in range(0, n, step):
        seg = series[:, start:start + step + w]
        if seg.shape[1] < step + w:
            seg = np.concatenate([seg, np.zeros((k, step + w - seg.shape[1]), dtype=np.uint8)],
                                 axis=1)
        seg = seg.reshape(k, rows + 1, w)
        this_row[:] = seg[:, :-1]
        next_row[:] = seg[:, 1:]
        np.matmul(this_row.transpose(0, 2, 1), buf, out=prod)
        out += diagonals.sum(axis=2, dtype=np.float64)
    return out.astype(np.int64)


def _fft_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    out = np.empty((series.shape[0], max_lag + 1), dtype=np.int64)
    for row, products in zip(series, out):
        products[:] = _fft_row_products(row, max_lag)
    return out


def _uses_gemm(n: int, max_lag: int) -> bool:
    return max_lag <= GEMM_LAGS or (max_lag <= GEMM_MAX_LAGS and n >= GEMM_WIDE_ROWS * max_lag)


def lagged_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Exact int64 sums p[k] = sum_i s[i] * s[i + k] for k = 0..max_lag over a
    uint8 series, or over each row of a (k, n) stack of them: by float32
    matrix products for max_lag <= GEMM_LAGS and for max_lag <= GEMM_MAX_LAGS
    on a series of at least GEMM_WIDE_ROWS rows of width max_lag, by FFTs over
    blocks of AUTOCORR_BLOCK bytes otherwise. Both are exact, so the choice
    changes only the time taken."""
    stack = series.reshape(-1, series.shape[-1])
    kernel = _gemm_products if _uses_gemm(stack.shape[1], max_lag) else _fft_products
    return kernel(stack, max_lag).reshape(series.shape[:-1] + (max_lag + 1,))


def autocorr_batch_size(n: int, l: int) -> int:
    """How many series of n bytes autocorrelation_rows takes at once at lag l:
    as many as fit STAGING_BYTES, each costing its n bytes, stacked, about a
    dozen int64 or float64 moment arrays of l entries and, on the GEMM path,
    its float32 chunk and product buffers. The FFT path's buffers are one
    series' worth whatever the batch, since it transforms one series at a
    time."""
    per_series = n + 12 * 8 * l
    if _uses_gemm(n, l):
        w = max(l, GEMM_MIN_WIDTH)
        per_series += (min(GEMM_ROWS, -(-n // w)) + w) * 2 * w * 4
    return max(1, STAGING_BYTES // per_series)


def autocorr_series(sample: BinarySample, l: int) -> np.ndarray:
    """The sample's bytes as the uint8 series the autocorrelation at lag l
    reads, once the lag and the sample's length are checked."""
    if l < 1:
        raise ValueError(f"lag parameter must be >= 1, got {l}")
    n = len(sample.data)
    if n < l + 2:
        raise SampleTooShort(f"autocorrelation with lag {l} needs >= {l + 2} bytes, got {n}")
    return np.frombuffer(sample.data, dtype=np.uint8)


def autocorrelation_rows(series: Sequence[np.ndarray], l: int) -> np.ndarray:
    """(f(1), ..., f(l)) of each of a few equal-length series from
    autocorr_series, as the rows of one (len(series), l) array."""
    # Window x = s[:n-k] drops the last k bytes, window y = s[k:] the first k.
    stack = series[0][None] if len(series) == 1 else np.stack(series)
    n = stack.shape[1]
    products = lagged_products(stack, l)
    total = stack.sum(axis=1, dtype=np.int64)[:, None]
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
