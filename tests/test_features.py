import hashlib
import itertools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isatraits import evaluate, features
from isatraits.classify import spec_from_name
from isatraits.corpus import (
    BinarySample,
    SampleRef,
    generate_synthetic_endian,
    generate_synthetic_fixedwidth,
)
from isatraits.errors import SampleTooShort
from isatraits.evaluate import Task, grid_search_lag, mean_curve_by_class
from isatraits.features import (
    AUTOCORR,
    AUTOCORR_BLOCK,
    BIGRAM_DIM,
    ENDSIG_CHUNK,
    GEMM_BLOCKS,
    GEMM_GROUP,
    GEMM_LAGS,
    GEMM_MAX_LAGS,
    GEMM_ROWS,
    GEMM_WIDE_ROWS,
    SIGNATURE_BIGRAMS,
    STAGING_BYTES,
    FeatureConfig,
    autocorr_batch_size,
    autocorrelation_feature,
    bigram_histogram,
    endianness_signatures,
    lagged_products,
)

from oracles import PlanReference, autocorr_oracle, autocorr_reference, bigram_count_oracle


def sample(data: bytes, isa="test") -> BinarySample:
    return BinarySample(data, isa, f"mem://{isa}")


class TestBigramHistogram:
    def test_single_bigram(self):
        vec = bigram_histogram(sample(bytes([0x00, 0x01])))
        assert vec[0x0001] == 1.0
        assert vec.sum() == 1.0
        assert len(vec) == BIGRAM_DIM

    def test_overlapping_pairs(self):
        vec = bigram_histogram(sample(bytes([0xAA, 0xAA, 0xAA])))
        assert vec[0xAAAA] == 1.0

    def test_matches_pair_count_oracle(self):
        rng = random.Random(13)
        data = bytes(rng.randrange(256) for _ in range(4096))
        vec = bigram_histogram(sample(data))
        expected = bigram_count_oracle(data)
        for bin_index in range(BIGRAM_DIM):
            assert vec[bin_index] == expected.get(bin_index, 0) / (len(data) - 1)

    def test_too_short(self):
        with pytest.raises(SampleTooShort):
            bigram_histogram(sample(b"\x00"))

    def test_16mib_input_peaks_under_five_times_its_size(self):
        # The pairs are read as two uint16 views of the input; what is left
        # is np.bincount's cast of one view to intp (4x the input).
        data = random_bytes(16 << 20, seed=17)
        tracemalloc.start()
        try:
            bigram_histogram(sample(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(data), f"peak {peak / len(data):.2f}x the input"

    @given(st.binary(min_size=2, max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_and_nonnegative(self, data):
        vec = bigram_histogram(sample(data))
        assert abs(vec.sum() - 1.0) <= 1e-9
        assert (vec >= 0.0).all()


class TestEndiannessSignatures:
    def test_single_fffe(self):
        vec = endianness_signatures(sample(bytes([0xFF, 0xFE])))
        assert vec.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_0001_and_0100(self):
        vec = endianness_signatures(sample(bytes([0x00, 0x01, 0x00])))
        assert vec.tolist() == [0.0, 0.0, 0.5, 0.5]

    def test_matches_full_histogram_bins(self):
        rng = random.Random(7)
        for _ in range(5):
            data = bytes(rng.choice([0x00, 0x01, 0xFE, 0xFF]) for _ in range(256))
            sig = endianness_signatures(sample(data))
            full = bigram_histogram(sample(data))
            for slot, bin_index in enumerate(SIGNATURE_BIGRAMS):
                assert sig[slot] == full[bin_index]

    @staticmethod
    def assert_equals_histogram_bins(data: bytes):
        counts = bigram_count_oracle(data)
        expected = np.array([counts.get(b, 0) for b in SIGNATURE_BIGRAMS]) / (len(data) - 1)
        values = endianness_signatures(sample(data))
        assert values.dtype == np.float64
        assert np.array_equal(values, expected), data[:16]

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_short_input_over_signature_bytes(self, n):
        alphabet = (0x00, 0x01, 0x10, 0xFE, 0xFF)
        for combo in itertools.product(alphabet, repeat=n):
            self.assert_equals_histogram_bins(bytes(combo))

    @pytest.mark.parametrize("n", [2, 3, 7, 4096, 65537])
    def test_random_inputs(self, n):
        rng = np.random.default_rng(n)
        self.assert_equals_histogram_bins(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
        signature_bytes = np.array([0x00, 0x01, 0xFE, 0xFF], dtype=np.uint8)
        self.assert_equals_histogram_bins(rng.choice(signature_bytes, n).tobytes())

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, 3, 4 * ENDSIG_CHUNK + 5])
    def test_inputs_over_several_chunks(self, extra):
        # The even and odd views of 2 * ENDSIG_CHUNK + extra bytes end one
        # word short of a chunk, on its end or one word past it; the last
        # input spans several chunks and a ragged one.
        n = 2 * ENDSIG_CHUNK + extra
        rng = np.random.default_rng(n)
        data = rng.choice(np.array([0x00, 0x01, 0xFE, 0xFF], dtype=np.uint8), n).tobytes()
        full = bigram_histogram(sample(data))
        assert np.array_equal(endianness_signatures(sample(data)), full[list(SIGNATURE_BIGRAMS)])

    @pytest.mark.parametrize("byte", [0xFF, 0xFE, 0x00, 0x01])
    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_constant_runs(self, byte, n):
        self.assert_equals_histogram_bins(bytes([byte]) * n)

    @pytest.mark.parametrize("slot, pair", enumerate(SIGNATURE_BIGRAMS))
    def test_pair_in_last_two_bytes(self, slot, pair):
        data = b"\x10" * 99 + pair.to_bytes(2, "big")
        self.assert_equals_histogram_bins(data)
        assert endianness_signatures(sample(data))[slot] == 1 / 100

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 100])
    @pytest.mark.parametrize("slot, pair", enumerate(SIGNATURE_BIGRAMS))
    def test_pair_at_last_offset_of_odd_and_even_lengths(self, slot, pair, n):
        # The last pair starts at an even offset when n is even, an odd one when n is odd.
        data = b"\x10" * (n - 2) + pair.to_bytes(2, "big")
        self.assert_equals_histogram_bins(data)
        assert endianness_signatures(sample(data))[slot] == 1 / (n - 1)

    def test_le_files_favor_0100_over_0001(self):
        manifest = generate_synthetic_endian(2, 16, 4096, seed=21)  # 32 LE files
        le_samples = [r for r in manifest.samples if r.isa_name.startswith("synthLE")]
        assert len(le_samples) >= 30
        sigs = np.array([endianness_signatures(r.load()) for r in le_samples])
        means = sigs.mean(axis=0)
        assert means[3] > means[2]  # 0x0100 over 0x0001
        assert means[1] > means[0]  # 0xfeff over 0xfffe

    def test_pair_swap_swaps_signature_components(self):
        # Pure 2-byte-value stream built so cross-pair bigrams never hit
        # the four signature bins; swapping every pair must then swap the
        # components exactly.
        rng = random.Random(3)
        words = []
        for _ in range(512):
            words.append(rng.choice([b"\x01\x00", b"\xfe\xff"]))
            words.append(b"\x10\x20")  # neutral separator
        data = b"".join(words)
        swapped = b"".join(data[i + 1:i + 2] + data[i:i + 1] for i in range(0, len(data), 2))
        orig = endianness_signatures(sample(data))
        flip = endianness_signatures(sample(swapped))
        assert orig[0] == flip[1] and orig[1] == flip[0]
        assert orig[2] == flip[3] and orig[3] == flip[2]


class TestPearson:
    """The Pearson formula of the autocorrelation, on windows whose value is
    known: s[:n-k] against s[k:]."""

    def test_identical_sequences(self):
        assert autocorrelation_feature(sample(bytes([1, 2, 3, 1, 2, 3])), 3)[3 - 1] == 1.0

    def test_exact_anticorrelation(self):
        assert autocorrelation_feature(sample(bytes([1, 2, 3, 2, 1])), 2)[2 - 1] == -1.0

    def test_oracle_value_for_hump(self):
        data = bytes([0, 0, 2, 1])  # windows [0, 0, 2] and [0, 2, 1]
        expected = autocorr_oracle(data, 1)
        assert expected == 0.0  # numerator 3*2 - 2*3 vanishes
        assert autocorrelation_feature(sample(data), 1)[1 - 1] == expected

    def test_zero_variance_sentinel(self):
        assert autocorrelation_feature(sample(bytes([5, 5, 5, 1, 2, 3])), 3)[3 - 1] == 0.0
        assert autocorrelation_feature(sample(bytes([5, 5, 5, 1, 2, 3])), 3)[2] == 0.0

    @given(st.lists(st.integers(0, 255), min_size=3, max_size=64), st.data())
    @settings(max_examples=100, deadline=None)
    def test_range_and_oracle_agreement(self, xs, data):
        k = data.draw(st.integers(1, len(xs) - 2))
        values = autocorrelation_feature(sample(bytes(xs)), k)
        assert ((values >= -1.0) & (values <= 1.0)).all()
        for lag in (1, k):
            assert values[lag - 1] == pytest.approx(autocorr_oracle(xs, lag), abs=1e-9)


class TestAutocorrAtLag:
    def test_periodic_lag_equals_period(self):
        data = bytes([1, 2, 3, 4] * 64)
        assert autocorrelation_feature(sample(data), 4)[4 - 1] == pytest.approx(1.0, abs=1e-12)

    def test_periodic_lag_one_is_negative(self):
        data = bytes([1, 2, 3, 4] * 64)
        value = autocorrelation_feature(sample(data), 1)[1 - 1]
        assert value < 0.0
        assert value == pytest.approx(autocorr_oracle(data, 1), abs=1e-9)

    def test_constant_series(self):
        assert autocorrelation_feature(sample(bytes([5] * 6)), 2)[2 - 1] == 0.0

    def test_lag_too_large(self):
        with pytest.raises(SampleTooShort):
            autocorrelation_feature(sample(bytes(8)), 7)[7 - 1]
        autocorrelation_feature(sample(bytes(range(8))), 6)[6 - 1]  # k = n-2 is the boundary

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            autocorrelation_feature(sample(bytes(8)), 0)[0 - 1]

    def test_matches_oracle_on_random_samples(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randrange(64, 512)
            data = bytes(rng.randrange(256) for _ in range(n))
            k = rng.randrange(1, 33)
            assert autocorrelation_feature(sample(data), k)[k - 1] == pytest.approx(
                autocorr_oracle(data, k), abs=1e-9
            )


class TestAutocorrelationFeature:
    def test_periodic_vector(self):
        data = bytes([1, 2, 3, 4] * 64)
        vec = autocorrelation_feature(sample(data), 4)
        assert vec.dtype == np.float64 and vec.shape == (4,)
        assert vec[3] == pytest.approx(1.0, abs=1e-12)
        assert vec[3] == vec.max()
        for k in (1, 2, 3):
            assert vec[k - 1] == pytest.approx(autocorr_oracle(data, k), abs=1e-9)

    def test_width32_synthetic_peaks_at_multiples_of_four(self):
        manifest = generate_synthetic_fixedwidth([32], 1, 1, 8192, 0, seed=17)
        vec = autocorrelation_feature(manifest.samples[0].load(), 32)
        for k in range(4, 33, 4):
            assert vec[k - 1] > vec[k - 2]
            if k < 32:
                assert vec[k - 1] > vec[k]

    def test_boundary_lag_too_long(self):
        data = bytes(range(32))
        with pytest.raises(SampleTooShort):
            autocorrelation_feature(sample(data), 31)  # l = n-1 needs n+1 bytes
        autocorrelation_feature(sample(data), 30)

    def test_shift_theorem_exact_periods(self):
        rng = random.Random(5)
        for period in (2, 3, 4, 8, 16):
            pattern = [rng.randrange(256) for _ in range(period)]
            if len(set(pattern)) == 1:
                pattern[0] = (pattern[0] + 1) % 256
            data = bytes(pattern * (256 // period + 2))
            vec = autocorrelation_feature(sample(data), 64)
            for m in range(1, 64 // period + 1):
                assert vec[m * period - 1] == pytest.approx(1.0, abs=1e-9)

    def test_values_in_range(self):
        rng = random.Random(1)
        data = bytes(rng.randrange(256) for _ in range(256))
        vec = autocorrelation_feature(sample(data), 64)
        assert (vec >= -1.0).all() and (vec <= 1.0).all()


class TestFeatureConfig:
    @pytest.mark.parametrize("config, extract", [
        (FeatureConfig("bigrams"), bigram_histogram),
        (FeatureConfig("endsig"), endianness_signatures),
        (FeatureConfig(AUTOCORR, 7), lambda s: autocorrelation_feature(s, 7)),
    ], ids=["bigrams", "endsig", "autocorr"])
    def test_dim_is_the_length_of_the_extractors_vector(self, config, extract):
        values = extract(sample(bytes(range(256)) * 4))
        assert values.dtype == np.float64 and values.shape == (config.dim,)

    @pytest.mark.parametrize("name, lag, message", [
        ("trigram", None, "unknown feature 'trigram'; valid: bigrams, endsig, autocorr"),
        (AUTOCORR, None, "positive lag"),
        (AUTOCORR, 0, "positive lag"),
        ("endsig", 7, "endsig takes no lag, got 7"),
        ("bigrams", 1, "bigrams takes no lag, got 1"),
    ])
    def test_rejects_what_no_extractor_takes(self, name, lag, message):
        with pytest.raises(ValueError, match=message):
            FeatureConfig(name, lag)


def random_bytes(n, seed):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def filled_series(n, fill, seed):
    """n random bytes, or n bytes of 0xff, as a uint8 series."""
    if fill == "random":
        return np.frombuffer(random_bytes(n, seed=seed), dtype=np.uint8)
    return np.full(n, 0xFF, dtype=np.uint8)


def block_edge_lags():
    """The GEMM lags where the kernel's shape changes: the edges of each
    GEMM_BLOCKS range and of the path, and bw - 1, bw, bw + 1, 2bw - 1 and
    2bw + 1 for every block height bw."""
    lags = {1, GEMM_LAGS, GEMM_LAGS + 1}
    for top, bw in GEMM_BLOCKS:
        lags |= {top, top + 1, bw - 1, bw, bw + 1, 2 * bw - 1, 2 * bw + 1}
    return sorted(lag for lag in lags if 1 <= lag <= GEMM_MAX_LAGS)


def int64_products(series, lag):
    """[sum_i s[i] * s[i + k] for k = 0..lag] by int64 dot products."""
    wide = series.astype(np.int64)
    return [int(wide[:wide.size - k] @ wide[k:]) for k in range(lag + 1)]


def direct_lagged_product(series, k, chunk=1 << 20):
    """sum_i s[i] * s[i + k] as int64 dot products over chunks of the series."""
    total = 0
    for start in range(0, series.size - k, chunk):
        stop = min(start + chunk, series.size - k)
        total += int(series[start:stop].astype(np.int64) @ series[start + k:stop + k].astype(np.int64))
    return total


class TestAutocorrKernel:
    """The autocorrelation kernel against a per-lag loop: equal bit for bit,
    not to a tolerance, because every moment it uses is an exact integer."""

    def test_bit_equal_to_per_lag_reference_on_corpus(self):
        manifest = generate_synthetic_fixedwidth([16, 32, 64], 2, 2, 4096, 2, seed=11)
        for ref in manifest.samples:
            data = ref.load().data
            assert np.array_equal(autocorrelation_feature(sample(data), 256),
                                  autocorr_reference(data, 256))

    @pytest.mark.parametrize("n", [AUTOCORR_BLOCK - 1, AUTOCORR_BLOCK, AUTOCORR_BLOCK + 1])
    def test_block_boundaries_with_lag_near_n(self, n):
        data = random_bytes(n, seed=n)
        l = n - 2
        assert np.array_equal(autocorrelation_feature(sample(data), l),
                              autocorr_reference(data, l))

    @pytest.mark.parametrize("n", [200, AUTOCORR_BLOCK, AUTOCORR_BLOCK + 1, 2 * AUTOCORR_BLOCK + 70])
    @pytest.mark.parametrize("lag", [1, 5, 63, 64, 150, GEMM_LAGS, GEMM_LAGS + 1])
    def test_products_equal_int64_dots(self, n, lag):
        series = np.frombuffer(random_bytes(n, seed=n + lag), dtype=np.uint8)
        expected = [direct_lagged_product(series, k) for k in range(lag + 1)]
        assert lagged_products(series, lag).tolist() == expected

    @pytest.mark.parametrize("fill", ["random", "0xff"])
    @pytest.mark.parametrize("lag", block_edge_lags())
    def test_products_at_chunk_boundaries(self, lag, fill):
        # A GEMM chunk holds at most GEMM_ROWS rows of the kernel's row width,
        # so a byte past GEMM_ROWS or 2 * GEMM_ROWS rows adds a chunk; at these
        # lags the block height changes or a row gains a block. All-0xff bytes
        # give the largest float32 partial sums.
        width = features._gemm_shape(0, lag)[1]
        ends = {GEMM_ROWS * lag, GEMM_ROWS * width, 2 * GEMM_ROWS * width}
        for n in sorted(end + d for end in ends for d in (-1, 0, 1)):
            series = filled_series(n, fill, seed=n)
            assert lagged_products(series, lag).tolist() == int64_products(series, lag), n

    @pytest.mark.parametrize("n", [0, 1, 4096, 8192, 65536, (1 << 20) + 3, 4 << 20])
    def test_gemm_shape_holds_every_band(self, n):
        for lag in range(1, GEMM_MAX_LAGS + 1):
            bw, width, rows = features._gemm_shape(n, lag)
            assert width % bw == 0 and width >= bw + lag and 1 <= rows <= GEMM_ROWS, lag

    @pytest.mark.parametrize("n", [3, 255, 256, 257, 4096 + 77])
    def test_series_totals_are_exact(self, n):
        # All-0xff runs of 256 bytes give the largest uint16 partial sums.
        stack = np.stack([filled_series(n, fill, seed=seed)
                          for seed, fill in enumerate(["random", "0xff", "random"])])
        assert np.array_equal(features._series_totals(stack), stack.sum(axis=1, dtype=np.int64))

    @pytest.mark.parametrize("lag", [16, GEMM_LAGS])
    def test_batch_with_ragged_last_chunk(self, lag):
        width = features._gemm_shape(0, lag)[1]
        n = 2 * GEMM_ROWS * width + 5 * width // 3 + 1
        stack = np.stack([filled_series(n, fill, seed=seed)
                          for seed, fill in enumerate(["random", "0xff", "random"])])
        assert lagged_products(stack, lag).tolist() == [int64_products(row, lag) for row in stack]

    @settings(max_examples=60, deadline=None)
    @given(lag=st.integers(1, 512), extra=st.integers(1, 40_000), fill=st.integers(-1, 255),
           seed=st.integers(0, 2**32 - 1))
    def test_products_equal_int64_dots_for_any_series(self, lag, extra, fill, seed):
        # fill -1: random bytes; otherwise every byte is fill.
        n = lag + extra
        if fill < 0:
            series = np.frombuffer(random_bytes(n, seed), dtype=np.uint8)
        else:
            series = np.full(n, fill, dtype=np.uint8)
        assert lagged_products(series, lag).tolist() == int64_products(series, lag)

    @pytest.mark.parametrize("lag, n, path", [
        (GEMM_LAGS, 32, "gemm"),
        (GEMM_LAGS + 1, GEMM_WIDE_ROWS * (GEMM_LAGS + 1) - 1, "fft"),
        (GEMM_LAGS + 1, GEMM_WIDE_ROWS * (GEMM_LAGS + 1), "gemm"),
        (GEMM_MAX_LAGS, GEMM_WIDE_ROWS * GEMM_MAX_LAGS - 1, "fft"),
        (GEMM_MAX_LAGS, GEMM_WIDE_ROWS * GEMM_MAX_LAGS, "gemm"),
        (GEMM_MAX_LAGS + 1, GEMM_WIDE_ROWS * (GEMM_MAX_LAGS + 1), "fft"),
    ])
    def test_path_chosen_from_lag_and_size(self, lag, n, path, monkeypatch):
        taken = []
        for name in ("_gemm_products", "_fft_products"):
            def spy(series, max_lag, *split, kernel=getattr(features, name), name=name):
                taken.append(name)
                return kernel(series, max_lag, *split)
            monkeypatch.setattr(features, name, spy)
        series = np.frombuffer(random_bytes(n, seed=lag), dtype=np.uint8)
        expected = [direct_lagged_product(series, k) for k in range(lag + 1)]
        assert lagged_products(series, lag).tolist() == expected
        assert taken == [f"_{path}_products"]

    def test_gemm_chunk_sums_are_exact_in_float32(self):
        assert GEMM_ROWS * 255**2 < 2**24

    def test_degenerate_series(self):
        for data, l in [(bytes([7]) * 1000, 50), (bytes([0, 255]) * 5000, 300),
                        (bytes([3, 9, 1]), 1), (bytes([255]) * (3 * AUTOCORR_BLOCK) + b"\0", 64)]:
            assert np.array_equal(autocorrelation_feature(sample(data), l),
                                  autocorr_reference(data, l))

    def test_prefix_of_larger_lag(self):
        data = random_bytes(3 * AUTOCORR_BLOCK + 17, seed=4)
        full = autocorrelation_feature(sample(data), 1024)
        for l in (1, 16, 100, 512, 1024):
            own = autocorrelation_feature(sample(data), l)
            assert np.array_equal(full[:l], own)

    def test_16mib_products_equal_int64_dot(self):
        series = np.frombuffer(random_bytes(16 << 20, seed=16), dtype=np.uint8)
        products = lagged_products(series, GEMM_LAGS)
        for k in (0, 1, 7, 33, GEMM_LAGS):
            assert int(products[k]) == direct_lagged_product(series, k)
        assert np.array_equal(lagged_products(series, 16), products[:17])

    def test_16mib_kernel_allocates_no_series_copy(self):
        series = np.frombuffer(random_bytes(16 << 20, seed=16), dtype=np.uint8)
        tracemalloc.start()
        try:
            for lag in (1, GEMM_LAGS, GEMM_MAX_LAGS, GEMM_MAX_LAGS + 1):
                tracemalloc.reset_peak()
                lagged_products(series, lag)
                assert tracemalloc.get_traced_memory()[1] < 4 << 20, lag
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [4096, 8192, 65536])
    def test_gemm_buffers_stay_within_the_batch_charge(self, n):
        # A batch of autocorr_batch_size series is charged n bytes each for
        # the stack; the kernel's float32 buffers and its (l + 1)-entry sums
        # must fit in the rest of the charge, at every lag the GEMM takes.
        # numpy's casting buffers (8,192 elements an operand) come once a
        # call, not once a series, so they are allowed on top.
        cast_buffers = 128 << 10
        rng = np.random.default_rng(n)
        tracemalloc.start()
        try:
            for lag in range(1, GEMM_MAX_LAGS + 1):
                plan = features._plan(n, lag, features._cpus())
                if not plan.gemm:
                    continue
                size = autocorr_batch_size(n, lag)
                charged = plan.charge - n
                assert size == 1 or size * (charged + n) <= STAGING_BYTES
                stack = rng.integers(0, 256, (size, n), dtype=np.uint8)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                features._gemm_products(stack, lag, plan.workers, plan.group)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= size * charged + cast_buffers, lag
        finally:
            tracemalloc.stop()

    # sha256 of autocorrelation_feature(...).tobytes() on a generated
    # 1 MiB + 3 B binary, recorded with the full [row | next row] GEMM
    # product that the banded kernel replaced: the two are bit-identical.
    PINNED_FEATURES = {
        16: "fed60192c1380482150ef063632b7a3f8a2f3f0bc6d63427d8ef720ac4c46ec1",
        128: "49782769654b51e8c833f0fcce07db6c6288c3880fd9addceb572436cef71a32",
        256: "10ba93e03acf41e57446913bc565860b4240aff9ca9fe1a949d21aecd62c8748",
        512: "9efad25ff6d461dd7f85ecf56a2b3ebd6fdeb10cc4a868311c65ef166a1af74b",
    }

    def test_pinned_feature_hashes(self):
        manifest = generate_synthetic_fixedwidth([32], 1, 1, (1 << 20) + 3, 0, seed=15)
        binary = manifest.samples[0].load()
        for lag, digest in self.PINNED_FEATURES.items():
            values = autocorrelation_feature(binary, lag)
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest, lag

    def test_grid_search_lag_loads_and_extracts_each_sample_once(self, monkeypatch):
        manifest = generate_synthetic_fixedwidth([16, 32], 2, 3, 2048, 2, seed=3)
        loads, extractions = [], []
        original_load = SampleRef.load
        original_extract = evaluate.autocorrelation_rows

        def counting_load(ref):
            loads.append(ref.source_path)
            return original_load(ref)

        def counting_extract(batch, l):
            extractions.extend((series.tobytes(), l) for series in batch)
            return original_extract(batch, l)

        monkeypatch.setattr(SampleRef, "load", counting_load)
        monkeypatch.setattr(evaluate, "autocorrelation_rows", counting_extract)
        grid_search_lag(manifest, Task.FIXED_VS_VARIABLE, spec_from_name("knn3"), [8, 32, 16])
        paths = [ref.source_path for ref in manifest.samples]
        assert sorted(loads) == sorted(paths)
        assert sorted(extractions) == sorted((ref.data, 32) for ref in manifest.samples)


def split_lags():
    """A lag in each GEMM_BLOCKS range and at each range's ends, and lags
    of the FFT path."""
    lags = {1}
    for top, _ in GEMM_BLOCKS:
        lags |= {top, top + 1}
    return sorted(lags | {16, 100, 400, GEMM_MAX_LAGS + 1, 1024})


def split_lengths(lag):
    """Series lengths at the first unit boundaries of the kernels at lag:
    1 to 3 GEMM chunks of GEMM_ROWS rows and 1 to 3 FFT blocks, and one byte
    on either side of them."""
    ends = [units * AUTOCORR_BLOCK for units in (1, 2, 3)]
    if lag <= GEMM_MAX_LAGS:
        ends += [units * GEMM_ROWS * features._gemm_shape(0, lag)[1] for units in (1, 2, 3)]
    return sorted({end + d for end in ends for d in (-1, 0, 1) if end + d >= lag + 2})


def plan_cases():
    """(n, lag) pairs on which the plan must match PlanReference: lengths
    around the powers of two 2^8 to 2^24 and at three times them, and the
    path's GEMM_WIDE_ROWS * lag edge, by every 7th lag below 600, each
    GEMM_BLOCKS, GEMM_LAGS and GEMM_MAX_LAGS edge with its neighbours, and
    lags of the FFT path."""
    lags = set(range(1, 600, 7)) | {599, 700, 1024, 2048, 4096}
    for edge in [top for top, _ in GEMM_BLOCKS] + [GEMM_LAGS, GEMM_MAX_LAGS]:
        lags |= {edge - 2, edge - 1, edge, edge + 1, edge + 2}
    lengths = {m for e in range(8, 25)
               for m in (2**e - 1, 2**e, 2**e + 1, 2**e + 3, 3 * 2**e)}
    return [(n, lag) for lag in sorted(lags)
            for n in sorted(lengths | {GEMM_WIDE_ROWS * lag - 1, GEMM_WIDE_ROWS * lag})
            if n >= lag + 2]


class TestKernelSplit:
    """The kernels split a long series' chunks or blocks over worker threads,
    and sum the workers' exact integer partial sums: bit-identical to one
    worker for any split."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_split_equals_one_worker(self, data):
        lag = data.draw(st.sampled_from(split_lags()), "lag")
        n = data.draw(st.sampled_from(split_lengths(lag)), "n")
        fill = data.draw(st.sampled_from(["random", "0xff"]), "fill")
        k = data.draw(st.integers(1, 2), "series")
        workers = data.draw(st.integers(1, 4), "workers")
        stack = np.stack([filled_series(n, fill, seed=n + j) for j in range(k)])
        if features._plan(n, lag, 1).gemm:
            group = data.draw(st.integers(1, 3), "group")
            expected = features._gemm_products(stack, lag, workers=1, group=1)
            before = threading.active_count()
            split = features._gemm_products(stack, lag, workers=workers, group=group)
        else:
            expected = features._fft_products(stack, lag, workers=1)
            before = threading.active_count()
            split = features._fft_products(stack, lag, workers=workers)
        assert threading.active_count() == before
        assert split.dtype == np.int64 and np.array_equal(split, expected)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 64])
    def test_plan_matches_the_separate_helpers(self, cpus, monkeypatch):
        monkeypatch.setattr(features, "_cpus", lambda: cpus)
        for n, lag in plan_cases():
            plan = features._plan(n, lag, features._cpus())
            expected = (PlanReference.uses_gemm(n, lag), PlanReference.autocorr_batch_size(n, lag),
                        *PlanReference.split_plan(n, lag))
            assert (plan.gemm, autocorr_batch_size(n, lag), plan.workers, plan.group) == expected, \
                (n, lag)

    def test_split_of_a_long_series_equals_int64_dots(self, monkeypatch):
        monkeypatch.setattr(features, "_cpus", lambda: 4)
        series = filled_series((1 << 20) + 3, "random", seed=3)
        for lag in (16, 128, 1024):
            assert features._plan(series.size, lag, features._cpus()).workers > 1, lag
            products = lagged_products(series, lag)
            for k in (0, 1, lag // 2, lag):
                assert int(products[k]) == direct_lagged_product(series, k), (lag, k)

    @pytest.mark.parametrize("lag", [1, 16, 32, 33, 128, 256, 312, 313, 512, 513, 1024])
    def test_series_that_share_a_batch_start_no_helper(self, lag, monkeypatch):
        # Short series, one chunk or block each, and every series that
        # autocorr_batch_size batches with others, run on the caller alone.
        monkeypatch.setattr(features, "_cpus", lambda: 64)
        for n in (lag + 2, 4096, 8192, 65536):
            if n <= AUTOCORR_BLOCK or autocorr_batch_size(n, lag) > 1:
                plan = features._plan(n, lag, features._cpus())
                assert (plan.workers, plan.group) == (1, 1), n

    @pytest.mark.parametrize("cpus", [1, 2, 4, 64])
    def test_workers_buffers_fit_the_staging_bytes(self, cpus, monkeypatch):
        monkeypatch.setattr(features, "_cpus", lambda: cpus)
        for n, lag in itertools.product([(1 << 20) + 3, 4 << 20, 16 << 20],
                                        [1, 16, 64, 128, 256, 512, 1024, 4096]):
            plan = features._plan(n, lag, features._cpus())
            workers, group = plan.workers, plan.group
            assert 1 <= workers <= cpus and 1 <= group <= GEMM_GROUP, (n, lag)
            assert (workers, group) == (1, 1) or \
                workers * plan.worker_bytes <= STAGING_BYTES, (n, lag)
            assert autocorr_batch_size(n, lag) == 1

    def test_one_cpu_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(features, "_cpus", lambda: 1)

        def refuse(thread):
            raise AssertionError("a helper started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        series = filled_series((1 << 20) + 3, "random", seed=3)
        for lag in (16, 128, 1024):
            assert lagged_products(series, lag)[0] == direct_lagged_product(series, 0)

    def test_each_unit_goes_to_one_worker(self):
        # More workers than cores and a tiny switch interval: a unit taken
        # twice or lost would show in the counts.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 8):
                counts = features._split(range(5000), workers, lambda units: np.bincount(
                    np.fromiter(units, dtype=np.intp), minlength=5000))
                assert counts.tolist() == [1] * 5000, workers
        finally:
            sys.setswitchinterval(interval)

    def test_a_helpers_error_reaches_the_caller(self, monkeypatch):
        # np.matmul fails on helper threads only; the caller's first product
        # waits until a helper has failed, so a helper surely takes a unit.
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
        series = filled_series((1 << 20) + 3, "random", seed=3)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="helper"):
            lagged_products(series, 64)
        assert threading.active_count() == before

    def test_a_thread_that_cannot_start_leaves_the_work_to_the_others(self, monkeypatch):
        monkeypatch.setattr(features, "_cpus", lambda: 4)

        def no_thread(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        series = filled_series((1 << 20) + 3, "0xff", seed=0)
        expected = features._gemm_products(series[None], 64, workers=1, group=1)[0]
        assert np.array_equal(lagged_products(series, 64), expected)


class TestMeanCurve:
    def test_single_sample_class_is_identity(self):
        manifest = generate_synthetic_fixedwidth([16], 1, 1, 2048, 1, seed=2)
        curves = mean_curve_by_class(manifest, 8, Task.FIXED_VS_VARIABLE)
        own = autocorrelation_feature(manifest.samples[0].load(), 8)
        assert np.array_equal(curves["fixed"], own)

    def test_two_sample_mean(self):
        manifest = generate_synthetic_fixedwidth([16], 1, 2, 2048, 0, seed=2)
        curves = mean_curve_by_class(manifest, 8, Task.FIXED_VS_VARIABLE)
        a, b = (autocorrelation_feature(r.load(), 8) for r in manifest.samples)
        assert np.allclose(curves["fixed"], (a + b) / 2.0, atol=0)

    def test_fixed_beats_variable_at_period(self):
        manifest = generate_synthetic_fixedwidth([32], 2, 3, 4096, 2, seed=2)
        curves = mean_curve_by_class(manifest, 8, Task.FIXED_VS_VARIABLE)
        assert curves["fixed"][3] > curves["variable"][3]

    def test_excluded_classes_omitted(self, endian_small):
        curves = mean_curve_by_class(endian_small, 8, Task.FIXED_VS_VARIABLE)
        assert curves == {}  # endian corpus has unknown size kind everywhere

    def test_error_identifies_sample(self):
        manifest = generate_synthetic_fixedwidth([16], 1, 1, 2048, 0, seed=2)
        with pytest.raises(SampleTooShort) as err:
            mean_curve_by_class(manifest, 4096, Task.FIXED_VS_VARIABLE)
        assert "synthW16_0" in str(err.value)
