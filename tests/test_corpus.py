import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isatraits.corpus import (
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
    write_corpus,
    write_label_registry,
)
from isatraits.errors import DuplicateIsa, EmptyCorpus, MalformedLabelFile

from oracles import autocorr_oracle

HEADER = "isa_name,endianness,inst_size_kind,inst_size_bits,inst_size_min,inst_size_max,word_size_bits\n"


def write_labels(tmp_path, body):
    path = tmp_path / "labels.csv"
    path.write_text(HEADER + body)
    return path


class TestLabelRegistry:
    def test_fixed_row(self, tmp_path):
        registry = parse_label_registry(write_labels(tmp_path, "mipsel,LE,fixed,32,,,32\n"))
        label = registry["mipsel"]
        assert label.endianness is Endianness.LITTLE
        assert label.inst_size == InstructionSizeSpec.fixed(32)
        assert label.word_size_bits == 32

    def test_variable_row(self, tmp_path):
        registry = parse_label_registry(write_labels(tmp_path, "x86,LE,variable,,8,120,32\n"))
        label = registry["x86"]
        assert label.inst_size.kind is SizeKind.VARIABLE
        assert label.inst_size.variable_range == (8, 120)
        assert label.inst_size.fixed_bits is None

    def test_unknown_row(self, tmp_path):
        registry = parse_label_registry(write_labels(tmp_path, "h8s,BE,unknown,,,,16\n"))
        assert registry["h8s"].inst_size.kind is SizeKind.UNKNOWN

    def test_bad_endianness_rejected(self, tmp_path):
        with pytest.raises(MalformedLabelFile) as err:
            parse_label_registry(write_labels(tmp_path, "foo,XX,fixed,32,,,\n"))
        assert err.value.line == 2

    def test_error_names_the_file_line_after_a_multiline_cell(self, tmp_path):
        path = write_labels(tmp_path, '"a\nb",LE,fixed,32,,,\nfoo,XX,fixed,32,,,\n')
        with pytest.raises(MalformedLabelFile) as err:
            parse_label_registry(path)
        assert err.value.line == 4

    def test_malformed_integer_rejected(self, tmp_path):
        with pytest.raises(MalformedLabelFile):
            parse_label_registry(write_labels(tmp_path, "foo,LE,fixed,thirtytwo,,,\n"))

    def test_fixed_without_bits_rejected(self, tmp_path):
        with pytest.raises(MalformedLabelFile):
            parse_label_registry(write_labels(tmp_path, "foo,LE,fixed,,,,\n"))

    def test_variable_with_bits_rejected(self, tmp_path):
        with pytest.raises(MalformedLabelFile):
            parse_label_registry(write_labels(tmp_path, "foo,LE,variable,32,,,\n"))

    def test_duplicate_isa(self, tmp_path):
        with pytest.raises(DuplicateIsa):
            parse_label_registry(write_labels(tmp_path, "a,LE,fixed,32,,,\na,BE,fixed,32,,,\n"))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("isa,endian\nfoo,LE\n")
        with pytest.raises(MalformedLabelFile) as err:
            parse_label_registry(path)
        assert err.value.line == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("# comment\n" + HEADER + "\n# another\nfoo,LE,fixed,32,,,\n")
        assert "foo" in parse_label_registry(path)

    def test_roundtrip(self, tmp_path):
        registry = {
            "a": IsaLabel("a", Endianness.LITTLE, InstructionSizeSpec.fixed(32), 64),
            "b": IsaLabel("b", Endianness.BI, InstructionSizeSpec.variable(8, 48)),
            "c": IsaLabel("c", Endianness.UNKNOWN, InstructionSizeSpec.unknown()),
        }
        path = tmp_path / "out.csv"
        write_label_registry(registry, path)
        assert parse_label_registry(path) == registry

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        path = write_labels(tmp_path, "ok,LE,fixed,32,,,\n" + "x" * 200_000 + ",LE,fixed,32,,,\n")
        with pytest.raises(MalformedLabelFile) as err:
            parse_label_registry(path)
        assert err.value.line == 3 and "field limit" in err.value.reason


# Cells that parse, cells that nearly do, and text with CSV syntax in it.
LABEL_CELLS = st.sampled_from(["", "LE", "BE", "BI", "NA", "fixed", "variable", "unknown",
                               "8", "32", "0", "-8", "a", "# x"]) | st.text(',"#\r\n a1', max_size=5)
LABEL_TEXT = st.one_of(
    st.text(max_size=200),
    st.builds(lambda header, rows, end: (HEADER if header else "") + end.join(",".join(r) for r in rows),
              st.booleans(), st.lists(st.lists(LABEL_CELLS, max_size=8), max_size=6),
              st.sampled_from(["\n", "\r\n", "\r"])),
)


@pytest.fixture(scope="module")
def fuzz_labels(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed_labels") / "labels.csv"


@given(text=LABEL_TEXT)
@settings(max_examples=200, deadline=None)
def test_label_file_parses_or_raises_a_label_error(text, fuzz_labels):
    """Random CSV text gives a registry or a MalformedLabelFile/DuplicateIsa,
    never another exception."""
    with open(fuzz_labels, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        assert isinstance(parse_label_registry(fuzz_labels), dict)
    except (MalformedLabelFile, DuplicateIsa):
        pass


class TestShippedCpurecLabels:
    def test_class_counts_match_published_tables(self, cpurec_labels_path):
        registry = parse_label_registry(cpurec_labels_path)
        endian = [l.endianness for l in registry.values()]
        assert endian.count(Endianness.LITTLE) == 33
        assert endian.count(Endianness.BIG) == 18
        kinds = [l.inst_size.kind for l in registry.values()]
        assert kinds.count(SizeKind.FIXED) == 25
        assert kinds.count(SizeKind.VARIABLE) == 18
        widths = [l.inst_size.fixed_bits for l in registry.values() if l.inst_size.kind is SizeKind.FIXED]
        assert sorted(set(widths)) == [16, 24, 32, 128]
        assert widths.count(16) == 6
        assert widths.count(24) == 1
        assert widths.count(32) == 17
        assert widths.count(128) == 1


class TestScanCorpus:
    @staticmethod
    def make_tree(tmp_path, layout):
        for isa, names in layout.items():
            d = tmp_path / "corpus" / isa
            d.mkdir(parents=True)
            for name in names:
                (d / name).write_bytes(bytes([1, 2, 3, 4]))
        return tmp_path / "corpus"

    @staticmethod
    def registry_for(*names):
        return {n: IsaLabel(n, Endianness.LITTLE, InstructionSizeSpec.unknown()) for n in names}

    def test_basic_scan(self, tmp_path):
        root = self.make_tree(tmp_path, {"a": ["f1", "f2"], "b": ["g1"]})
        manifest = scan_corpus(root, self.registry_for("a", "b"))
        assert manifest.counts_per_isa() == {"a": 2, "b": 1}

    def test_cap_selects_lexicographic_first(self, tmp_path):
        names = [f"file_{i:03d}" for i in range(8)]
        root = self.make_tree(tmp_path, {"a": names, "b": ["x"]})
        manifest = scan_corpus(root, self.registry_for("a", "b"), per_isa_cap=5)
        picked = sorted(r.source_path for r in manifest.samples if r.isa_name == "a")
        assert [p.rsplit("/", 1)[1] for p in picked] == names[:5]

    def test_cap_monotonicity(self, tmp_path):
        root = self.make_tree(tmp_path, {"a": [f"f{i}" for i in range(6)]})
        registry = self.registry_for("a")
        previous = set()
        for cap in range(1, 7):
            current = {r.source_path for r in scan_corpus(root, registry, per_isa_cap=cap).samples}
            assert previous <= current
            previous = current

    def test_unknown_directory_is_warning(self, tmp_path):
        root = self.make_tree(tmp_path, {"a": ["f"], "mystery": ["g"]})
        manifest = scan_corpus(root, self.registry_for("a"))
        assert manifest.warnings == ["mystery"]
        assert manifest.counts_per_isa() == {"a": 1}

    def test_empty_root(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        with pytest.raises(EmptyCorpus):
            scan_corpus(tmp_path / "corpus", self.registry_for("a"))

    def test_missing_root(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            scan_corpus(tmp_path / "nope", self.registry_for("a"))

    def test_registry_closure_enforced(self):
        with pytest.raises(KeyError):
            CorpusManifest([SampleRef("p", "ghost", b"xx")], registry={})

    def test_deterministic_scan(self, tmp_path):
        root = self.make_tree(tmp_path, {"b": ["2", "1"], "a": ["9", "3"]})
        registry = self.registry_for("a", "b")
        first = [r.source_path for r in scan_corpus(root, registry).samples]
        second = [r.source_path for r in scan_corpus(root, registry).samples]
        assert first == second == sorted(first)


class TestSyntheticEndian:
    def test_shape_arithmetic(self):
        manifest = generate_synthetic_endian(4, 10, 1024, seed=3)
        assert len(manifest.samples) == 80
        assert len(manifest.groups()) == 8
        assert all(len(ref.data) == 1024 for ref in manifest.samples)

    def test_labels(self):
        manifest = generate_synthetic_endian(2, 1, 1024, seed=3)
        assert manifest.registry["synthLE_0"].endianness is Endianness.LITTLE
        assert manifest.registry["synthBE_1"].endianness is Endianness.BIG

    def test_determinism(self):
        a = generate_synthetic_endian(2, 3, 2048, seed=42)
        b = generate_synthetic_endian(2, 3, 2048, seed=42)
        assert [r.data for r in a.samples] == [r.data for r in b.samples]

    def test_distinct_streams(self):
        manifest = generate_synthetic_endian(2, 2, 2048, seed=42)
        blobs = [r.data for r in manifest.samples]
        assert len(set(blobs)) == len(blobs)

    def test_seed_changes_output(self):
        a = generate_synthetic_endian(1, 1, 1024, seed=1)
        b = generate_synthetic_endian(1, 1, 1024, seed=2)
        assert a.samples[0].data != b.samples[0].data

    def test_le_encoding_of_small_positive(self):
        # A LE file must contain many 0x01,0x00 pairs (value 1) and few
        # 0x00,0x01 pairs; the BE file mirrors that.
        manifest = generate_synthetic_endian(1, 1, 65536, seed=9)
        le = next(r.data for r in manifest.samples if r.isa_name == "synthLE_0")
        be = next(r.data for r in manifest.samples if r.isa_name == "synthBE_0")
        assert le.count(b"\x01\x00") > 2 * le.count(b"\x00\x01")
        assert be.count(b"\x00\x01") > 2 * be.count(b"\x01\x00")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_synthetic_endian(0, 1, 1024, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_endian(1, 1, 512, seed=0)


class TestSyntheticFixedWidth:
    def test_shape_arithmetic(self):
        manifest = generate_synthetic_fixedwidth([16, 32], 3, 5, 2048, 3, seed=3)
        assert len(manifest.samples) == 45
        assert len(manifest.groups()) == 9

    def test_labels(self):
        manifest = generate_synthetic_fixedwidth([16], 1, 1, 1024, 1, seed=3)
        assert manifest.registry["synthW16_0"].inst_size == InstructionSizeSpec.fixed(16)
        assert manifest.registry["synthVAR_0"].inst_size.kind is SizeKind.VARIABLE

    def test_opcode_positions_constant_within_isa(self):
        manifest = generate_synthetic_fixedwidth([32], 1, 2, 2048, 0, seed=3)
        blobs = [np.frombuffer(r.data, dtype=np.uint8).reshape(-1, 4) for r in manifest.samples]
        constant_cols = [
            {c for c in range(4) if np.all(rows[:, c] == rows[0, c])} for rows in blobs
        ]
        assert constant_cols[0] == constant_cols[1]
        assert len(constant_cols[0]) >= 1
        # and the constant values agree across files of the same ISA
        for c in constant_cols[0]:
            assert blobs[0][0, c] == blobs[1][0, c]

    def test_width32_autocorr_peak_at_four(self):
        # Oracle check against the raw definition, before trusting the
        # package's own extractor on this corpus.
        manifest = generate_synthetic_fixedwidth([32], 1, 1, 4096, 0, seed=3)
        data = manifest.samples[0].data
        f3, f4, f5 = (autocorr_oracle(data, k) for k in (3, 4, 5))
        assert f4 > f3
        assert f4 > f5

    def test_determinism(self):
        a = generate_synthetic_fixedwidth([16, 32], 2, 2, 2048, 2, seed=1)
        b = generate_synthetic_fixedwidth([16, 32], 2, 2, 2048, 2, seed=1)
        assert [r.data for r in a.samples] == [r.data for r in b.samples]

    def test_file_lengths(self):
        manifest = generate_synthetic_fixedwidth([24], 1, 2, 3001, 1, seed=1)
        assert all(len(r.data) == 3001 for r in manifest.samples)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_synthetic_fixedwidth([12], 1, 1, 4096, 0, seed=0)  # not a byte multiple
        with pytest.raises(ValueError):
            generate_synthetic_fixedwidth([64], 1, 1, 100, 0, seed=0)  # too short


class TestWriteCorpus:
    def test_roundtrip_via_disk(self, tmp_path):
        manifest = generate_synthetic_endian(1, 2, 1024, seed=8)
        labels_path = write_corpus(manifest, tmp_path / "out")
        registry = parse_label_registry(labels_path)
        rescanned = scan_corpus(tmp_path / "out", registry)
        assert rescanned.counts_per_isa() == manifest.counts_per_isa()
        original = {f"{r.isa_name}/{r.source_path.rsplit('/', 1)[1]}": r.data for r in manifest.samples}
        for ref in rescanned.samples:
            key = f"{ref.isa_name}/{ref.source_path.rsplit('/', 1)[1]}"
            assert ref.load().data == original[key]
