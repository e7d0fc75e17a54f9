import hashlib
import os

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

    # One row per rule of a label row, each on line 3 after a good row, with
    # words of the rule's message: the size rules are InstructionSizeSpec's.
    @pytest.mark.parametrize("row, words", [
        (" ,LE,fixed,32,,,", "empty isa_name"),
        ("foo,LE,fixed,0,,,", "inst_size_bits: 0 must be positive"),
        ("foo,LE,variable,,-8,48,", "inst_size_min: -8 must be positive"),
        ("foo,LE,fixed,32,,,0", "word_size_bits: 0 must be positive"),
        ("foo,LE,fixed,32,8,48,", "fixed instruction size cannot carry a min/max range"),
        ("foo,LE,variable,,8,,", "inst_size_min and inst_size_max must appear together"),
        ("foo,LE,variable,,,48,", "inst_size_min and inst_size_max must appear together"),
        ("foo,LE,variable,,48,8,", "inst_size_min must be positive and at most inst_size_max"),
        ("foo,LE,unknown,32,,,", "unknown instruction size cannot carry inst_size_bits"),
        ("foo,LE,unknown,,8,48,", "unknown instruction size cannot carry a min/max range"),
    ], ids=["empty-name", "zero-bits", "negative-min", "zero-word", "fixed-with-range",
            "min-alone", "max-alone", "min-above-max", "unknown-with-bits", "unknown-with-range"])
    def test_row_rule_broken(self, row, words, tmp_path):
        with pytest.raises(MalformedLabelFile) as err:
            parse_label_registry(write_labels(tmp_path, "ok,LE,fixed,32,,,\n" + row + "\n"))
        assert err.value.line == 3
        assert words in err.value.reason

    def test_size_rules_hold_outside_label_files(self):
        with pytest.raises(ValueError, match="must appear together"):
            InstructionSizeSpec.variable(8)
        with pytest.raises(ValueError, match="cannot carry a min/max range"):
            InstructionSizeSpec(SizeKind.UNKNOWN, variable_range=(8, 48))

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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs symlinks and FIFOs")
    def test_entries_that_are_not_files(self, tmp_path):
        """Links are followed: a link to a file is a sample and a link to a
        directory an ISA. A broken link, a subdirectory and a FIFO are not
        samples, and a file in the root is not an ISA."""
        root = self.make_tree(tmp_path, {"a": ["f2", "f0"], "elsewhere": ["g"]})
        os.symlink(root / "a" / "f0", root / "a" / "f1")
        os.symlink(root / "a" / "gone", root / "a" / "f3")
        (root / "a" / "f4").mkdir()
        os.mkfifo(root / "a" / "f5")
        os.symlink(root / "elsewhere", root / "b")
        (root / "stray.bin").write_bytes(b"\0")
        manifest = scan_corpus(root, self.registry_for("a", "b"))
        assert [(r.source_path, r.isa_name) for r in manifest.samples] == [
            (str(root / "a" / "f0"), "a"), (str(root / "a" / "f1"), "a"),
            (str(root / "a" / "f2"), "a"), (str(root / "b" / "g"), "b")]
        assert manifest.warnings == ["elsewhere"]
        assert manifest.samples[1].load().data == bytes([1, 2, 3, 4])


# sha256 of every sample's bytes, pinned from the generators as they were
# before _endian_stream was vectorised; a faster generator must make the
# same corpora byte for byte.
ENDIAN_SHA256 = {
    "synthLE_0/0000.bin": "3783aa4ac585812a14756c2f01bc2988cf2c4f34128fb01955356786f87bec13",
    "synthLE_0/0001.bin": "74004ec3424868fa2d76b8014d3cb3d7d5512deaf7c42e0b1fdef30a26c97ea7",
    "synthLE_0/0002.bin": "492c2f3cb70006a903a377cf0440900371ea472d4360643783d601a952ad7e8d",
    "synthLE_1/0000.bin": "d06d36437c6a40225e8a35c2f0ded8525147b81cabbedce6567829d458e58436",
    "synthLE_1/0001.bin": "ce2d786417a1ca3fe664fe5abcd24517928e6fa00f8b1bf687869847329af276",
    "synthLE_1/0002.bin": "5733b52dc7ef60735fd69aabd94e843655dcdcfbbab0b53a2d7e1cab7f240470",
    "synthBE_0/0000.bin": "4c29f55def9ca019079c10b32e0a54e6fc736bb1c7a08ee65dfe7a617f5776e9",
    "synthBE_0/0001.bin": "e41dfd732b03dea4e5a2cc7841fbd3f9cf343eeb39ce72dedb1d430bc123f505",
    "synthBE_0/0002.bin": "c015e5829db28d74f0ffe267d2b495d59fc48ced6cb36e46c0d979064ffc65f0",
    "synthBE_1/0000.bin": "aeec8eb1535cab0c4c4fa2e1410f4fc2cce8e58f101ecf44dd8183bac5c7992b",
    "synthBE_1/0001.bin": "6a80bd21eb1397c5eecea090d85de49affba8a9d7b71b24d7ae047d3518ecfea",
    "synthBE_1/0002.bin": "9b4219b45509e597cabc398c3a5d019d71334365cfe881a43e467d964c2975ff",
}
FIXEDWIDTH_SHA256 = {
    "synthW16_0/0000.bin": "03e30fb71e8c71c474c61d799d543efac16ac94d534b64e0dd4c75bf142859b0",
    "synthW16_0/0001.bin": "2c61dfc7ae84659d123103eb0470f2882009acf6c9e589f20ea9212c01188001",
    "synthW16_0/0002.bin": "357ac1161cee0ea6270c4dba0f5ad6cbb7e5c4bd9a03af362754a75ad7652713",
    "synthW16_1/0000.bin": "85aa17d36d0f8b11490f78cb06d084c9df5c5ff659209bdc57670dd15b0aac40",
    "synthW16_1/0001.bin": "608fd340c4838aa45c7a5de87675b7a5d0b5c38a23936a77ac8b493fe8fdc694",
    "synthW16_1/0002.bin": "7f8143ad8ac34e12865d2ec98dc1f1a4aba3b4204c9439ff48c68aa86904818c",
    "synthW32_0/0000.bin": "230c0bd552b6d2b20736618bb3d199d7a1bf3fa811d987e75257ab5611e7ffb6",
    "synthW32_0/0001.bin": "6b5694adceefd81cba8da8018c5017e82be9c589b8c66fd7cfcb6ee6bbe3ab1e",
    "synthW32_0/0002.bin": "7675d2e52ca35f24afaca0a0fcfa5d895b170ce56cee7adfd34a2408391c5acb",
    "synthW32_1/0000.bin": "c850a4020f53b8245feecb6983be06faee8223326ea0cd9684abd74dd495acc1",
    "synthW32_1/0001.bin": "962490828a680ae73fb590759806ea9155873da1a3dd58d556469f09a5374279",
    "synthW32_1/0002.bin": "525962948583aa3d7d3f5f225625f6d3f4a0fb00423cee92a08bc0e8472a8676",
    "synthW64_0/0000.bin": "70ce09231785ef5b41f3180bc2631c884fe44a6eb368cf87f58d4e84ea47be19",
    "synthW64_0/0001.bin": "7527715f1612f62317a6f32f5a611f2d5dbed104c71ffaab8468f42df55e5e42",
    "synthW64_0/0002.bin": "8756aa97fd33fdc662705baba7dd5d00dcf134d2936d3d44faf11b1653190c16",
    "synthW64_1/0000.bin": "570d7e75b4502e18d532dc18ff253898027fd12abdc72304cbccf3c3e2b33144",
    "synthW64_1/0001.bin": "170bd43a0962a9786e89e065a3dae617151e1f9286a16e138a243551a3d75498",
    "synthW64_1/0002.bin": "af2f81694e04e74878eeb167db750a261bd66da977ae0e08bd07d34865c6ed04",
    "synthVAR_0/0000.bin": "3960a47eb0052ca053b6acbf4fa584821441aee7b6743a94dfdace92a9abb218",
    "synthVAR_0/0001.bin": "8b5167ede62b34381bc12d053f5a22f70d0be02f4574dc7687d0e7537911856e",
    "synthVAR_0/0002.bin": "0fb27f4c60d5d2c0c9c7541def28956dd0edc3744519b6f4881ef2707daa3a3d",
    "synthVAR_1/0000.bin": "f4a622c84eccb0914ced80ed394ddc83c1427a2eda38af6ada3ce278c606af5b",
    "synthVAR_1/0001.bin": "56d34545e32f0ba89c3279f661c4a398d72238597904e87afbf10478727d3ddd",
    "synthVAR_1/0002.bin": "a21512023edbf88dce1cb5045e243783579a2a4cd3f8c30829b4e2ac9002f4a0",
}


@pytest.mark.parametrize("manifest, pinned", [
    (lambda: generate_synthetic_endian(2, 3, 4096, seed=3), ENDIAN_SHA256),
    (lambda: generate_synthetic_fixedwidth([16, 32, 64], 2, 3, 2048, 2, seed=3), FIXEDWIDTH_SHA256),
], ids=["endian", "fixedwidth"])
def test_generated_bytes_are_pinned(manifest, pinned):
    samples = manifest().samples
    assert {ref.source_path: hashlib.sha256(ref.data).hexdigest() for ref in samples} == pinned


class TestSyntheticEndian:
    def test_shape_arithmetic(self):
        manifest = generate_synthetic_endian(4, 10, 1024, seed=3)
        assert len(manifest.samples) == 80
        assert len(manifest.counts_per_isa()) == 8
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
        assert len(manifest.counts_per_isa()) == 9

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
        with pytest.raises(ValueError, match="width 16 is given more than once"):
            generate_synthetic_fixedwidth([16, 32, 16], 1, 2, 4096, 1, seed=0)  # ISA names collide


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
