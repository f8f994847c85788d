"""The .rtrace interchange format: round trips, damage detection, importers.

Three contracts are pinned here.  First, the container is lossless: any
trace written at any chunk size reads back bit-identical, with the O(1)
header/footer metadata (length, fingerprint) agreeing with the content.
Second, every form of structural damage -- torn tail, flipped payload
byte, stale schema, wrong magic -- surfaces as TraceFormatError, which is
a CacheCorruptionError, so the cache layer's existing warn/discard/
regenerate path (util/persist.py) applies unchanged.  Third, the
importers (text, CSV) produce consistent traces whose epoch semantics
match the documented column contract.
"""

from __future__ import annotations

import io
import os
import tempfile
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace.events import SharingTrace
from repro.trace.interchange import (
    _CSV_COLUMNS,
    _CSV_OPS,
    MAGIC,
    RTRACE_SCHEMA,
    FileTraceSource,
    ImageTraceSource,
    TraceReader,
    TraceWriter,
    import_csv,
    _parse_csv_row,
    import_text,
    synthesize_csv,
    write_source,
)
from repro.trace.io import TraceFormatError, dump_text
from repro.trace.source import (
    CHUNK_FIELDS,
    StreamingConsistencyChecker,
    stream_fingerprint,
)
from repro.util.persist import CacheCorruptionError, discard_corrupt
from tests.conftest import make_random_trace

WIDTHS = (8, 16, 33, 64, 65, 128, 1024)


@lru_cache(maxsize=None)
def trace_for(width: int) -> SharingTrace:
    return make_random_trace(
        num_nodes=width, num_events=40, num_blocks=10, seed=f"rtrace-{width}"
    )


def assert_traces_equal(actual: SharingTrace, expected: SharingTrace) -> None:
    assert actual.num_nodes == expected.num_nodes
    assert actual.name == expected.name
    for field in CHUNK_FIELDS:
        np.testing.assert_array_equal(
            getattr(actual, field), getattr(expected, field), err_msg=field
        )


class TestRoundTrip:
    @given(
        width=st.sampled_from(WIDTHS),
        chunk_events=st.sampled_from([1, 7, 39, 40, 41, 4096]),
    )
    def test_write_read_is_bit_identical(self, width, chunk_events):
        trace = trace_for(width)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.rtrace")
            fingerprint = write_source(trace, path, chunk_events)
            source = FileTraceSource(path)
            assert len(source) == len(trace)
            assert source.num_nodes == trace.num_nodes
            assert source.fingerprint() == fingerprint
            assert fingerprint == stream_fingerprint(trace)
            rebuilt = source.materialize()
            assert_traces_equal(rebuilt, trace)
            assert stream_fingerprint(rebuilt) == fingerprint
            # an in-memory image is the file's bytes, and reads back the same
            image = io.BytesIO()
            assert write_source(trace, image, chunk_events) == fingerprint
            with open(path, "rb") as handle:
                assert image.getvalue() == handle.read()
            in_memory = ImageTraceSource(image.getvalue())
            assert in_memory.fingerprint() == fingerprint
            assert_traces_equal(in_memory.materialize(), trace)

    def test_header_metadata_is_o1(self, tmp_path):
        trace = trace_for(16)
        path = tmp_path / "t.rtrace"
        write_source(trace, path, chunk_events=8)
        reader = TraceReader(path)
        assert reader.num_events == len(trace)
        assert reader.num_chunks == 5
        assert reader.name == trace.name
        assert reader.verify() == reader.fingerprint

    def test_rechunked_reads_preserve_content(self, tmp_path):
        trace = trace_for(16)
        path = tmp_path / "t.rtrace"
        write_source(trace, path, chunk_events=8)
        source = FileTraceSource(path)
        for chunk_events in (1, 7, 100):
            chunks = list(source.chunks(chunk_events))
            assert all(len(chunk) <= chunk_events for chunk in chunks)
            for field in CHUNK_FIELDS:
                np.testing.assert_array_equal(
                    np.concatenate([getattr(chunk, field) for chunk in chunks]),
                    getattr(trace, field),
                )

    def test_machine_spec_round_trips(self, tmp_path):
        from repro.machine import MachineSpec

        machine = MachineSpec(num_nodes=16)
        trace = trace_for(16)
        tagged = SharingTrace(
            num_nodes=trace.num_nodes,
            name=trace.name,
            machine=machine,
            **{field: getattr(trace, field) for field in CHUNK_FIELDS},
        )
        path = tmp_path / "t.rtrace"
        write_source(tagged, path)
        source = FileTraceSource(path)
        assert source.machine is not None
        assert source.machine.num_nodes == 16


class TestWriter:
    def test_crash_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.rtrace"
        with pytest.raises(RuntimeError, match="mid-write"):
            with TraceWriter(path, num_nodes=8):
                raise RuntimeError("mid-write")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == [], "aborted tmp file leaked"

    def test_write_after_close_rejected(self, tmp_path):
        trace = trace_for(8)
        writer = TraceWriter(tmp_path / "t.rtrace", num_nodes=8)
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write_columns(*(getattr(trace, f) for f in CHUNK_FIELDS))

    def test_mismatched_column_lengths_rejected(self, tmp_path):
        trace = trace_for(8)
        with TraceWriter(tmp_path / "t.rtrace", num_nodes=8) as writer:
            columns = [getattr(trace, field) for field in CHUNK_FIELDS]
            columns[1] = columns[1][:-1]  # shorten pc
            with pytest.raises(ValueError, match="pc"):
                writer.write_columns(*columns)


def damaged(path, mutate):
    """Apply ``mutate(bytes) -> bytes`` to the file in place."""
    content = path.read_bytes()
    path.write_bytes(mutate(content))


def assert_image_refused(path, match):
    """The in-memory reader refuses the same damage, when it is built."""
    with pytest.raises(TraceFormatError, match=match):
        ImageTraceSource(path.read_bytes())


class TestDamageDetection:
    """Every damage is refused by both readers: the file reader when it
    opens or reads the file, the image source when it parses the bytes."""

    @pytest.fixture
    def written(self, tmp_path):
        trace = trace_for(16)
        path = tmp_path / "t.rtrace"
        write_source(trace, path, chunk_events=8)
        return path, trace

    def test_torn_tail_rejected(self, written):
        path, _trace = written
        damaged(path, lambda content: content[: len(content) // 2])
        with pytest.raises(TraceFormatError, match="torn tail"):
            TraceReader(path)
        assert_image_refused(path, "torn tail")

    def test_missing_trailer_byte_rejected(self, written):
        path, _trace = written
        damaged(path, lambda content: content[:-1])
        with pytest.raises(TraceFormatError, match="torn tail"):
            TraceReader(path)
        assert_image_refused(path, "torn tail")

    def test_flipped_payload_byte_rejected(self, written):
        path, _trace = written
        content = bytearray(path.read_bytes())
        # first chunk record line ends at the second newline; corrupt a
        # byte safely inside the payload that follows it
        record_end = content.index(b"\n", content.index(b"\n", len(MAGIC)) + 1) + 1
        content[record_end + 16] ^= 0xFF
        path.write_bytes(bytes(content))
        reader = TraceReader(path)  # metadata is untouched
        with pytest.raises(TraceFormatError, match="checksum"):
            list(reader.chunks())
        assert_image_refused(path, "checksum")

    def test_stale_schema_rejected(self, written):
        path, _trace = written

        def bump_schema(content):
            header_end = content.index(b"\n", len(MAGIC))
            header = content[len(MAGIC) : header_end]
            replaced = header.replace(
                b'"schema":%d' % RTRACE_SCHEMA, b'"schema":99'
            )
            assert replaced != header
            return MAGIC + replaced + content[header_end:]

        damaged(path, bump_schema)
        with pytest.raises(TraceFormatError, match="schema"):
            TraceReader(path)
        assert_image_refused(path, "schema")

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not.rtrace"
        path.write_bytes(b"PK\x03\x04 definitely not a trace")
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)
        assert_image_refused(path, "bad magic")

    def test_damage_is_cache_corruption(self):
        """TraceFormatError rides the existing warn/discard/regenerate path."""
        assert issubclass(TraceFormatError, CacheCorruptionError)

    def test_corrupt_file_warns_and_regenerates(self, written, caplog):
        """The persist-layer doctrine end to end: a damaged .rtrace is
        warned about, discarded, and regenerated bit-identically."""
        path, trace = written
        good_fingerprint = FileTraceSource(path).fingerprint()
        damaged(path, lambda content: content[:-4])

        with caplog.at_level("WARNING", logger="repro.util.persist"):
            try:
                source = FileTraceSource(path)
            except TraceFormatError as error:
                discard_corrupt(path, str(error))
                write_source(trace, path, chunk_events=8)
                source = FileTraceSource(path)
        assert "discarding corrupt cache file" in caplog.text
        assert source.fingerprint() == good_fingerprint
        assert_traces_equal(source.materialize(), trace)


class TestTextImport:
    def test_text_round_trip(self, tmp_path):
        trace = trace_for(16)
        text_path = tmp_path / "t.trace"
        dump_text(trace, text_path)
        rtrace_path = tmp_path / "t.rtrace"
        events, fingerprint = import_text(text_path, rtrace_path, chunk_events=8)
        assert events == len(trace)
        assert fingerprint == stream_fingerprint(trace)
        assert_traces_equal(FileTraceSource(rtrace_path).materialize(), trace)

    def test_inconsistent_text_rejected_and_no_output(self, tmp_path):
        trace = trace_for(8)
        text_path = tmp_path / "t.trace"
        dump_text(trace, text_path)
        # break the epoch linkage: point every close index at event 0
        patched = [
            line
            if line.startswith("#")
            else " ".join(line.split()[:-1] + ["0"])
            for line in text_path.read_text(encoding="utf-8").splitlines()
        ]
        text_path.write_text("\n".join(patched) + "\n", encoding="utf-8")
        out = tmp_path / "t.rtrace"
        with pytest.raises((TraceFormatError, ValueError)):
            import_text(text_path, out, chunk_events=4)
        assert not out.exists()


CSV_SAMPLE = """\
# gem5-style access trace; header row is optional
cycle,node,op,addr,pc
1,0,W,0x0,0x400
2,1,R,0x0,0x0
3,1,ST,64,0x408
4,0,LOAD,0x40,0x0

7,0,WRITE,0x0,0x400
"""


def reference_parse_csv_row(line, lineno, src, num_nodes):
    """The CSV row parser before its fast path, kept as the reference."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    fields = [field.strip() for field in text.split(",")]
    if [field.lower() for field in fields] == list(_CSV_COLUMNS):
        return None  # the optional literal header row
    if len(fields) != len(_CSV_COLUMNS):
        raise TraceFormatError(
            f"{os.fspath(src)}:{lineno}: expected "
            f"{','.join(_CSV_COLUMNS)}, got {text!r}"
        )
    try:
        node = int(fields[1])
        op = _CSV_OPS[fields[2].upper()]
        addr = int(fields[3], 0)
        pc = int(fields[4], 0)
    except (KeyError, ValueError) as error:
        raise TraceFormatError(
            f"{os.fspath(src)}:{lineno}: malformed row {text!r}: {error}"
        ) from error
    if not 0 <= node < num_nodes:
        raise TraceFormatError(
            f"{os.fspath(src)}:{lineno}: node {node} out of range "
            f"[0, {num_nodes})"
        )
    if addr < 0 or pc < 0:
        raise TraceFormatError(
            f"{os.fspath(src)}:{lineno}: negative addr/pc in {text!r}"
        )
    return node, op, addr, pc


_OP_SPELLINGS = sorted(
    {spelling for op in _CSV_OPS for spelling in (op, op.lower(), op.title())}
)
#: per column: values the fast path must accept, then values it must hand
#: to the checked parser
_CSV_FIELDS = {
    "cycle": ("1", "7", "", "1#", "x", "# 3"),
    "node": ("0", "3", "15", "+2", "1_0", "16", "-1", "x", "0x1"),
    "op": tuple(_OP_SPELLINGS) + ("FROB", ""),
    "addr": ("0", "64", "0x40", "0X4f", "0b11", "0o17", "1_000", "-64", "-0x40",
             "12abc", "0x"),
}
_CSV_FIELDS["pc"] = _CSV_FIELDS["addr"]
_PADS = ("", " ", "\t ")


def _csv_field(name):
    """One column's text, padded; numbers also drawn at random."""
    texts = [
        f"{left}{value}{right}"
        for value in _CSV_FIELDS[name]
        for left in _PADS
        for right in _PADS
    ]
    if name in ("addr", "pc"):
        return st.one_of(st.sampled_from(texts), st.integers(0, 2**40).map(hex))
    return st.sampled_from(texts)


_ROW = st.tuples(*[_csv_field(name) for name in _CSV_COLUMNS]).map(",".join)
_HEADER = st.tuples(
    *[
        st.sampled_from([f"{pad}{spelling}" for spelling in (name, name.upper(), name.title())
                         for pad in _PADS])
        for name in _CSV_COLUMNS
    ]
).map(",".join)
_OTHER_LINE = st.one_of(
    _ROW.map(lambda row: "#" + row),
    _ROW.map(lambda row: " # " + row),
    _HEADER,
    st.sampled_from(["", " ", "\t"]),
    st.lists(_csv_field("addr"), min_size=1, max_size=7).map(",".join),
)
#: three lines in four are rows, most of them well formed
_CSV_LINE = st.tuples(
    st.integers(0, 3).flatmap(lambda kind: _ROW if kind else _OTHER_LINE),
    st.sampled_from(["\n", "\r\n", ""]),
).map("".join)


class TestCsvImport:
    @settings(max_examples=200)
    @given(line=_CSV_LINE)
    @example(line="1, 3 , st ,0X4F, 1_000\n")
    @example(line="1,-1,W,0x40,0x400\n")
    @example(line="1,16,W,0x40,0x400\n")
    @example(line="1,3,W,-64,0x400\n")
    @example(line="1,3,W,64,-0x1\n")
    @example(line="#1,3,W,64,0x40\n")
    @example(line=" Cycle , NODE,op,Addr,PC\r\n")
    @example(line="1,3,W,64\n")
    @example(line="\n")
    def test_row_parser_matches_the_reference(self, line):
        """The fast path accepts exactly the rows the reference accepts, and
        every other line is skipped or fails with the reference's text."""

        def outcome(parse):
            try:
                return "row", parse(line, 7, "t.csv", 16)
            except TraceFormatError as error:
                return "error", str(error)

        assert outcome(_parse_csv_row) == outcome(reference_parse_csv_row)

    def test_documented_column_contract(self, tmp_path):
        """Aliases, hex, comments, blank lines, and the epoch semantics:
        stores open epochs, foreign loads accumulate truth, a store on an
        open block closes it with inval = its truth."""
        src = tmp_path / "t.csv"
        src.write_text(CSV_SAMPLE, encoding="utf-8")
        dst = tmp_path / "t.rtrace"
        events, _fingerprint = import_csv(src, dst, num_nodes=4, line_size=64)
        assert events == 3
        trace = FileTraceSource(dst).materialize()
        assert trace.writer.tolist() == [0, 1, 0]
        assert trace.block.tolist() == [0, 1, 0]
        assert trace.home.tolist() == [0, 1, 0]
        assert trace.pc.tolist() == [0x400, 0x408, 0x400]
        # event 0's epoch gathered reader 1, then event 2 closed it
        assert trace.truth_ints() == [0b0010, 0b0001, 0]
        assert trace.close.tolist() == [2, 3, 3]
        assert trace.has_inval.tolist() == [False, False, True]
        assert trace.inval_ints() == [0, 0, 0b0010]

    @pytest.mark.parametrize(
        "row,match",
        [
            ("1,9,W,0x0,0x0", "out of range"),
            ("1,0,FROB,0x0,0x0", "malformed row"),
            ("1,0,W,0x0", "expected cycle,node,op,addr,pc"),
            ("1,0,W,-64,0x0", "negative"),
        ],
    )
    def test_malformed_rows_rejected_with_line_numbers(self, tmp_path, row, match):
        src = tmp_path / "t.csv"
        src.write_text(f"1,0,W,0x0,0x0\n{row}\n", encoding="utf-8")
        dst = tmp_path / "t.rtrace"
        with pytest.raises(TraceFormatError, match=match) as excinfo:
            import_csv(src, dst, num_nodes=4)
        assert ":2:" in str(excinfo.value)
        assert not dst.exists()

    def test_synthetic_csv_imports_consistently(self, tmp_path):
        """The CI smoke's generator: deterministic output whose import
        passes the streaming consistency check and self-verifies."""
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        synthesize_csv(csv_a, events=400, num_nodes=16, blocks=64, seed=7)
        synthesize_csv(csv_b, events=400, num_nodes=16, blocks=64, seed=7)
        assert csv_a.read_bytes() == csv_b.read_bytes()
        dst = tmp_path / "a.rtrace"
        events, _fingerprint = import_csv(
            csv_a, dst, num_nodes=16, name="synth", chunk_events=64
        )
        assert events == 400
        source = FileTraceSource(dst)
        source.verify()
        checker = StreamingConsistencyChecker(source.num_nodes)
        for chunk in source.chunks():
            checker.feed(chunk)
        checker.finish()
