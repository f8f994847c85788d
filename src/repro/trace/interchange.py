"""The ``.rtrace`` on-disk trace interchange format.

A versioned, streaming, checksummed container for sharing traces at
scales where the resident ``.npz`` round-trip stops being viable
(millions of events): a :class:`TraceWriter` appends columnar chunk
segments as they are produced, a :class:`TraceReader` iterates them back
without ever holding more than one chunk, and :class:`FileTraceSource`
plugs the file straight into the :class:`~repro.trace.source.TraceSource`
pipeline (engines, stats, traffic replay).

It is also the only form in which a trace leaves its process: a worker
receives a file-backed trace as its path and any other trace as the
in-memory image :func:`trace_image` encodes (the same bytes
:func:`write_source` would write), read back by
:class:`ImageTraceSource`.

File layout (all JSON lines are UTF-8, ``\\n``-terminated)::

    #rtrace1\\n                                      magic (9 bytes)
    {"schema": 1, "nodes": ..., "name": ...,        header line
     "machine": <MachineSpec.to_json() or null>,
     "bitmap_dtype": "uint32", "bitmap_words": 1}
    {"events": n, "nbytes": m, "crc": c}\\n           chunk record
    <m bytes: writer|pc|home|block|truth|inval|      chunk payload
     has_inval|close, concatenated C-contiguous>     (repeated)
    {"end": true, "events": N, "chunks": C,          footer line
     "fingerprint": "..."}
    <8-byte LE footer-line length> #rtrace1\\n        trailer (17 bytes)

The fixed-size trailer makes the header *and* footer readable in O(1):
``TraceReader`` knows the event count and content fingerprint without
touching the chunk data, which is what lets caches, journals, and the
remote transport key on a multi-gigabyte file for the cost of two
seeks.  Every chunk payload carries a CRC-32; a torn tail, a flipped
byte, or a stale schema all surface as
:class:`~repro.trace.io.TraceFormatError`, which the cache layer
(``util/persist.py``) already treats as "warn, discard, regenerate".

Writers stream into a same-directory temporary file and ``os.replace``
into place on :meth:`TraceWriter.close`, so a crashed import can never
leave a half-written ``.rtrace`` where a reader will find it -- the same
atomicity contract as :func:`repro.util.persist.atomic_write_bytes`.

The module doubles as the importer CLI (``repro-trace`` /
``python -m repro.trace.interchange``): see EXPERIMENTS.md for the
external CSV column contract.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import struct
import sys
import tempfile
import zlib
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.machine import MachineSpec
from repro.telemetry import get_telemetry
from repro.trace.builder import StreamingTraceBuilder
from repro.trace.events import SharingTrace
from repro.trace.io import TextTraceReader, TraceFormatError
from repro.trace.source import (
    CHUNK_FIELDS,
    DEFAULT_CHUNK_EVENTS,
    StreamFingerprinter,
    StreamingConsistencyChecker,
    TraceChunk,
    TraceSource,
    as_source,
    rechunk,
)
from repro.util.bitmaps import bitmap_layout

#: bump when the container layout changes incompatibly; readers refuse
#: other schemas with a TraceFormatError so stale files regenerate
RTRACE_SCHEMA = 1

MAGIC = b"#rtrace1\n"

_TRAILER_SIZE = 8 + len(MAGIC)

PathLike = Union[str, os.PathLike]


def _chunk_nbytes(events: int, n_words: int, itemsize: int) -> int:
    """The exact payload size of a chunk with ``events`` events."""
    # writer + pc + home + block + close: int64; has_inval: 1 byte;
    # truth + inval: n_words bitmap words each
    return events * (5 * 8 + 1) + 2 * events * n_words * itemsize


class TraceWriter:
    """Streaming ``.rtrace`` writer: append column batches, then close.

    Each :meth:`write_columns` / :meth:`write_chunk` call becomes one
    self-describing chunk segment; the content fingerprint accumulates
    incrementally, so closing is O(1) regardless of trace size.

    ``path`` is a file path or an open binary handle.  A file appears at
    its path only on a successful :meth:`close` (written to a temporary
    file, fsynced, then moved into place); a handle -- typically an
    :class:`io.BytesIO` building an in-memory image -- receives the same
    bytes in place and stays open, owned by the caller.
    """

    def __init__(
        self,
        path: Union[PathLike, IO[bytes]],
        num_nodes: int,
        name: str = "trace",
        machine: Optional[MachineSpec] = None,
    ):
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
        self.layout = bitmap_layout(num_nodes)
        self._fingerprinter = StreamFingerprinter(num_nodes, name=name, machine=machine)
        self._events = 0
        self._chunks = 0
        self._closed = False
        self._tmp_path: Optional[str] = None
        if hasattr(path, "write"):
            self.path: Optional[str] = None
            self._handle: Optional[IO[bytes]] = path
        else:
            self.path = os.fspath(path)
            directory = os.path.dirname(self.path) or "."
            fd, self._tmp_path = tempfile.mkstemp(
                dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
            )
            self._handle = os.fdopen(fd, "wb")
        header = {
            "schema": RTRACE_SCHEMA,
            "nodes": num_nodes,
            "name": name,
            "machine": machine.to_json() if machine is not None else None,
            "bitmap_dtype": str(np.dtype(self.layout.dtype)),
            "bitmap_words": self.layout.n_words,
        }
        self._handle.write(MAGIC)
        self._handle.write(_json_line(header))

    @property
    def events_written(self) -> int:
        return self._events

    def write_columns(
        self,
        writer,
        pc,
        home,
        block,
        truth,
        inval,
        has_inval,
        close,
    ) -> None:
        """Append one chunk of events given as eight parallel columns.

        Accepts anything array-like; bitmap columns may be Python-int
        sequences (packed via the machine's
        :class:`~repro.util.bitmaps.BitmapLayout`).  ``close`` indices
        must be absolute.
        """
        if self._handle is None:
            raise ValueError("TraceWriter is closed")
        layout = self.layout
        columns = (
            np.ascontiguousarray(np.asarray(writer, dtype=np.int64)),
            np.ascontiguousarray(np.asarray(pc, dtype=np.int64)),
            np.ascontiguousarray(np.asarray(home, dtype=np.int64)),
            np.ascontiguousarray(np.asarray(block, dtype=np.int64)),
            np.ascontiguousarray(layout.asarray(truth)),
            np.ascontiguousarray(layout.asarray(inval)),
            np.ascontiguousarray(np.asarray(has_inval, dtype=bool)),
            np.ascontiguousarray(np.asarray(close, dtype=np.int64)),
        )
        events = len(columns[0])
        for field, column in zip(CHUNK_FIELDS, columns):
            if len(column) != events:
                raise ValueError(
                    f"column {field!r} has {len(column)} events, expected {events}"
                )
        if events == 0:
            return
        chunk = TraceChunk(
            num_nodes=self.num_nodes,
            start=self._events,
            writer=columns[0],
            pc=columns[1],
            home=columns[2],
            block=columns[3],
            truth=columns[4],
            inval=columns[5],
            has_inval=columns[6],
            close=columns[7],
            name=self.name,
            machine=self.machine,
        )
        self._fingerprinter.update(chunk)
        payload = b"".join(column.tobytes() for column in columns)
        record = {
            "events": events,
            "nbytes": len(payload),
            "crc": zlib.crc32(payload),
        }
        self._handle.write(_json_line(record))
        self._handle.write(payload)
        self._events += events
        self._chunks += 1

    def write_chunk(self, chunk: TraceChunk) -> None:
        """Append one :class:`TraceChunk` (columns already canonical)."""
        self.write_columns(
            chunk.writer,
            chunk.pc,
            chunk.home,
            chunk.block,
            chunk.truth,
            chunk.inval,
            chunk.has_inval,
            chunk.close,
        )

    def close(self) -> str:
        """Seal the image (footer + trailer); a file moves into place atomically.

        Returns the content's streaming fingerprint.
        """
        if self._handle is None:
            raise ValueError("TraceWriter is closed")
        fingerprint = self._fingerprinter.finish()
        footer = {
            "end": True,
            "events": self._events,
            "chunks": self._chunks,
            "fingerprint": fingerprint,
        }
        footer_line = _json_line(footer)
        self._handle.write(footer_line)
        self._handle.write(struct.pack("<Q", len(footer_line)))
        self._handle.write(MAGIC)
        if self._tmp_path is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp_path, self.path)
            telemetry = get_telemetry()
            telemetry.count("trace.interchange.writes")
            telemetry.count("trace.interchange.events_written", self._events)
        self._handle = None
        self._closed = True
        return fingerprint

    def abort(self) -> None:
        """Discard the partial file (nothing ever appears at ``path``)."""
        if self._handle is not None and self._tmp_path is not None:
            self._handle.close()
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass
        self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


def _json_line(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


class _ImageHandle:
    """The part of the binary-file interface :class:`TraceReader` uses,
    over an in-memory image.  ``read`` returns zero-copy ``memoryview``
    slices, so decoded chunk columns alias the image's buffer."""

    def __init__(self, image: memoryview):
        self._image = image
        self._pos = 0

    def __enter__(self) -> "_ImageHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._pos = offset + (len(self._image) if whence == os.SEEK_END else 0)
        return self._pos

    def read(self, size: int) -> memoryview:
        start = self._pos
        self._pos = min(start + size, len(self._image))
        return self._image[start : self._pos]

    def readline(self) -> bytes:
        start = end = self._pos
        while end < len(self._image):
            window = bytes(self._image[end : end + 4096])
            newline = window.find(b"\n")
            if newline >= 0:
                end += newline + 1
                break
            end += len(window)
        self._pos = end
        return bytes(self._image[start:end])


class TraceReader:
    """Streaming ``.rtrace`` reader over a file or an in-memory image.

    ``path`` is a file path, or a ``memoryview`` of an image (over
    ``bytes``, a shared-memory segment) that is read in place.  Construction reads
    only the header and footer (two seeks), so event count, machine
    header, and fingerprint are O(1) regardless of size; :meth:`chunks`
    then walks the segments, verifying each CRC.  Any structural damage
    -- bad magic, stale schema, torn tail, short or corrupt payload,
    totals that disagree with the footer -- raises
    :class:`TraceFormatError`.
    """

    def __init__(self, path: Union[PathLike, memoryview]):
        if isinstance(path, memoryview):
            self._image: Optional[memoryview] = path.cast("B")
            self.path = "<image>"
        else:
            self._image = None
            self.path = os.fspath(path)
        try:
            self._read_meta()
        except TraceFormatError:
            get_telemetry().count("trace.interchange.read_failures")
            raise

    def _open(self):
        if self._image is not None:
            return _ImageHandle(self._image)
        return open(self.path, "rb")

    def _read_meta(self) -> None:
        try:
            with self._open() as handle:
                magic = bytes(handle.read(len(MAGIC)))
                if magic != MAGIC:
                    raise TraceFormatError(
                        f"{self.path} is not an .rtrace file (bad magic)"
                    )
                header_line = handle.readline()
                if not header_line.endswith(b"\n"):
                    raise TraceFormatError(f"{self.path}: truncated header")
                header = json.loads(header_line)
                data_start = handle.tell()
                size = handle.seek(0, os.SEEK_END)
                if size < data_start + _TRAILER_SIZE:
                    raise TraceFormatError(f"{self.path}: torn tail (no trailer)")
                handle.seek(size - _TRAILER_SIZE)
                trailer = bytes(handle.read(_TRAILER_SIZE))
                if trailer[8:] != MAGIC:
                    raise TraceFormatError(
                        f"{self.path}: torn tail (trailer magic missing)"
                    )
                (footer_len,) = struct.unpack("<Q", trailer[:8])
                footer_start = size - _TRAILER_SIZE - footer_len
                if footer_start < data_start:
                    raise TraceFormatError(f"{self.path}: torn tail (bad footer size)")
                handle.seek(footer_start)
                footer = json.loads(bytes(handle.read(footer_len)))
        except TraceFormatError:
            raise
        except (OSError, ValueError, struct.error, UnicodeDecodeError) as error:
            raise TraceFormatError(
                f"unreadable .rtrace file {self.path}: {error}"
            ) from error
        schema = header.get("schema")
        if schema != RTRACE_SCHEMA:
            raise TraceFormatError(
                f"{self.path}: unsupported .rtrace schema {schema!r} "
                f"(expected {RTRACE_SCHEMA})"
            )
        if not footer.get("end"):
            raise TraceFormatError(f"{self.path}: torn tail (footer not final)")
        try:
            self.num_nodes = int(header["nodes"])
            self.name = str(header["name"])
            machine_json = header.get("machine")
            self.machine = (
                MachineSpec.from_json(machine_json) if machine_json else None
            )
            self.num_events = int(footer["events"])
            self.num_chunks = int(footer["chunks"])
            self.fingerprint = str(footer["fingerprint"])
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(
                f"{self.path}: malformed .rtrace metadata: {error}"
            ) from error
        self.layout = bitmap_layout(self.num_nodes)
        if (
            header.get("bitmap_dtype") != str(np.dtype(self.layout.dtype))
            or header.get("bitmap_words") != self.layout.n_words
        ):
            raise TraceFormatError(
                f"{self.path}: bitmap layout in header does not match "
                f"{self.num_nodes} nodes"
            )
        self._data_start = data_start
        self._data_end = footer_start

    def __len__(self) -> int:
        return self.num_events

    def chunks(self) -> Iterator[TraceChunk]:
        """Iterate the segments in order (restartable)."""
        layout = self.layout
        itemsize = np.dtype(layout.dtype).itemsize
        events_seen = 0
        chunks_seen = 0
        telemetry = get_telemetry()
        with self._open() as handle:
            handle.seek(self._data_start)
            while handle.tell() < self._data_end:
                record_line = handle.readline()
                try:
                    record = json.loads(record_line)
                    events = int(record["events"])
                    nbytes = int(record["nbytes"])
                    crc = int(record["crc"])
                except (KeyError, TypeError, ValueError) as error:
                    raise TraceFormatError(
                        f"{self.path}: malformed chunk record at event "
                        f"{events_seen}: {error}"
                    ) from error
                if events < 1 or nbytes != _chunk_nbytes(
                    events, layout.n_words, itemsize
                ):
                    raise TraceFormatError(
                        f"{self.path}: chunk at event {events_seen} declares "
                        f"{nbytes} bytes for {events} events"
                    )
                if handle.tell() + nbytes > self._data_end:
                    raise TraceFormatError(
                        f"{self.path}: chunk at event {events_seen} overruns "
                        "the footer"
                    )
                payload = handle.read(nbytes)
                if len(payload) != nbytes:
                    raise TraceFormatError(
                        f"{self.path}: short chunk payload at event {events_seen}"
                    )
                if zlib.crc32(payload) != crc:
                    raise TraceFormatError(
                        f"{self.path}: checksum mismatch in chunk at event "
                        f"{events_seen}"
                    )
                yield self._decode_chunk(payload, events, events_seen)
                events_seen += events
                chunks_seen += 1
        if events_seen != self.num_events or chunks_seen != self.num_chunks:
            raise TraceFormatError(
                f"{self.path}: footer promises {self.num_events} events in "
                f"{self.num_chunks} chunks, found {events_seen} in {chunks_seen}"
            )
        telemetry.count("trace.interchange.chunks_read", chunks_seen)
        telemetry.count("trace.interchange.events_read", events_seen)

    def _decode_chunk(self, payload, events: int, start: int) -> TraceChunk:
        layout = self.layout
        itemsize = np.dtype(layout.dtype).itemsize
        bitmap_count = events * layout.n_words

        offset = 0

        def take(dtype, count, width):
            nonlocal offset
            array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            offset += count * width
            return array

        writer = take(np.int64, events, 8)
        pc = take(np.int64, events, 8)
        home = take(np.int64, events, 8)
        block = take(np.int64, events, 8)
        truth = take(layout.dtype, bitmap_count, itemsize)
        inval = take(layout.dtype, bitmap_count, itemsize)
        has_inval = take(np.bool_, events, 1)
        close = take(np.int64, events, 8)
        if layout.packed:
            truth = truth.reshape(events, layout.n_words)
            inval = inval.reshape(events, layout.n_words)
        return TraceChunk(
            num_nodes=self.num_nodes,
            start=start,
            writer=writer,
            pc=pc,
            home=home,
            block=block,
            truth=truth,
            inval=inval,
            has_inval=has_inval,
            close=close,
            name=self.name,
            machine=self.machine,
        )

    def verified_chunks(self) -> Iterator[TraceChunk]:
        """:meth:`chunks`, ending in a :class:`TraceFormatError` unless the
        content fingerprint recomputed over them matches the footer's."""
        fingerprinter = StreamFingerprinter(
            self.num_nodes, name=self.name, machine=self.machine
        )
        for chunk in self.chunks():
            fingerprinter.update(chunk)
            yield chunk
        actual = fingerprinter.finish()
        if actual != self.fingerprint:
            raise TraceFormatError(
                f"{self.path}: content fingerprint {actual} does not match "
                f"footer fingerprint {self.fingerprint}"
            )

    def verify(self) -> str:
        """Recompute the content fingerprint over all chunks and check it."""
        for _chunk in self.verified_chunks():
            pass
        return self.fingerprint


class FileTraceSource(TraceSource):
    """A :class:`TraceSource` backed by an ``.rtrace`` file.

    Header metadata (length, fingerprint, machine) comes from the O(1)
    reader; chunk iteration streams off disk, so peak memory is one
    chunk's columns no matter the trace size.
    """

    def __init__(self, path: PathLike, chunk_events: int = DEFAULT_CHUNK_EVENTS):
        self._reader = TraceReader(path)
        self.path = self._reader.path
        self.name = self._reader.name
        self.num_nodes = self._reader.num_nodes
        self.machine = self._reader.machine
        self.chunk_events = chunk_events

    def __len__(self) -> int:
        return self._reader.num_events

    def chunks(self, chunk_events: Optional[int] = None) -> Iterator[TraceChunk]:
        native = self._reader.chunks()
        if chunk_events is None:
            return native
        return rechunk(native, chunk_events)

    def fingerprint(self) -> str:
        return self._reader.fingerprint

    def verify(self) -> str:
        return self._reader.verify()


class ImageTraceSource(TraceSource):
    """A :class:`TraceSource` over an in-memory ``.rtrace`` image.

    ``buffer`` is any bytes-like image: ``bytes`` that arrived over a
    pipe or socket, or a shared-memory segment's buffer, which may be
    longer than the image it holds -- ``nbytes`` bounds it.  The image is
    parsed and checked once, here (every segment's CRC, the footer
    totals, and the recomputed content fingerprint), so damage raises
    :class:`TraceFormatError` from the constructor.  Chunks are then
    zero-copy views of the buffer, and passes over them check nothing
    again.
    """

    def __init__(self, buffer, nbytes: Optional[int] = None):
        image = memoryview(buffer).cast("B")
        reader = TraceReader(image if nbytes is None else image[:nbytes])
        self._chunks = list(reader.verified_chunks())
        self._fingerprint = reader.fingerprint
        self._events = reader.num_events
        self.name = reader.name
        self.num_nodes = reader.num_nodes
        self.machine = reader.machine

    def __len__(self) -> int:
        return self._events

    def chunks(self, chunk_events: Optional[int] = None) -> Iterator[TraceChunk]:
        if chunk_events is None:
            return iter(self._chunks)
        return rechunk(iter(self._chunks), chunk_events)

    def fingerprint(self) -> str:
        return self._fingerprint


def write_source(
    source: Union[SharingTrace, TraceSource],
    path: Union[PathLike, IO[bytes]],
    chunk_events: Optional[int] = None,
) -> str:
    """Stream any trace/source into an ``.rtrace`` file or binary handle;
    returns the fingerprint."""
    source = as_source(source)
    writer = TraceWriter(
        path, source.num_nodes, name=source.name, machine=source.machine
    )
    try:
        for chunk in source.chunks(chunk_events):
            writer.write_chunk(chunk)
    except BaseException:
        writer.abort()
        raise
    return writer.close()


def trace_image(trace: Union[SharingTrace, TraceSource]) -> bytes:
    """The ``.rtrace`` image a trace crosses a process boundary as.

    A file-backed source's image is its file's bytes.  Anything else is
    encoded once: a source in its own chunks, a resident trace as a
    single segment, so a worker reads it as one chunk -- exactly how it
    evaluates in process.
    """
    if isinstance(trace, FileTraceSource):
        with open(trace.path, "rb") as handle:
            return handle.read()
    image = io.BytesIO()
    one_segment = None if isinstance(trace, TraceSource) else max(1, len(trace))
    write_source(trace, image, one_segment)
    return image.getvalue()


# ----------------------------------------------------------------------
# Importers
# ----------------------------------------------------------------------


def import_text(
    src: PathLike,
    dst: PathLike,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Tuple[int, str]:
    """Convert a v1 text trace (``dump_text``) into ``.rtrace``.

    Streams line-by-line: peak memory is one chunk of columns plus the
    consistency checker's per-block state.  Returns ``(events,
    fingerprint)``.
    """
    with open(src, "r", encoding="utf-8") as handle:
        reader = TextTraceReader(handle, path=src)
        checker = StreamingConsistencyChecker(reader.num_nodes)
        writer = TraceWriter(
            dst, reader.num_nodes, name=reader.name, machine=reader.machine
        )
        try:
            for chunk in reader.chunks(chunk_events):
                checker.feed(chunk)
                writer.write_chunk(chunk)
            checker.finish()
        except ValueError as error:
            writer.abort()
            if isinstance(error, TraceFormatError):
                raise
            raise TraceFormatError(
                f"{os.fspath(src)} violates trace invariants: {error}"
            ) from error
        except BaseException:
            writer.abort()
            raise
        events = writer.events_written
        fingerprint = writer.close()
    get_telemetry().count("trace.interchange.imports")
    return events, fingerprint


#: ops accepted in the external CSV, normalized to W (store) / R (load)
_CSV_OPS = {
    "W": "W",
    "WR": "W",
    "WRITE": "W",
    "ST": "W",
    "STORE": "W",
    "R": "R",
    "RD": "R",
    "READ": "R",
    "LD": "R",
    "LOAD": "R",
}

_CSV_COLUMNS = ("cycle", "node", "op", "addr", "pc")


def import_csv(
    src: PathLike,
    dst: PathLike,
    num_nodes: int,
    line_size: int = 64,
    name: Optional[str] = None,
    machine: Optional[MachineSpec] = None,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Tuple[int, str]:
    """Convert a gem5/Sniper-style access CSV into ``.rtrace``.

    The column contract (documented in EXPERIMENTS.md): rows are
    ``cycle,node,op,addr,pc``; ``op`` is a store (``W``/``ST``/...) or a
    load (``R``/``LD``/...); ``addr``/``pc`` accept decimal or ``0x``
    hex; blank lines and ``#`` comments are skipped, as is an optional
    literal header row.  Rows must already be in global memory order
    (``cycle`` is informational).  Stores open sharing epochs
    (``block = addr // line_size``, ``home = block % num_nodes``); loads
    by other nodes accumulate into the open epoch's truth bitmap.

    Memory is bounded by the span back to the oldest still-open epoch,
    not the trace length -- the streaming builder flushes every closed
    prefix into the writer.  Returns ``(events, fingerprint)``.
    """
    if name is None:
        name = os.path.splitext(os.path.basename(os.fspath(src)))[0]
    writer = TraceWriter(dst, num_nodes, name=name, machine=machine)
    builder = StreamingTraceBuilder(writer, flush_events=chunk_events)
    try:
        with open(src, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                row = _parse_csv_row(line, lineno, src, num_nodes)
                if row is None:
                    continue
                node, op, addr, pc = row
                block = addr // line_size
                if op == "W":
                    builder.add_event(node, pc, block % num_nodes, block)
                else:
                    builder.add_reader(block, node)
        events = builder.finalize()
    except BaseException:
        writer.abort()
        raise
    fingerprint = writer.close()
    get_telemetry().count("trace.interchange.imports")
    return events, fingerprint


def _parse_csv_row(
    line: str, lineno: int, src: PathLike, num_nodes: int
) -> Optional[Tuple[int, str, int, int]]:
    """One CSV line as ``(node, op, addr, pc)``, or ``None`` for a line to skip.

    A well-formed row takes one split, the four conversions and the range
    checks (``int`` strips the same whitespace ``str.strip`` does).  Any
    other line -- blank, comment, header or malformed -- goes to
    :func:`_checked_csv_row`, which skips it or raises the diagnostic.
    """
    try:
        cycle, node, op, addr, pc = line.split(",")
        if "#" not in cycle:
            node = int(node)
            op = _CSV_OPS[op.strip().upper()]
            addr = int(addr, 0)
            pc = int(pc, 0)
            if 0 <= node < num_nodes and addr >= 0 and pc >= 0:
                return node, op, addr, pc
    except (KeyError, ValueError):
        pass
    return _checked_csv_row(line, lineno, src, num_nodes)


def _checked_csv_row(
    line: str, lineno: int, src: PathLike, num_nodes: int
) -> Optional[Tuple[int, str, int, int]]:
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


def import_npz(
    src: PathLike,
    dst: PathLike,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Tuple[int, str]:
    """Convert a cached ``.npz`` trace into ``.rtrace`` (resident load)."""
    from repro.trace.io import load_trace

    trace = load_trace(src)
    fingerprint = write_source(trace, dst, chunk_events)
    get_telemetry().count("trace.interchange.imports")
    return len(trace), fingerprint


# ----------------------------------------------------------------------
# Synthetic CSV generation (CI smoke + benchmarks)
# ----------------------------------------------------------------------


def synthesize_csv(
    dst: PathLike,
    events: int,
    num_nodes: int,
    blocks: int = 4096,
    seed: int = 1,
    line_size: int = 64,
    pcs: int = 64,
    max_readers: int = 4,
) -> int:
    """Write a deterministic synthetic access CSV of ``events`` stores.

    Uniform-random block reuse keeps the open-epoch span (and hence the
    importer's memory) bounded by roughly ``blocks * ln(blocks)`` events;
    each store is followed by a handful of loads from other nodes so the
    resulting epochs carry non-trivial sharing truth.  Streams rows
    straight to disk -- O(1) memory at any event count.  Returns the
    number of rows written.
    """
    import random

    rng = random.Random(seed)
    rows = 0
    cycle = 0
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write("cycle,node,op,addr,pc\n")
        for _ in range(events):
            block = rng.randrange(blocks)
            node = rng.randrange(num_nodes)
            pc = 0x400000 + 8 * rng.randrange(pcs)
            addr = block * line_size
            cycle += rng.randrange(1, 8)
            handle.write(f"{cycle},{node},W,{addr:#x},{pc:#x}\n")
            rows += 1
            for _ in range(rng.randrange(max_readers + 1)):
                reader = rng.randrange(num_nodes)
                cycle += rng.randrange(1, 4)
                handle.write(f"{cycle},{reader},R,{addr:#x},{pc:#x}\n")
                rows += 1
    return rows


# ----------------------------------------------------------------------
# CLI: repro-trace / python -m repro.trace.interchange
# ----------------------------------------------------------------------


def _guess_format(path: str) -> str:
    extension = os.path.splitext(path)[1].lower()
    if extension in (".txt", ".text", ".trace"):
        return "text"
    if extension == ".csv":
        return "csv"
    if extension == ".npz":
        return "npz"
    raise SystemExit(
        f"cannot guess the input format of {path!r}; pass --format"
    )


def _cmd_import(args: argparse.Namespace) -> int:
    fmt = args.format or _guess_format(args.src)
    if fmt == "csv":
        if args.nodes is None:
            raise SystemExit("--nodes is required for CSV imports")
        events, fingerprint = import_csv(
            args.src,
            args.dst,
            num_nodes=args.nodes,
            line_size=args.line_size,
            name=args.name,
            chunk_events=args.chunk_events,
        )
    elif fmt == "text":
        events, fingerprint = import_text(
            args.src, args.dst, chunk_events=args.chunk_events
        )
    else:
        events, fingerprint = import_npz(
            args.src, args.dst, chunk_events=args.chunk_events
        )
    if args.verify:
        TraceReader(args.dst).verify()
    print(
        f"imported {events} events from {args.src} ({fmt}) -> {args.dst} "
        f"[fingerprint {fingerprint}]"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    reader = TraceReader(args.path)
    machine = reader.machine.to_json() if reader.machine is not None else "-"
    print(f"path:        {reader.path}")
    print(f"schema:      {RTRACE_SCHEMA}")
    print(f"name:        {reader.name}")
    print(f"nodes:       {reader.num_nodes}")
    print(f"events:      {reader.num_events}")
    print(f"chunks:      {reader.num_chunks}")
    print(f"fingerprint: {reader.fingerprint}")
    print(f"machine:     {machine}")
    if args.verify:
        reader.verify()
        print("verified:    content matches footer fingerprint")
    return 0


def _cmd_export_text(args: argparse.Namespace) -> int:
    from repro.trace.io import dump_text

    source = FileTraceSource(args.src)
    dump_text(source, args.dst)
    print(f"exported {len(source)} events from {args.src} -> {args.dst}")
    return 0


def _cmd_synth_csv(args: argparse.Namespace) -> int:
    rows = synthesize_csv(
        args.dst,
        events=args.events,
        num_nodes=args.nodes,
        blocks=args.blocks,
        seed=args.seed,
        line_size=args.line_size,
    )
    print(f"wrote {rows} rows ({args.events} stores) to {args.dst}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Import, inspect, and export .rtrace interchange files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser(
        "import", help="convert a text/CSV/npz trace into .rtrace"
    )
    cmd.add_argument("src", help="input trace file")
    cmd.add_argument("dst", help="output .rtrace path")
    cmd.add_argument(
        "--format",
        choices=("text", "csv", "npz"),
        help="input format (default: guess from the extension)",
    )
    cmd.add_argument(
        "--nodes", type=int, help="machine width (required for CSV input)"
    )
    cmd.add_argument(
        "--line-size",
        type=int,
        default=64,
        help="cache line size in bytes for CSV address mapping (default 64)",
    )
    cmd.add_argument("--name", help="trace name (default: input file stem)")
    cmd.add_argument(
        "--chunk-events",
        type=int,
        default=DEFAULT_CHUNK_EVENTS,
        help=f"events per chunk segment (default {DEFAULT_CHUNK_EVENTS})",
    )
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="re-read the output and check its content fingerprint",
    )
    cmd.set_defaults(func=_cmd_import)

    cmd = commands.add_parser("info", help="print an .rtrace file's header")
    cmd.add_argument("path")
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="also recompute and check the content fingerprint",
    )
    cmd.set_defaults(func=_cmd_info)

    cmd = commands.add_parser(
        "export-text", help="convert .rtrace back to the v1 text format"
    )
    cmd.add_argument("src")
    cmd.add_argument("dst")
    cmd.set_defaults(func=_cmd_export_text)

    cmd = commands.add_parser(
        "synth-csv",
        help="generate a deterministic synthetic access CSV (for smokes)",
    )
    cmd.add_argument("dst")
    cmd.add_argument("--events", type=int, required=True, help="store count")
    cmd.add_argument("--nodes", type=int, default=16)
    cmd.add_argument("--blocks", type=int, default=4096)
    cmd.add_argument("--seed", type=int, default=1)
    cmd.add_argument("--line-size", type=int, default=64)
    cmd.set_defaults(func=_cmd_synth_csv)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
