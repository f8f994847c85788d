"""Trace persistence.

Traces are expensive to generate (a full protocol simulation) and cheap to
store, so the harness caches them as ``.npz`` files.  A human-readable text
format is also provided for debugging; ``repro-trace import``
(:func:`~repro.trace.interchange.import_text`) reads it back into ``.rtrace``.
"""

from __future__ import annotations

import io
import os
import zipfile
from typing import IO, Iterator, Optional, Union

import numpy as np

from repro.machine import MachineSpec
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import (
    CHUNK_FIELDS,
    DEFAULT_CHUNK_EVENTS,
    TraceChunk,
    TraceSource,
    as_source,
)
from repro.util.bitmaps import bitmap_layout
from repro.util.persist import CacheCorruptionError, atomic_write_bytes

_FORMAT_VERSION = 1

#: arrays every trace archive must contain
_REQUIRED_FIELDS = (
    "version",
    "num_nodes",
    "name",
    "writer",
    "pc",
    "home",
    "block",
    "truth",
    "inval",
    "has_inval",
    "close",
)


class TraceFormatError(CacheCorruptionError, ValueError):
    """A trace file is truncated, not an npz archive, or schema-stale.

    Doubles as a :class:`ValueError` for callers that validate formats and
    as a :class:`~repro.util.persist.CacheCorruptionError` for the cache
    layer, which treats it as a miss and regenerates.
    """


def save_trace(trace: SharingTrace, path: Union[str, os.PathLike]) -> None:
    """Write a trace as a compressed ``.npz`` archive, atomically.

    The archive is serialized in memory and moved into place with
    ``os.replace``, so a crashed writer can never leave a truncated trace
    behind for the next reader to trip over.
    """
    telemetry = get_telemetry()
    with telemetry.timer("trace.io.save_seconds"):
        arrays = dict(
            version=np.int64(_FORMAT_VERSION),
            num_nodes=np.int64(trace.num_nodes),
            name=np.array(trace.name),
            writer=trace.writer,
            pc=trace.pc,
            home=trace.home,
            block=trace.block,
            truth=trace.truth,
            inval=trace.inval,
            has_inval=trace.has_inval,
            close=trace.close,
        )
        # The machine spec is an *optional* member: traces written before
        # MachineSpec existed (and traces generated without one) omit it,
        # and the loader treats absence as "paper-default machine".
        if trace.machine is not None:
            arrays["machine"] = np.array(trace.machine.to_json())
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        atomic_write_bytes(path, buffer.getvalue())
    telemetry.count("trace.io.saves")
    telemetry.count("trace.io.events_saved", len(trace))


def load_trace(path: Union[str, os.PathLike]) -> SharingTrace:
    """Load a trace written by :func:`save_trace`, verifying its invariants.

    Raises:
        TraceFormatError: the file is not a readable npz archive, is missing
            required arrays, was written under a different format version,
            or fails the trace consistency checks.
    """
    telemetry = get_telemetry()
    try:
        with telemetry.timer("trace.io.load_seconds"):
            trace = _load_trace_checked(path)
    except TraceFormatError:
        telemetry.count("trace.io.load_failures")
        raise
    telemetry.count("trace.io.loads")
    telemetry.count("trace.io.events_loaded", len(trace))
    return trace


def _load_trace_checked(path: Union[str, os.PathLike]) -> SharingTrace:
    try:
        with np.load(path, allow_pickle=False) as archive:
            missing = [field for field in _REQUIRED_FIELDS if field not in archive]
            if missing:
                raise TraceFormatError(
                    f"trace file {path} is missing fields {missing}"
                )
            version = int(archive["version"])
            if version != _FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported trace format version {version} in {path}"
                )
            machine = None
            if "machine" in archive:
                machine = MachineSpec.from_json(str(archive["machine"]))
            trace = SharingTrace(
                num_nodes=int(archive["num_nodes"]),
                writer=archive["writer"],
                pc=archive["pc"],
                home=archive["home"],
                block=archive["block"],
                truth=archive["truth"],
                inval=archive["inval"],
                has_inval=archive["has_inval"],
                close=archive["close"],
                name=str(archive["name"]),
                machine=machine,
            )
    except TraceFormatError:
        raise
    except (zipfile.BadZipFile, OSError, KeyError, ValueError, EOFError) as error:
        # BadZipFile: not a zip; OSError/EOFError: truncated or unreadable;
        # KeyError/ValueError: member arrays absent or malformed.
        raise TraceFormatError(f"unreadable trace file {path}: {error}") from error
    try:
        trace.check_consistency()
    except (ValueError, AssertionError) as error:
        raise TraceFormatError(
            f"trace file {path} violates trace invariants: {error}"
        ) from error
    return trace


def dump_text(
    trace: Union[SharingTrace, TraceSource], path: Union[str, os.PathLike]
) -> None:
    """Write a trace (or source) as one whitespace-separated line per event.

    Columns: writer pc home block truth inval has_inval close (bitmaps in
    hex).  Meant for eyeballing and cross-tool exchange, not bulk storage.
    Streams chunk by chunk, so a file-backed source exports at O(chunk)
    memory.
    """
    source = as_source(trace)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# sharing-trace v{_FORMAT_VERSION} nodes={source.num_nodes} "
                     f"name={source.name}\n")
        if source.machine is not None:
            handle.write(f"# machine={source.machine.to_json()}\n")
        handle.write("# writer pc home block truth inval has_inval close\n")
        for chunk in source.chunks():
            writers = chunk.writer.tolist()
            pcs = chunk.pc.tolist()
            homes = chunk.home.tolist()
            blocks = chunk.block.tolist()
            truths = chunk.truth_ints()
            invals = chunk.inval_ints()
            has_invals = chunk.has_inval.tolist()
            closes = chunk.close.tolist()
            for index in range(len(writers)):
                handle.write(
                    f"{writers[index]} {pcs[index]} {homes[index]} "
                    f"{blocks[index]} {truths[index]:#x} {invals[index]:#x} "
                    f"{int(has_invals[index])} {closes[index]}\n"
                )


class TextTraceReader:
    """Single-pass streaming reader for the v1 text trace format.

    Consumes header lines up front (so ``num_nodes``/``name``/``machine``
    are available before any data is read), then yields the event rows as
    columnar :class:`~repro.trace.source.TraceChunk` windows.  Malformed
    lines raise :class:`TraceFormatError` (a :class:`ValueError`), as
    does a missing ``nodes=`` header.
    """

    def __init__(self, handle: IO[str], path: Union[str, os.PathLike] = "<text>"):
        self._handle = handle
        self._path = os.fspath(path)
        self.num_nodes: Optional[int] = None
        self.name = "trace"
        self.machine: Optional[MachineSpec] = None
        self._first_row: Optional[str] = None
        for line in handle:
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                for token in text[1:].split():
                    if token.startswith("nodes="):
                        self.num_nodes = int(token.split("=", 1)[1])
                    elif token.startswith("name="):
                        self.name = token.split("=", 1)[1]
                    elif token.startswith("machine="):
                        # compact JSON is whitespace-free, so one token
                        self.machine = MachineSpec.from_json(
                            token.split("=", 1)[1]
                        )
                continue
            self._first_row = text
            break
        if self.num_nodes is None:
            raise TraceFormatError("trace text is missing the 'nodes=' header")
        self.layout = bitmap_layout(self.num_nodes)

    def chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[TraceChunk]:
        """Yield the data rows as column chunks (single pass)."""
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be positive, got {chunk_events}")
        columns: list = [[] for _ in CHUNK_FIELDS]
        start = 0

        def build() -> TraceChunk:
            assert self.num_nodes is not None
            chunk = TraceChunk(
                num_nodes=self.num_nodes,
                start=start,
                writer=np.asarray(columns[0], dtype=np.int64),
                pc=np.asarray(columns[1], dtype=np.int64),
                home=np.asarray(columns[2], dtype=np.int64),
                block=np.asarray(columns[3], dtype=np.int64),
                truth=self.layout.asarray(columns[4]),
                inval=self.layout.asarray(columns[5]),
                has_inval=np.asarray(columns[6], dtype=bool),
                close=np.asarray(columns[7], dtype=np.int64),
                name=self.name,
                machine=self.machine,
            )
            return chunk

        def rows() -> Iterator[str]:
            if self._first_row is not None:
                yield self._first_row
                self._first_row = None
            for line in self._handle:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                yield text

        for text in rows():
            fields = text.split()
            if len(fields) != 8:
                raise TraceFormatError(f"malformed trace line: {text!r}")
            try:
                columns[0].append(int(fields[0]))
                columns[1].append(int(fields[1]))
                columns[2].append(int(fields[2]))
                columns[3].append(int(fields[3]))
                columns[4].append(int(fields[4], 16))
                columns[5].append(int(fields[5], 16))
                columns[6].append(bool(int(fields[6])))
                columns[7].append(int(fields[7]))
            except ValueError as error:
                raise TraceFormatError(
                    f"malformed trace line: {text!r}"
                ) from error
            if len(columns[0]) == chunk_events:
                yield build()
                start += chunk_events
                columns = [[] for _ in CHUNK_FIELDS]
        if columns[0]:
            yield build()
