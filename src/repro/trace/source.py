"""The ``TraceSource`` abstraction: traces as streams of columnar chunks.

A :class:`~repro.trace.events.SharingTrace` is a *resident* trace: every
column lives in memory at full length.  That is the right shape for the
paper-scale suite (a few hundred thousand events per benchmark), but the
roadmap's externally captured traces run to millions of events, and
holding eight full-length columns -- plus the evaluator's per-scheme
temporaries -- defeats the point of streaming them off disk.

:class:`TraceSource` is the minimal common shape both worlds share: a
length / node-count / :class:`~repro.machine.MachineSpec` header plus an
iterator of fixed-size :class:`TraceChunk` column windows.  The resident
trace is one implementation (:class:`ResidentTraceSource`, zero-copy
views); the ``.rtrace`` interchange file is another
(:mod:`repro.trace.interchange`).  Consumers that can work a window at a
time (the evaluator in :mod:`repro.core.plan`, the streaming stats
accumulator, the traffic replayer) accept either via :func:`as_source` or
:func:`trace_chunks`, which reads a resident trace as one chunk; consumers
that genuinely need residency call :func:`as_trace` and pay for it
explicitly.

**Chunks duck-type as miniature traces.**  A :class:`TraceChunk` exposes
the same column attributes (``writer`` ... ``close``), ``num_nodes``,
``layout``, and ``__len__`` as a ``SharingTrace``, so column-wise
helpers -- :func:`repro.core.vectorized.compute_keys`,
:func:`repro.core.kernel_backends.score_predictions` -- work on chunks
unchanged.  ``close`` indices stay *absolute* (they may point past the
chunk's end); ``chunk.start`` anchors the window in the full trace.

**Fingerprints.**  :func:`stream_fingerprint` is a trace's one content
identity: one sub-hash per field, fed chunk by chunk, combined
field-major at the end -- so it is computable incrementally (writers,
importers) and is the same however the content is chunked.  An
``.rtrace`` footer stores it, and transport keys, worker trace caches
and worker install checks all compare it (DESIGN.md, "Trace interchange
and streaming").
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.trace.events import SharingTrace
from repro.util.bitmaps import BitmapLayout, bitmap_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec

#: default events per chunk -- large enough that per-chunk numpy passes
#: amortize, small enough that a chunk's working set stays in cache-ish
#: territory (~4 MB of columns at 64 nodes)
DEFAULT_CHUNK_EVENTS = 65536

#: the array fields of a trace chunk, in canonical serialization order
CHUNK_FIELDS = ("writer", "pc", "home", "block", "truth", "inval", "has_inval", "close")


class TraceChunk:
    """One contiguous window of trace events, as columnar views.

    Duck-types as a miniature :class:`~repro.trace.events.SharingTrace`
    for column-wise consumers; ``start`` is the window's absolute offset
    in the full trace and ``close`` values are absolute event indices
    (``close >= chunk.end`` means the epoch closes beyond this window).
    """

    __slots__ = (
        "num_nodes",
        "layout",
        "name",
        "machine",
        "start",
        "writer",
        "pc",
        "home",
        "block",
        "truth",
        "inval",
        "has_inval",
        "close",
    )

    def __init__(
        self,
        num_nodes: int,
        start: int,
        writer: np.ndarray,
        pc: np.ndarray,
        home: np.ndarray,
        block: np.ndarray,
        truth: np.ndarray,
        inval: np.ndarray,
        has_inval: np.ndarray,
        close: np.ndarray,
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
    ):
        self.num_nodes = num_nodes
        self.layout = bitmap_layout(num_nodes)
        self.name = name
        self.machine = machine
        self.start = start
        self.writer = writer
        self.pc = pc
        self.home = home
        self.block = block
        self.truth = truth
        self.inval = inval
        self.has_inval = has_inval
        self.close = close

    def __len__(self) -> int:
        return len(self.writer)

    @property
    def end(self) -> int:
        """Absolute index one past the chunk's last event."""
        return self.start + len(self.writer)

    def truth_ints(self) -> List[int]:
        """The truth window as Python ints (for the sequential kernel)."""
        return self.layout.to_int_list(self.truth)

    def inval_ints(self) -> List[int]:
        """The invalidation window as Python ints."""
        return self.layout.to_int_list(self.inval)


class TraceSource(ABC):
    """A trace as a header plus an iterable of columnar chunks.

    Implementations promise: ``len(source)`` is the exact event count,
    :meth:`chunks` yields non-overlapping, in-order windows covering all
    events, and :meth:`fingerprint` is the content's
    :func:`stream_fingerprint`.  Iterating :meth:`chunks` is restartable
    (each call begins a fresh pass).
    """

    name: str = "trace"
    num_nodes: int = 0
    machine: Optional["MachineSpec"] = None
    chunk_events: int = DEFAULT_CHUNK_EVENTS

    @property
    def layout(self) -> BitmapLayout:
        """The bitmap column layout for this source's machine width."""
        return bitmap_layout(self.num_nodes)

    @abstractmethod
    def __len__(self) -> int:
        """Total number of events."""

    @abstractmethod
    def chunks(self, chunk_events: Optional[int] = None) -> Iterator[TraceChunk]:
        """Iterate the trace as column windows of up to ``chunk_events``."""

    @abstractmethod
    def fingerprint(self) -> str:
        """The content's streaming fingerprint (:func:`stream_fingerprint`)."""

    def materialize(self) -> SharingTrace:
        """Assemble the full resident trace (pays the resident memory cost)."""
        chunks = list(self.chunks())
        if not chunks:
            empty = self.layout.zeros(0)
            return SharingTrace(
                num_nodes=self.num_nodes,
                writer=np.zeros(0, dtype=np.int64),
                pc=np.zeros(0, dtype=np.int64),
                home=np.zeros(0, dtype=np.int64),
                block=np.zeros(0, dtype=np.int64),
                truth=empty,
                inval=empty,
                has_inval=np.zeros(0, dtype=bool),
                close=np.zeros(0, dtype=np.int64),
                name=self.name,
                machine=self.machine,
            )
        columns = {
            field: np.concatenate([getattr(chunk, field) for chunk in chunks])
            for field in CHUNK_FIELDS
        }
        return SharingTrace(
            num_nodes=self.num_nodes,
            name=self.name,
            machine=self.machine,
            **columns,
        )


class ResidentTraceSource(TraceSource):
    """A :class:`SharingTrace` viewed through the source interface.

    Chunks are zero-copy slices of the resident columns -- wrapping a
    trace as a source costs nothing but the object header.
    """

    def __init__(self, trace: SharingTrace, chunk_events: int = DEFAULT_CHUNK_EVENTS):
        self.trace = trace
        self.name = trace.name
        self.num_nodes = trace.num_nodes
        self.machine = trace.machine
        self.chunk_events = chunk_events

    def __len__(self) -> int:
        return len(self.trace)

    def chunks(self, chunk_events: Optional[int] = None) -> Iterator[TraceChunk]:
        step = chunk_events or self.chunk_events
        if step < 1:
            raise ValueError(f"chunk_events must be positive, got {step}")
        trace = self.trace
        for start in range(0, len(trace), step):
            stop = min(start + step, len(trace))
            yield TraceChunk(
                num_nodes=trace.num_nodes,
                start=start,
                writer=trace.writer[start:stop],
                pc=trace.pc[start:stop],
                home=trace.home[start:stop],
                block=trace.block[start:stop],
                truth=trace.truth[start:stop],
                inval=trace.inval[start:stop],
                has_inval=trace.has_inval[start:stop],
                close=trace.close[start:stop],
                name=trace.name,
                machine=trace.machine,
            )

    def fingerprint(self) -> str:
        return stream_fingerprint(self)

    def materialize(self) -> SharingTrace:
        return self.trace


def as_source(trace: Union[SharingTrace, TraceSource]) -> TraceSource:
    """View a trace through the source interface (no copy for residents)."""
    if isinstance(trace, TraceSource):
        return trace
    return ResidentTraceSource(trace)


def trace_chunks(trace: Union[SharingTrace, TraceSource]) -> Iterator[TraceChunk]:
    """The windows evaluation reads: a source's own chunks, or a resident
    trace as exactly one zero-copy chunk."""
    if isinstance(trace, TraceSource):
        return trace.chunks()
    return ResidentTraceSource(trace, chunk_events=max(1, len(trace))).chunks()


def as_trace(trace: Union[SharingTrace, TraceSource]) -> SharingTrace:
    """Materialize a source into a resident trace (pass-through otherwise)."""
    if isinstance(trace, TraceSource):
        return trace.materialize()
    return trace


def rechunk(
    chunks: Iterable[TraceChunk], chunk_events: int
) -> Iterator[TraceChunk]:
    """Re-window a chunk stream into exact ``chunk_events``-sized chunks.

    Buffers at most one output window plus one input chunk, so memory
    stays O(max(chunk_events, native chunk)).  The final chunk carries
    the remainder.  Used when a consumer asks a file-backed source for a
    chunk size other than the one the file was written with.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    buffer: Optional[dict] = None
    buffered = 0
    start = 0
    meta: Optional[tuple] = None

    def drain(columns: dict, count: int, offset: int) -> TraceChunk:
        assert meta is not None
        num_nodes, name, machine = meta
        return TraceChunk(
            num_nodes=num_nodes,
            start=offset,
            name=name,
            machine=machine,
            **{field: columns[field][:count] for field in CHUNK_FIELDS},
        )

    for chunk in chunks:
        if meta is None:
            meta = (chunk.num_nodes, chunk.name, chunk.machine)
            start = chunk.start
            buffer = {field: [] for field in CHUNK_FIELDS}
        assert buffer is not None
        for field in CHUNK_FIELDS:
            buffer[field].append(getattr(chunk, field))
        buffered += len(chunk)
        while buffered >= chunk_events:
            columns = {
                field: (
                    parts[0] if len(parts) == 1 else np.concatenate(parts)
                )
                for field, parts in buffer.items()
            }
            yield drain(columns, chunk_events, start)
            start += chunk_events
            buffered -= chunk_events
            buffer = {
                field: ([columns[field][chunk_events:]] if buffered else [])
                for field in CHUNK_FIELDS
            }
    if buffered and buffer is not None:
        columns = {
            field: (parts[0] if len(parts) == 1 else np.concatenate(parts))
            for field, parts in buffer.items()
        }
        yield drain(columns, buffered, start)


# ----------------------------------------------------------------------
# Streaming fingerprints
# ----------------------------------------------------------------------


class StreamFingerprinter:
    """Incremental content fingerprint over chunked columns.

    Keeps one sub-hash per field, feeds each chunk's column bytes into
    its field's sub-hash, and combines the sub-digests field-major at
    :meth:`finish` -- so the result is computable both incrementally
    (writers, importers) and in one cheap pass over a resident trace,
    and two equal-content traces agree regardless of how they were
    chunked.
    """

    def __init__(
        self,
        num_nodes: int,
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
    ):
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
        self._fields = {field: hashlib.sha256() for field in CHUNK_FIELDS}
        self._dtypes: dict = {}

    def update(self, chunk: TraceChunk) -> None:
        """Fold one chunk's columns into the per-field sub-hashes."""
        for field in CHUNK_FIELDS:
            array = np.ascontiguousarray(getattr(chunk, field))
            self._dtypes.setdefault(field, str(array.dtype))
            self._fields[field].update(array.tobytes())

    def finish(self) -> str:
        """The combined 16-hex-digit fingerprint."""
        digest = hashlib.sha256()
        digest.update(
            f"stream;nodes={self.num_nodes};name={self.name};".encode("utf-8")
        )
        if self.machine is not None:
            digest.update(
                f"machine={self.machine.trace_label()};".encode("utf-8")
            )
        layout = bitmap_layout(self.num_nodes)
        defaults = _canonical_dtypes(layout)
        for field in CHUNK_FIELDS:
            digest.update(field.encode("utf-8"))
            digest.update(self._dtypes.get(field, defaults[field]).encode("utf-8"))
            digest.update(self._fields[field].digest())
        return digest.hexdigest()[:16]


def _canonical_dtypes(layout: BitmapLayout) -> dict:
    """The canonical column dtypes at one machine width, as strings."""
    bitmap = str(np.dtype(layout.dtype))
    return {
        "writer": "int64",
        "pc": "int64",
        "home": "int64",
        "block": "int64",
        "truth": bitmap,
        "inval": bitmap,
        "has_inval": "bool",
        "close": "int64",
    }


def stream_fingerprint(source: Union[SharingTrace, TraceSource]) -> str:
    """The streaming content fingerprint of a trace or source.

    One pass over the chunks; for a resident trace this is a handful of
    ``tobytes`` calls.  Chunk-size independent by construction.
    """
    source = as_source(source)
    fingerprinter = StreamFingerprinter(
        source.num_nodes, name=source.name, machine=source.machine
    )
    for chunk in source.chunks():
        fingerprinter.update(chunk)
    return fingerprinter.finish()


# ----------------------------------------------------------------------
# Streaming consistency checking
# ----------------------------------------------------------------------


class StreamingConsistencyChecker:
    """Single-pass per-block linkage verification over chunked events.

    The one linkage check: every closer matches its epoch's block and
    truth, close indices are patched exactly once, and open epochs close
    at end of trace, checked as chunks arrive with O(distinct blocks)
    state.  :meth:`SharingTrace.check_consistency` feeds it a resident
    trace's windows.  Each window is one numpy pass: a stable sort on
    block links every event to its predecessor on the block, the first
    event of a block in the window to the block's last event carried from
    earlier windows.  Raises ``ValueError`` on the first violation in
    event order.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.layout = bitmap_layout(num_nodes)
        # per block met so far, sorted by block: its last event's index,
        # close and truth (word rows), and the index of its first event
        self._blocks = np.zeros(0, dtype=np.int64)
        self._index = np.zeros(0, dtype=np.int64)
        self._close = np.zeros(0, dtype=np.int64)
        self._truth = np.zeros((0, self.layout.n_words), dtype=np.uint64)
        self._first = np.zeros(0, dtype=np.int64)
        self._events = 0

    def feed(self, chunk: TraceChunk) -> None:
        base = chunk.start
        if base != self._events:
            raise ValueError(
                f"chunk starts at {base}, expected {self._events} (gap or overlap)"
            )
        length = len(chunk)
        if not length:
            return
        block = np.asarray(chunk.block, dtype=np.int64)
        close = np.asarray(chunk.close, dtype=np.int64)
        truth = np.asarray(chunk.truth).reshape(length, -1)
        inval = np.asarray(chunk.inval).reshape(length, -1)
        has_inval = np.asarray(chunk.has_inval, dtype=bool)
        order = np.argsort(block, kind="stable")
        ordered = block[order]
        opens = np.ones(length, dtype=bool)
        opens[1:] = ordered[1:] != ordered[:-1]
        firsts = order[opens]
        lasts = order[np.append(opens[1:], True)]
        blocks = ordered[opens]
        # each event's predecessor on its block: within the window, or for a
        # block's first event here, the block's last event carried over
        previous = np.empty(length, dtype=np.int64)
        previous[order[1:]] = order[:-1]
        previous[firsts] = 0
        prev_index = base + previous
        prev_close = close[previous]
        linked = (inval == truth[previous]).all(axis=1)
        at = np.searchsorted(self._blocks, blocks)
        carried = at < len(self._blocks)
        carried[carried] = self._blocks[at[carried]] == blocks[carried]
        linked_firsts, kept = firsts[carried], at[carried]
        prev_index[linked_firsts] = self._index[kept]
        prev_close[linked_firsts] = self._close[kept]
        linked[linked_firsts] = (inval[linked_firsts] == self._truth[kept]).all(axis=1)
        has_prev = np.ones(length, dtype=bool)
        has_prev[firsts[~carried]] = False

        index = base + np.arange(length)
        first_with_inval = ~has_prev & has_inval
        wrong_close = has_prev & (prev_close != index)
        unset = has_prev & ~has_inval
        unlinked = has_prev & ~linked
        bad = first_with_inval | wrong_close | unset | unlinked
        if bad.any():
            at_bad = int(np.argmax(bad))
            event, closed = base + at_bad, int(prev_index[at_bad])
            if first_with_inval[at_bad]:
                raise ValueError(f"event {event}: first on block but has_inval set")
            if wrong_close[at_bad]:
                raise ValueError(
                    f"event {closed}: close={int(prev_close[at_bad])}, expected {event}"
                )
            if unset[at_bad]:
                raise ValueError(
                    f"event {event}: closes an epoch but has_inval unset"
                )
            raise ValueError(
                f"event {event}: inval != truth of closed epoch {closed}"
            )

        self._index[kept] = base + lasts[carried]
        self._close[kept] = close[lasts[carried]]
        self._truth[kept] = truth[lasts[carried]]
        fresh = ~carried
        where = at[fresh]
        self._blocks = np.insert(self._blocks, where, blocks[fresh])
        self._index = np.insert(self._index, where, base + lasts[fresh])
        self._close = np.insert(self._close, where, close[lasts[fresh]])
        self._truth = np.insert(self._truth, where, truth[lasts[fresh]], axis=0)
        self._first = np.insert(self._first, where, base + firsts[fresh])
        self._events += length

    def finish(self) -> None:
        """Verify end-of-trace invariants (open epochs close at ``len``);
        the first block met whose last epoch stays open raises."""
        open_blocks = np.flatnonzero(self._close != self._events)
        if len(open_blocks):
            k = open_blocks[np.argmin(self._first[open_blocks])]
            raise ValueError(
                f"event {int(self._index[k])}: last on block {int(self._blocks[k])} "
                "but close != len(trace)"
            )
