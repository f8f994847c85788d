"""The one epoch-chain builder: sharing traces from protocol activity.

A sharing trace is a chain of per-block write epochs.  A coherence store
opens an epoch, the true readers accumulate in it (the directory's access
bits, paper Section 3.4), and the next store to the block closes it;
epochs still open when the program ends are resolved from the final
memory state (Section 5.1).  :class:`StreamingTraceBuilder` is the only
code that threads these chains -- truth bitmaps, invalidation bitmaps,
close indices.  It flushes every settled prefix into a column sink: a
:class:`~repro.trace.interchange.TraceWriter` streams the trace into an
``.rtrace`` file (``repro-trace import``), and a :class:`ColumnCollector`
keeps it resident and hands back the checked
:class:`~repro.trace.events.SharingTrace` (the protocol engine,
``SharingTrace.from_epochs``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.trace.events import SharingTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class ColumnCollector:
    """A column sink that keeps everything a builder flushes, resident.

    Like a :class:`~repro.trace.interchange.TraceWriter`, it owns the
    trace's identity (node count, name, machine spec); :meth:`trace`
    builds the result once the builder is finalized.
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
        self.columns: Optional[List[list]] = [[] for _ in range(8)]

    def write_columns(self, *columns) -> None:
        for collected, column in zip(self.columns, columns):
            collected.extend(column)

    def trace(self) -> SharingTrace:
        """The collected events as a resident trace, linkage-checked.

        The columns move into the trace, so it can be taken only once.
        """
        if self.columns is None:
            raise RuntimeError("the collected trace was already taken")
        columns, self.columns = self.columns, None
        trace = SharingTrace(self.num_nodes, *columns, name=self.name, machine=self.machine)
        del columns  # the lists go before the check builds its own
        trace.check_consistency()
        return trace


class StreamingTraceBuilder:
    """Threads coherence stores and true reads into per-block epoch chains.

    Every *settled* event -- one whose truth and close index can no
    longer change -- is pushed into ``sink.write_columns(...)`` in the
    canonical column order (``writer pc home block truth inval has_inval
    close``).  An event is settled exactly when it precedes every
    still-open epoch, so the in-memory buffer spans from the oldest open
    epoch to the present: bounded by block-reuse distance, not trace
    length.  (A block written once and never again pins its suffix
    resident -- the worst case buffers the whole trace, never produces
    wrong output.)  Flushes are tried every ``flush_events`` events.

    ``finalize`` ends the trace: it closes the remaining epochs at
    end-of-trace, flushes the tail, and returns the total event count;
    sealing the sink (e.g. ``TraceWriter.close``) stays the caller's job.
    """

    def __init__(self, sink, flush_events: int = 65536):
        if flush_events < 1:
            raise ValueError(f"flush_events must be positive, got {flush_events}")
        self.sink = sink
        self.flush_events = flush_events
        # buffered length at which add_event next tries a flush: a flush
        # that open epochs leave at flush_events or more waits another
        # flush_events events before retrying, not one
        self._next_flush = flush_events
        self._base = 0  # absolute index of the first buffered event
        self._writer: List[int] = []
        self._pc: List[int] = []
        self._home: List[int] = []
        self._block: List[int] = []
        self._truth: List[int] = []
        self._inval: List[int] = []
        self._has_inval: List[bool] = []
        self._close: List[int] = []
        #: block -> absolute index of its open event (always >= _base:
        #: open events are never flushed)
        self._open_event_by_block: Dict[int, int] = {}

    def __len__(self) -> int:
        """Total events recorded so far (flushed + buffered)."""
        return self._base + len(self._writer)

    def add_event(self, writer: int, pc: int, home: int, block: int) -> int:
        """Record a coherence store: closes the block's open epoch, opens a new one.

        Returns the new event's index.
        """
        index = self._base + len(self._writer)
        previous = self._open_event_by_block.get(block)
        if previous is None:
            inval, has_inval = 0, False
        else:
            slot = previous - self._base
            inval, has_inval = self._truth[slot], True
            self._close[slot] = index
        self._writer.append(writer)
        self._pc.append(pc)
        self._home.append(home)
        self._block.append(block)
        self._truth.append(0)
        self._inval.append(inval)
        self._has_inval.append(has_inval)
        self._close.append(-1)  # patched when the epoch closes / at finalize
        self._open_event_by_block[block] = index
        if len(self._writer) >= self._next_flush:
            self._flush()
            buffered = len(self._writer)
            self._next_flush = (
                buffered + self.flush_events
                if buffered >= self.flush_events
                else self.flush_events
            )
        return index

    def add_reader(self, block: int, node: int) -> None:
        """Record that ``node`` truly read ``block`` during its open epoch.

        Reads before the block's first coherence store (cold data) have no
        epoch to credit and are ignored -- see DESIGN.md on why pre-write
        reader sets are excluded from predictor feedback.
        """
        event = self._open_event_by_block.get(block)
        if event is None:
            return
        slot = event - self._base
        if node == self._writer[slot]:
            return  # the producer re-reading its own data is not sharing
        self._truth[slot] |= 1 << node

    def _flush(self, boundary: Optional[int] = None) -> None:
        """Emit buffered events below ``boundary`` (default: oldest open)."""
        if boundary is None:
            boundary = min(
                self._open_event_by_block.values(),
                default=self._base + len(self._writer),
            )
        count = boundary - self._base
        if count <= 0:
            return
        columns = (
            self._writer, self._pc, self._home, self._block,
            self._truth, self._inval, self._has_inval, self._close,
        )
        if count == len(self._writer):
            # everything buffered has settled (always so at finalize): hand
            # the buffers themselves to the sink rather than copies
            (
                self._writer, self._pc, self._home, self._block,
                self._truth, self._inval, self._has_inval, self._close,
            ) = ([] for _ in columns)
            self.sink.write_columns(*columns)
        else:
            self.sink.write_columns(*(column[:count] for column in columns))
            for column in columns:
                del column[:count]
        self._base += count

    def finalize(self) -> int:
        """Close open epochs at end-of-trace, flush everything; event count."""
        length = self._base + len(self._writer)
        self._close = [length if close < 0 else close for close in self._close]
        self._open_event_by_block.clear()
        self._flush(boundary=length)
        return length
