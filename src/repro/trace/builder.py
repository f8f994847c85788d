"""Incremental construction of sharing traces from protocol activity.

The protocol engine reports two things as it runs: "node W wrote block B
under pc P (a coherence store)" and "node R read block B".  The builder
threads these into per-block epoch chains -- truth bitmaps, invalidation
bitmaps, close indices -- and finalizes into an immutable
:class:`~repro.trace.events.SharingTrace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.trace.events import SharingTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class SharingTraceBuilder:
    """Accumulates prediction events and their epoch reader sets.

    ``machine`` (optional) is stamped onto the finalized trace so the spec
    travels with the data it produced.
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
        self._writer: List[int] = []
        self._pc: List[int] = []
        self._home: List[int] = []
        self._block: List[int] = []
        self._truth: List[int] = []
        self._inval: List[int] = []
        self._has_inval: List[bool] = []
        self._close: List[int] = []
        self._open_event_by_block: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._writer)

    def add_event(self, writer: int, pc: int, home: int, block: int) -> int:
        """Record a coherence store: closes the block's open epoch, opens a new one.

        Returns the new event's index.
        """
        index = len(self._writer)
        previous = self._open_event_by_block.get(block)
        if previous is None:
            inval, has_inval = 0, False
        else:
            inval, has_inval = self._truth[previous], True
            self._close[previous] = index
        self._writer.append(writer)
        self._pc.append(pc)
        self._home.append(home)
        self._block.append(block)
        self._truth.append(0)
        self._inval.append(inval)
        self._has_inval.append(has_inval)
        self._close.append(-1)  # patched when the epoch closes / at finalize
        self._open_event_by_block[block] = index
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
        if node == self._writer[event]:
            return  # the producer re-reading its own data is not sharing
        self._truth[event] |= 1 << node

    def finalize(self) -> SharingTrace:
        """Close all open epochs at end-of-trace and build the trace.

        Mirrors the paper's use of "the final state of the memory" to
        resolve sharing information for epochs still open when the program
        ends (Section 5.1).
        """
        length = len(self._writer)
        close = [length if value < 0 else value for value in self._close]
        trace = SharingTrace(
            num_nodes=self.num_nodes,
            writer=self._writer,
            pc=self._pc,
            home=self._home,
            block=self._block,
            truth=self._truth,
            inval=self._inval,
            has_inval=self._has_inval,
            close=close,
            name=self.name,
            machine=self.machine,
        )
        trace.check_consistency()
        return trace


class StreamingTraceBuilder:
    """A trace builder that flushes finished events into a column sink.

    Same epoch-threading semantics as :class:`SharingTraceBuilder`, but
    instead of materializing the whole trace it pushes every *closed
    prefix* -- events whose truth and close index can no longer change --
    into ``sink.write_columns(...)`` (typically a
    :class:`~repro.trace.interchange.TraceWriter`).  An event is final
    exactly when it precedes every still-open epoch, so the in-memory
    buffer spans from the oldest open epoch to the present: bounded by
    block-reuse distance, not trace length.  (A block written once and
    never again pins its suffix resident -- the worst case degrades to
    the materializing builder, never to wrong output.)

    ``finalize`` closes the remaining epochs at end-of-trace, flushes the
    tail, and returns the total event count; sealing the sink (e.g.
    ``TraceWriter.close``) stays the caller's job.
    """

    def __init__(
        self,
        num_nodes: int,
        sink,
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
        flush_events: int = 65536,
    ):
        if flush_events < 1:
            raise ValueError(f"flush_events must be positive, got {flush_events}")
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
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
        """Record a coherence store (see :meth:`SharingTraceBuilder.add_event`)."""
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
        self._close.append(-1)
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
        """Record a true read (see :meth:`SharingTraceBuilder.add_reader`)."""
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
        self.sink.write_columns(
            self._writer[:count],
            self._pc[:count],
            self._home[:count],
            self._block[:count],
            self._truth[:count],
            self._inval[:count],
            self._has_inval[:count],
            self._close[:count],
        )
        del self._writer[:count]
        del self._pc[:count]
        del self._home[:count]
        del self._block[:count]
        del self._truth[:count]
        del self._inval[:count]
        del self._has_inval[:count]
        del self._close[:count]
        self._base += count

    def finalize(self) -> int:
        """Close open epochs at end-of-trace, flush everything; event count."""
        length = self._base + len(self._writer)
        for slot in range(len(self._close)):
            if self._close[slot] < 0:
                self._close[slot] = length
        self._open_event_by_block.clear()
        self._flush(boundary=length)
        return length
