"""Sharing-event records and the array-backed trace container.

Terminology (see DESIGN.md section 3):

* An **event** is a store that performed a coherence action on a shared
  block: a write miss or a write fault/upgrade.  Silent stores by the
  current exclusive owner are not events.
* The **epoch** opened by an event lasts until the next event on the same
  block (or the end of the trace).  Its **truth bitmap** is the set of nodes
  other than the writer that read the block during the epoch -- exactly what
  an ideal predictor should have predicted at the event.
* The **invalidation bitmap** of an event is the truth bitmap of the epoch
  the event closes: the readers the directory invalidates.  It is the raw
  feedback available to direct update.  The first event on a block closes no
  epoch; its invalidation bitmap is invalid (``has_inval`` false).
* ``close`` is the index of the event that closes this event's epoch, or
  ``len(trace)`` when the epoch is still open at the end of the trace.
  Forwarded update delivers ``truth[i]`` to entry ``key[i]`` at ``close[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

import numpy as np

from repro.util.bitmaps import bitmap_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine import MachineSpec


@dataclass(frozen=True)
class SharingEvent:
    """One prediction event, in record form (convenient for tests)."""

    writer: int
    pc: int
    home: int
    block: int
    truth: int
    inval: int
    has_inval: bool
    close: int


class SharingTrace:
    """An immutable, array-backed sequence of sharing events.

    The arrays make the vectorized evaluator a set of numpy passes; the
    record view (:meth:`events`, indexing) keeps tests and the reference
    evaluator readable.  Bitmap columns are stored per the machine width's
    :class:`~repro.util.bitmaps.BitmapLayout` (``uint32`` up to 32 nodes,
    ``uint64`` up to 64, packed 2-D word rows beyond); ``machine``
    optionally records the :class:`~repro.machine.MachineSpec` the trace
    was generated under (``None`` means the paper-default machine).
    """

    def __init__(
        self,
        num_nodes: int,
        writer: Sequence[int],
        pc: Sequence[int],
        home: Sequence[int],
        block: Sequence[int],
        truth: Sequence[int],
        inval: Sequence[int],
        has_inval: Sequence[bool],
        close: Sequence[int],
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if machine is not None and machine.num_nodes != num_nodes:
            raise ValueError(
                f"machine spec is for {machine.num_nodes} nodes, trace for {num_nodes}"
            )
        self.num_nodes = num_nodes
        self.name = name
        self.machine = machine
        self.layout = bitmap_layout(num_nodes)
        self.writer = np.asarray(writer, dtype=np.int64)
        self.pc = np.asarray(pc, dtype=np.int64)
        self.home = np.asarray(home, dtype=np.int64)
        self.block = np.asarray(block, dtype=np.int64)
        self.truth = self.layout.asarray(truth)
        self.inval = self.layout.asarray(inval)
        self.has_inval = np.asarray(has_inval, dtype=bool)
        self.close = np.asarray(close, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        length = len(self.writer)
        for field_name in ("pc", "home", "block", "truth", "inval", "has_inval", "close"):
            field = getattr(self, field_name)
            if len(field) != length:
                raise ValueError(
                    f"field {field_name} has length {len(field)}, expected {length}"
                )
        if length:
            if int(self.writer.min()) < 0 or int(self.writer.max()) >= self.num_nodes:
                raise ValueError("writer ids must lie in [0, num_nodes)")
            if int(self.home.min()) < 0 or int(self.home.max()) >= self.num_nodes:
                raise ValueError("home ids must lie in [0, num_nodes)")
            if self.layout.has_excess_bits(self.truth) or self.layout.has_excess_bits(
                self.inval
            ):
                raise ValueError("bitmaps contain bits beyond num_nodes")
            writer_bits = self.layout.test_bit(self.truth, self.writer)
            if writer_bits.any():
                raise ValueError("truth bitmaps must not include the writer's own bit")
            if int(self.close.min()) < 0 or int(self.close.max()) > length:
                raise ValueError("close indices must lie in [0, len(trace)]")

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.writer)

    def __getitem__(self, index: int) -> SharingEvent:
        return SharingEvent(
            writer=int(self.writer[index]),
            pc=int(self.pc[index]),
            home=int(self.home[index]),
            block=int(self.block[index]),
            truth=self.layout.to_int(self.truth[index]),
            inval=self.layout.to_int(self.inval[index]),
            has_inval=bool(self.has_inval[index]),
            close=int(self.close[index]),
        )

    def events(self) -> Iterator[SharingEvent]:
        """Iterate events in record form."""
        for index in range(len(self)):
            yield self[index]

    def truth_ints(self) -> List[int]:
        """The truth column as Python ints (for the sequential evaluators)."""
        return self.layout.to_int_list(self.truth)

    def inval_ints(self) -> List[int]:
        """The invalidation column as Python ints."""
        return self.layout.to_int_list(self.inval)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        num_nodes: int,
        events: Sequence[SharingEvent],
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
    ) -> "SharingTrace":
        """Build a trace from a list of fully-specified records."""
        return cls(
            num_nodes=num_nodes,
            writer=[event.writer for event in events],
            pc=[event.pc for event in events],
            home=[event.home for event in events],
            block=[event.block for event in events],
            truth=[event.truth for event in events],
            inval=[event.inval for event in events],
            has_inval=[event.has_inval for event in events],
            close=[event.close for event in events],
            name=name,
            machine=machine,
        )

    @classmethod
    def from_epochs(
        cls,
        num_nodes: int,
        epochs: Sequence[tuple],
        name: str = "trace",
        machine: Optional["MachineSpec"] = None,
    ) -> "SharingTrace":
        """Build a trace from bare ``(writer, pc, home, block, truth)`` tuples.

        Each tuple is a coherence store followed by one true read per truth
        bit, fed to the epoch builder, which derives the per-block linkage
        (invalidation bitmaps, ``has_inval`` flags, and close indices) --
        the convenient constructor for tests and synthetic traces.
        """
        from repro.trace.builder import ColumnCollector, StreamingTraceBuilder

        collected = ColumnCollector(num_nodes, name=name, machine=machine)
        builder = StreamingTraceBuilder(collected)
        for index, (writer, pc, home, block, truth) in enumerate(epochs):
            if truth & (1 << writer):
                raise ValueError(
                    f"epoch {index}: truth bitmap includes writer {writer}"
                )
            builder.add_event(writer, pc, home, block)
            while truth:
                low = truth & -truth
                builder.add_reader(block, low.bit_length() - 1)
                truth ^= low
        builder.finalize()
        return collected.trace()

    def check_consistency(self) -> None:
        """Verify the per-block linkage invariants.

        For every event *i* that closes an epoch *j* (``close[j] == i``):
        ``block[i] == block[j]`` and ``inval[i] == truth[j]``; and events are
        the only closers of their block's previous epoch.  Raises
        ``ValueError`` on any violation.  The trace is fed to the one
        linkage checker, :class:`~repro.trace.source.StreamingConsistencyChecker`,
        in default-size windows, so a long trace never becomes full-length
        Python lists.  Used by property tests and the trace loader.
        """
        from repro.trace.source import ResidentTraceSource, StreamingConsistencyChecker

        checker = StreamingConsistencyChecker(self.num_nodes)
        for chunk in ResidentTraceSource(self).chunks():
            checker.feed(chunk)
        checker.finish()
