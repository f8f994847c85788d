"""gauss: pivot-row broadcast over cyclically distributed rows.

Gaussian elimination with rows dealt to threads round-robin.  Each step
the pivot row's owner normalizes it; every thread still holding unfinished
rows then reads the pivot row (a one-to-all broadcast, the widest stable
sharing in the suite) and updates its own rows in place.

The sharing trace mixes two populations, as in the paper's run:

* pivot-row epochs read by all active threads (high-degree sharing), plus
  a small per-step reduction array used to pick the pivot (also broadcast);
* a long tail of own-row rewrites that miss only because the matrix
  exceeds the scaled cache -- zero-reader events that dilute prevalence
  toward the paper's measured 9.92%.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class GaussWorkload(Workload):
    """Dense LU-style elimination (paper input: 512x512)."""

    name = "gauss"
    suggested_cache_bytes = 12 * 1024
    suggested_cache_associativity = 6

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        size: int = 96,
        padding: int = 0,
        repeats: int = 2,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if size < num_nodes:
            raise ValueError(f"matrix size {size} smaller than thread count {num_nodes}")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        # Factor `repeats` matrices back to back (multiple solves, as an
        # iterative application would).  With a single factorization every
        # pivot-broadcast epoch stays open to the end of the trace, so
        # direct and forwarded update never receive any sharing feedback and
        # no realizable predictor can learn the broadcast; the second
        # factorization is where gauss becomes predictable.
        self.repeats = repeats
        self.size = size
        # Row padding skews the power-of-two stride so a thread's rows do
        # not all collide in the same cache sets (standard practice in the
        # real benchmark; without it conflict misses swamp the trace).
        self.row_stride = size + padding
        layout = MemoryLayout()
        self.matrix = layout.array("matrix", size * self.row_stride, 8)
        # One candidate slot per thread for the distributed pivot reduction.
        self.reduction = layout.array("reduction", num_nodes, 8)

    def _element(self, row: int, col: int) -> int:
        return self.matrix.addr(row * self.row_stride + col)

    def _row(self, row: int, start: int, stop: int) -> range:
        """Addresses of ``row``'s columns ``start .. stop - 1``."""
        first = row * self.row_stride
        return self.matrix.addr_range(first + start, first + stop)

    def _owner(self, row: int) -> int:
        return row % self.num_nodes

    def _own_rows(self, tid: int) -> List[int]:
        return list(range(tid, self.size, self.num_nodes))

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        pc_init = self.pcs.site("init_row")

        for _ in range(self.repeats):
            # (Re-)initialization: owners fill their rows with the next
            # system's coefficients, closing the previous solve's epochs.
            for row in self._own_rows(tid):
                for address in self._row(row, 0, self.size):
                    yield ("W", address, pc_init)
            yield Barrier()

            yield from self._factorize(tid)

    def _factorize(self, tid: int) -> Iterator[ThreadItem]:
        pc_candidate = self.pcs.site("pivot_candidate")
        pc_normalize = self.pcs.site("normalize_pivot")
        pc_multiplier = self.pcs.site("store_multiplier")
        pc_eliminate = self.pcs.site("eliminate")
        size = self.size
        own_rows = self._own_rows(tid)

        for step in range(size - 1):
            # Distributed pivot search: scan column `step` of own unfinished
            # rows, publish the local best, pivot owner reads all candidates.
            if any(row >= step for row in own_rows):
                for row in own_rows:
                    if row >= step:
                        yield ("R", self._element(row, step), 0)
                yield ("W", self.reduction.addr(tid), pc_candidate)
            yield Barrier()

            owner = self._owner(step)
            if tid == owner:
                for candidate in range(self.num_nodes):
                    yield ("R", self.reduction.addr(candidate), 0)
                for address in self._row(step, step, size):
                    yield ("R", address, 0)
                    yield ("W", address, pc_normalize)
            yield Barrier()

            # Elimination: read the pivot row, update own rows below it.
            pivot_head = self._element(step, step)
            pivot_tail = self._row(step, step + 1, size)
            for row in own_rows:
                if row <= step:
                    continue
                head = self._element(row, step)
                yield ("R", head, 0)
                yield ("R", pivot_head, 0)
                yield ("W", head, pc_multiplier)
                for pivot, address in zip(pivot_tail, self._row(row, step + 1, size)):
                    yield ("R", pivot, 0)
                    yield ("R", address, 0)
                    yield ("W", address, pc_eliminate)
            yield Barrier()
