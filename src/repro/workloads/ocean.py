"""ocean: nearest-neighbour stencil over strip-partitioned grids.

Red/black-free Jacobi sweeps between two grids, each thread owning a
horizontal strip.  The only communication is at strip boundaries: the first
and last rows of every strip are read by exactly one neighbouring thread.
Interior rows are written every sweep but read by nobody; because the grids
exceed the scaled cache (as 258x258 doubles exceeded 512 KB in the paper),
those rewrites still miss and emit zero-reader events.  The result is the
paper's lowest prevalence (Table 6: 2.14%, a degree of sharing of ~0.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class OceanWorkload(Workload):
    """Two-grid Jacobi relaxation (paper input: 258x258)."""

    name = "ocean"
    suggested_cache_bytes = 2 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        grid_size: int = 64,
        iterations: int = 6,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if grid_size % num_nodes:
            raise ValueError(
                f"grid_size {grid_size} must be a multiple of num_nodes {num_nodes}"
            )
        self.grid_size = grid_size
        self.iterations = iterations
        self.rows_per_thread = grid_size // num_nodes
        layout = MemoryLayout()
        self.grids = (
            layout.array("grid_a", grid_size * grid_size, 8),
            layout.array("grid_b", grid_size * grid_size, 8),
        )

    def _row(self, grid: int, row: int) -> range:
        """Addresses of one grid row's points, in column order."""
        first = row * self.grid_size
        return self.grids[grid].addr_range(first, first + self.grid_size)

    def _own_rows(self, tid: int) -> range:
        start = tid * self.rows_per_thread
        return range(start, start + self.rows_per_thread)

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        pc_init = self.pcs.site("init_point")
        pc_relax = {0: self.pcs.site("relax_into_a"), 1: self.pcs.site("relax_into_b")}
        size = self.grid_size

        # Owners first-touch their strips in both grids.
        for grid in (0, 1):
            for row in self._own_rows(tid):
                for address in self._row(grid, row):
                    yield ("W", address, pc_init)
        yield Barrier()

        for iteration in range(self.iterations):
            source = iteration % 2
            target = 1 - source
            pc = pc_relax[target]
            for row in self._own_rows(tid):
                above = self._row(source, row - 1) if row > 0 else None
                below = self._row(source, row + 1) if row < size - 1 else None
                here = self._row(source, row)
                out = self._row(target, row)
                for col in range(size):
                    if above is not None:
                        yield ("R", above[col], 0)
                    if below is not None:
                        yield ("R", below[col], 0)
                    if col > 0:
                        yield ("R", here[col - 1], 0)
                    if col < size - 1:
                        yield ("R", here[col + 1], 0)
                    yield ("R", here[col], 0)
                    yield ("W", out[col], pc)
            yield Barrier()
