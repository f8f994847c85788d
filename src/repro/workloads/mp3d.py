"""mp3d: migratory sharing with effectively random writer succession.

mp3d simulates rarefied fluid flow: molecules (owned by threads) move
through space cells each step, and every move read-modify-writes the cell
the molecule lands in.  Which thread writes a given cell next is governed
by molecule positions -- effectively random, the canonical *migratory*
pattern the paper explicitly refuses to filter out (Section 1).  Space
cells are 32 bytes, two to a cache line, reproducing mp3d's famous false
sharing.  Occasional collisions make one thread read another's molecule
record, creating sparse single-reader epochs on molecule lines.

The model precomputes each molecule's cell path (a seeded random walk) so
traces are exactly reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Atomic, Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class Mp3dWorkload(Workload):
    """Rarefied-flow Monte Carlo (paper input: 50K molecules)."""

    name = "mp3d"
    suggested_cache_bytes = 32 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        molecules_per_thread: int = 96,
        space_cells: int = 1024,
        collision_rate: float = 0.55,
        move_rate: float = 0.3,
        reservoir_lines: int = 8,
        steps: int = 8,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if not 0.0 <= collision_rate <= 1.0:
            raise ValueError(f"collision_rate must be in [0,1], got {collision_rate}")
        if not 0.0 <= move_rate <= 1.0:
            raise ValueError(f"move_rate must be in [0,1], got {move_rate}")
        self.molecules_per_thread = molecules_per_thread
        self.space_cells = space_cells
        self.collision_rate = collision_rate
        self.steps = steps

        total = num_nodes * molecules_per_thread
        layout = MemoryLayout()
        self.molecules = layout.array("molecules", total, 64)
        self.cells = layout.array("space_cells", space_cells, 32)
        self.reservoir = layout.array("reservoir", reservoir_lines, 64)

        rng = self.rng.spawn("paths")
        # cell_path[m][s]: the cell molecule m occupies at step s.  A slow
        # random walk with wraparound: molecules usually stay put for a few
        # steps (``move_rate``), so a cell's visitor set -- and hence its
        # writer-succession pattern -- changes gradually rather than being
        # redrawn every step.
        self.cell_path: List[List[int]] = []
        self.collision_partner: List[List[int]] = []
        for molecule in range(total):
            cell = rng.integers(0, space_cells)
            path: List[int] = []
            partners: List[int] = []
            for _ in range(steps):
                if rng.random() < move_rate:
                    cell = (cell + rng.choice([-2, -1, 1, 2])) % space_cells
                path.append(cell)
                if rng.random() < collision_rate:
                    partners.append(rng.integers(0, total))
                else:
                    partners.append(-1)
            self.cell_path.append(path)
            self.collision_partner.append(partners)

    def _own_molecules(self, tid: int) -> range:
        start = tid * self.molecules_per_thread
        return range(start, start + self.molecules_per_thread)

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        pc_init_molecule = self.pcs.site("init_molecule")
        pc_init_cell = self.pcs.site("init_cell")
        pc_move = self.pcs.site("move_molecule")
        pc_cell = self.pcs.site("update_cell")
        pc_reservoir = self.pcs.site("update_reservoir")
        rng = self.rng.spawn(f"thread:{tid}")

        # Owners first-touch their molecules; space cells are dealt out in
        # contiguous chunks (spatial decomposition of the domain).
        for molecule in self._own_molecules(tid):
            yield ("W", self.molecules.addr(molecule), pc_init_molecule)
        cells_per_thread = self.space_cells // self.num_nodes
        for cell in range(tid * cells_per_thread, (tid + 1) * cells_per_thread):
            yield ("W", self.cells.addr(cell), pc_init_cell)
        yield Barrier()

        for step in range(self.steps):
            for molecule in self._own_molecules(tid):
                cell_addr = self.cells.addr(self.cell_path[molecule][step])
                molecule_addr = self.molecules.addr(molecule)
                # move(): advance the molecule, then scatter into its cell,
                # all under the cell lock.  The boundary check also reads
                # the adjacent cell (no write), giving cells the occasional
                # extra reader the real code's geometry tests produce.
                here = self.cell_path[molecule][step]
                ahead = self.cells.addr((here + 1) % self.space_cells)
                behind = self.cells.addr((here - 1) % self.space_cells)
                yield Atomic(
                    [
                        ("R", molecule_addr, 0),
                        ("W", molecule_addr, pc_move),
                        ("R", cell_addr, 0),
                        ("R", ahead, 0),
                        ("R", behind, 0),
                        ("W", cell_addr, pc_cell),
                    ]
                )
                partner = self.collision_partner[molecule][step]
                if partner >= 0:
                    yield ("R", self.molecules.addr(partner), 0)
            # Per-step global bookkeeping on a random reservoir line.
            slot = rng.integers(0, self.reservoir.count)
            address = self.reservoir.addr(slot)
            yield Atomic([("R", address, 0), ("W", address, pc_reservoir)])
            yield Barrier()
