"""water: cutoff pair interactions with lock-protected force accumulation.

Each molecule keeps two records: a *position* line, rewritten by its owner
once per step and read by the owners of every molecule within the cutoff
(a stable several-reader producer-consumer set), and a *force* line,
accumulated into under a lock by each interacting remote owner and then
consumed and reset by its own owner (a short migratory chain whose order
is stable across steps).  The blend of the two yields the paper's 12.13%
prevalence at a small block count (Table 5: water touches only ~2.9K
blocks), which we match by keeping the molecule count low and the
neighbour sets dense.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Atomic, Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class WaterWorkload(Workload):
    """Molecular dynamics with a cutoff radius (paper input: 512 molecules)."""

    name = "water"
    suggested_cache_bytes = 32 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        molecules_per_thread: int = 18,
        neighbors_per_molecule: int = 18,
        preferred_peers: int = 5,
        local_bias: float = 0.20,
        cutoff_rate: float = 0.18,
        steps: int = 6,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if not 0.0 <= cutoff_rate <= 1.0:
            raise ValueError(f"cutoff_rate must be in [0,1], got {cutoff_rate}")
        self.molecules_per_thread = molecules_per_thread
        self.neighbors_per_molecule = neighbors_per_molecule
        self.cutoff_rate = cutoff_rate
        self.steps = steps

        total = num_nodes * molecules_per_thread
        layout = MemoryLayout()
        self.positions = layout.array("positions", total, 64)
        self.forces = layout.array("forces", total, 64)

        rng = self.rng.spawn("structure")
        peers_of = [
            rng.sample(
                [peer for peer in range(num_nodes) if peer != tid],
                min(preferred_peers, num_nodes - 1),
            )
            for tid in range(num_nodes)
        ]
        # Static cutoff neighbour lists, biased to preferred peers so each
        # molecule's reader set is small and stable.
        self.neighbors: List[List[int]] = []
        for molecule in range(total):
            owner = molecule // molecules_per_thread
            chosen: List[int] = []
            for _ in range(neighbors_per_molecule):
                if rng.random() < local_bias:
                    peer = owner
                else:
                    peer = peers_of[owner][rng.integers(0, len(peers_of[owner]))]
                chosen.append(peer * molecules_per_thread + rng.integers(0, molecules_per_thread))
            self.neighbors.append(chosen)

    def _own_molecules(self, tid: int) -> range:
        start = tid * self.molecules_per_thread
        return range(start, start + self.molecules_per_thread)

    def _owner(self, molecule: int) -> int:
        return molecule // self.molecules_per_thread

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        pc_init_pos = self.pcs.site("init_position")
        pc_init_force = self.pcs.site("init_force")
        pc_accumulate = self.pcs.site("accumulate_force")
        pc_update = self.pcs.site("update_position")
        pc_reset = self.pcs.site("reset_force")

        for molecule in self._own_molecules(tid):
            yield ("W", self.positions.addr(molecule), pc_init_pos)
            yield ("W", self.forces.addr(molecule), pc_init_force)
        yield Barrier()

        # Whether a pair sits inside the cutoff persists between steps --
        # molecules drift slowly -- so the in-cutoff set is a slowly churning
        # subset rather than a fresh draw (this stability is what deep
        # intersection predictors exploit in the real program).
        rng = self.rng.spawn(f"cutoff:{tid}")
        pairs = [
            (molecule, slot)
            for molecule in self._own_molecules(tid)
            for slot in range(self.neighbors_per_molecule)
        ]
        in_cutoff = {pair: rng.random() < self.cutoff_rate for pair in pairs}
        # Residence in the cutoff is bimodal: most in-cutoff pairs are bound
        # neighbours that stay for many steps, while pairs near the cutoff
        # radius flicker in and out within a step or two.  The flickering
        # population is what separates shallow from deep intersection
        # predictors.
        flickery = {pair: rng.random() < 0.35 for pair in pairs}
        rate = self.cutoff_rate
        churn_of = {True: 0.60, False: 0.03}
        enter_of = {
            flag: churn_of[flag] * rate / max(1e-9, 1.0 - rate) for flag in (True, False)
        }
        for _ in range(self.steps):
            # Inter-molecular forces: read every neighbour's position, and
            # accumulate into the force records of neighbours inside the
            # cutoff this step.  As in the real code, contributions are
            # summed locally first and each touched remote record is
            # written once per step (one lock acquisition per target).
            touched: List[int] = []
            seen = set()
            for molecule in self._own_molecules(tid):
                yield ("R", self.positions.addr(molecule), 0)
                for slot, neighbor in enumerate(self.neighbors[molecule]):
                    yield ("R", self.positions.addr(neighbor), 0)
                    key = (molecule, slot)
                    churn = churn_of[flickery[key]]
                    if in_cutoff[key]:
                        if rng.random() < churn:
                            in_cutoff[key] = False
                    elif rng.random() < enter_of[flickery[key]]:
                        in_cutoff[key] = True
                    if in_cutoff[key] and neighbor not in seen:
                        seen.add(neighbor)
                        touched.append(neighbor)
            for neighbor in touched:
                force_addr = self.forces.addr(neighbor)
                yield Atomic(
                    [("R", force_addr, 0), ("W", force_addr, pc_accumulate)]
                )
            yield Barrier()

            # Integration: consume own forces, publish new positions.
            for molecule in self._own_molecules(tid):
                yield ("R", self.forces.addr(molecule), 0)
                yield ("W", self.positions.addr(molecule), pc_update)
                yield ("W", self.forces.addr(molecule), pc_reset)
            yield Barrier()
