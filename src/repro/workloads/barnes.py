"""barnes: Barnes-Hut N-body with wide body sharing and migratory tree cells.

Two sharing populations drive the paper's highest prevalence (Table 6:
15.10%):

* **bodies** — each body's record is rewritten by its owner every timestep
  and read during force computation by every thread whose interaction list
  contains it: a stable, several-reader producer-consumer relation (we draw
  interaction partners mostly from a few preferred peers, as spatial
  locality does in the real code);
* **tree cells** — rebuilt every timestep by whichever threads' bodies land
  in them, under locks: migratory read-modify-write chains, widely read
  during the force phase.

Body records are 64 bytes (one line each, as in SPLASH), so there is no
false sharing among bodies; cells share that property.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Atomic, Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class BarnesWorkload(Workload):
    """Hierarchical N-body (paper input: 8K particles)."""

    name = "barnes"
    suggested_cache_bytes = 8 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        bodies_per_thread: int = 48,
        cells: int = 256,
        interaction_bodies: int = 5,
        interaction_cells: int = 6,
        preferred_peers: int = 3,
        local_bias: float = 0.7,
        transient_read_rate: float = 0.5,
        tree_depth: int = 2,
        timesteps: int = 5,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if not 0.0 <= transient_read_rate <= 1.0:
            raise ValueError(
                f"transient_read_rate must be in [0,1], got {transient_read_rate}"
            )
        self.transient_read_rate = transient_read_rate
        self.bodies_per_thread = bodies_per_thread
        self.num_cells = cells
        self.interaction_bodies = interaction_bodies
        self.interaction_cells = interaction_cells
        self.tree_depth = tree_depth
        self.timesteps = timesteps

        total_bodies = num_nodes * bodies_per_thread
        layout = MemoryLayout()
        self.bodies = layout.array("bodies", total_bodies, 64)
        self.cells = layout.array("cells", cells, 64)

        rng = self.rng.spawn("structure")
        peers_of = [
            rng.sample(
                [peer for peer in range(num_nodes) if peer != tid],
                min(preferred_peers, num_nodes - 1),
            )
            for tid in range(num_nodes)
        ]

        # Static interaction lists: mostly bodies of preferred peers.
        self.interactions: List[List[int]] = []
        self.cell_reads: List[List[int]] = []
        self.insert_paths: List[List[int]] = []
        for body in range(total_bodies):
            owner = body // bodies_per_thread
            partners: List[int] = []
            for _ in range(interaction_bodies):
                if rng.random() < local_bias:
                    peer = peers_of[owner][rng.integers(0, len(peers_of[owner]))]
                else:
                    peer = rng.integers(0, num_nodes)
                partners.append(peer * bodies_per_thread + rng.integers(0, bodies_per_thread))
            self.interactions.append(partners)
            self.cell_reads.append(
                [rng.integers(0, cells) for _ in range(interaction_cells)]
            )
            # Tree-insert path: a coarse cell (the top of the octree) plus
            # tree_depth - 1 finer cells; coarse cells are few and hot.
            coarse = rng.integers(0, min(16, cells))
            path = [coarse]
            for _ in range(tree_depth - 1):
                path.append(16 + rng.integers(0, cells - 16))
            self.insert_paths.append(path)

    def _own_bodies(self, tid: int) -> range:
        start = tid * self.bodies_per_thread
        return range(start, start + self.bodies_per_thread)

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        rng = self.rng.spawn(f"walk:{tid}")
        total_bodies = self.num_nodes * self.bodies_per_thread
        pc_init_body = self.pcs.site("init_body")
        pc_init_cell = self.pcs.site("init_cell")
        pc_insert = self.pcs.site("tree_insert")
        pc_position = self.pcs.site("update_position")
        pc_velocity = self.pcs.site("update_velocity")

        # Owners first-touch their bodies; thread 0 first-touches the tree
        # (the real code allocates the tree from a shared arena).
        for body in self._own_bodies(tid):
            yield ("W", self.bodies.addr(body), pc_init_body)
        if tid == 0:
            for cell in range(self.num_cells):
                yield ("W", self.cells.addr(cell), pc_init_cell)
        yield Barrier()

        for _ in range(self.timesteps):
            # Tree build: lock-protected insertion along each body's path.
            for body in self._own_bodies(tid):
                for cell in self.insert_paths[body]:
                    address = self.cells.addr(cell)
                    yield Atomic(
                        [("R", address, 0), ("W", address, pc_insert)]
                    )
            yield Barrier()

            # Force computation: read own body, partner bodies, and cells.
            # The tree walk also brushes a few bodies outside the stable
            # interaction set (opening criteria flip as bodies move):
            # one-timestep transient readers that a deep-intersection
            # predictor should learn to ignore.
            for body in self._own_bodies(tid):
                yield ("R", self.bodies.addr(body), 0)
                for partner in self.interactions[body]:
                    yield ("R", self.bodies.addr(partner), 0)
                if rng.random() < self.transient_read_rate:
                    stray = rng.integers(0, total_bodies)
                    yield ("R", self.bodies.addr(stray), 0)
                for cell in self.cell_reads[body]:
                    yield ("R", self.cells.addr(cell), 0)
            yield Barrier()

            # Update: two stores to the owner's body record.
            for body in self._own_bodies(tid):
                address = self.bodies.addr(body)
                yield ("W", address, pc_position)
                yield ("W", address, pc_velocity)
            yield Barrier()
