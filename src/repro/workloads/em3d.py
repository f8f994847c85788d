"""em3d: static producer-consumer sharing over a bipartite graph.

The real em3d propagates electromagnetic waves on a bipartite graph of E
and H nodes: each iteration recomputes every E value from ``degree`` H
neighbours, then every H value from E neighbours.  With 15% remote edges,
a value's remote readers form a *small, fixed* set -- the cleanest static
producer-consumer pattern in the paper's suite, and the reason em3d's
prevalence is the second lowest (paper Table 6: 3.19%).

Model specifics:

* values are 8-byte doubles, eight to a cache line, owned per-thread;
* edge lists are per-thread read-only arrays walked every iteration; they
  provide the capacity pressure that, combined with a scaled cache, turns
  purely-local value rewrites into write misses with empty reader sets
  (the paper's dilution of prevalence);
* remote neighbours cluster on a few preferred peer threads per owner, as
  first-touch placement of a partitioned graph produces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.base import Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class Em3dWorkload(Workload):
    """Bipartite-graph wave propagation (paper input: 9600 nodes, degree 5)."""

    name = "em3d"
    suggested_cache_bytes = 4 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        nodes_per_thread: int = 224,
        degree: int = 5,
        remote_fraction: float = 0.03,
        preferred_peers: int = 2,
        scatter_rate: float = 0.02,
        iterations: int = 6,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if not 0.0 <= remote_fraction <= 1.0:
            raise ValueError(f"remote_fraction must be in [0,1], got {remote_fraction}")
        self.nodes_per_thread = nodes_per_thread
        self.degree = degree
        self.remote_fraction = remote_fraction
        self.preferred_peers = preferred_peers
        self.scatter_rate = scatter_rate
        self.iterations = iterations

        total = num_nodes * nodes_per_thread
        layout = MemoryLayout()
        self.values = {
            "e": layout.array("values_e", total, 8),
            "h": layout.array("values_h", total, 8),
        }
        self.edge_data = {
            "e": layout.array("edges_e", total * degree, 4),
            "h": layout.array("edges_h", total * degree, 4),
        }
        self.neighbors = {
            "e": self._build_neighbors("e"),
            "h": self._build_neighbors("h"),
        }

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def _build_neighbors(self, half: str) -> List[List[int]]:
        """Neighbour lists in the *other* half for every node of ``half``."""
        rng = self.rng.spawn(f"graph:{half}")
        total = self.num_nodes * self.nodes_per_thread
        peers_of = [
            rng.sample(
                [peer for peer in range(self.num_nodes) if peer != tid],
                min(self.preferred_peers, self.num_nodes - 1),
            )
            for tid in range(self.num_nodes)
        ]
        neighbors: List[List[int]] = []
        for node in range(total):
            owner = node // self.nodes_per_thread
            chosen: List[int] = []
            for _ in range(self.degree):
                if rng.random() < self.remote_fraction:
                    peer = peers_of[owner][rng.integers(0, len(peers_of[owner]))]
                else:
                    peer = owner
                local_index = rng.integers(0, self.nodes_per_thread)
                chosen.append(peer * self.nodes_per_thread + local_index)
            neighbors.append(chosen)
        return neighbors

    def _owned_range(self, tid: int) -> range:
        start = tid * self.nodes_per_thread
        return range(start, start + self.nodes_per_thread)

    # ------------------------------------------------------------------
    # Thread programs
    # ------------------------------------------------------------------

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        rng = self.rng.spawn(f"scatter:{tid}")
        total = self.num_nodes * self.nodes_per_thread
        pc_init = {half: self.pcs.site(f"init_{half}") for half in ("e", "h")}
        pc_init_edges = {half: self.pcs.site(f"init_edges_{half}") for half in ("e", "h")}
        pc_update = {half: self.pcs.site(f"update_{half}") for half in ("e", "h")}

        # Initialization: owners first-touch their values and edge lists.
        degree = self.degree
        for half in ("e", "h"):
            values = self.values[half]
            edges = self.edge_data[half]
            for node in self._owned_range(tid):
                yield ("W", values.addr(node), pc_init[half])
                for address in edges.addr_range(node * degree, (node + 1) * degree):
                    yield ("W", address, pc_init_edges[half])
        yield Barrier()

        # Wave propagation: E from H, then H from E, every iteration.
        for _ in range(self.iterations):
            for half, other in (("e", "h"), ("h", "e")):
                values = self.values[half]
                other_values = self.values[other]
                edges = self.edge_data[half]
                neighbors = self.neighbors[half]
                for node in self._owned_range(tid):
                    edge_addresses = edges.addr_range(node * degree, (node + 1) * degree)
                    for edge, neighbor in zip(edge_addresses, neighbors[node]):
                        yield ("R", edge, 0)
                        yield ("R", other_values.addr(neighbor), 0)
                    # Convergence checks sample a random remote value now
                    # and then: one-iteration transient readers.
                    if rng.random() < self.scatter_rate:
                        yield ("R", other_values.addr(rng.integers(0, total)), 0)
                    yield ("W", values.addr(node), pc_update[half])
                yield Barrier()
