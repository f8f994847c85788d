"""unstruct: irregular static mesh with edge-based flux accumulation.

An unstructured-mesh CFD kernel: a fixed set of edges connects mesh nodes
dealt to threads in contiguous chunks, with endpoints biased toward the
owner and its index-adjacent peers (what a good mesh partitioner produces).
Each sweep reads both endpoint values per edge and accumulates fluxes into
both endpoints under locks; a second phase integrates each node from its
flux and publishes the new value.

Node values are read by the owners of all edges incident to the node -- an
irregular but *static* reader set of about two threads, giving the paper's
12.83% prevalence (Table 6).  Mesh-node records are 32 bytes, so pairs of
nodes share lines, adding mild false sharing as in the real code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.workloads.base import Atomic, Barrier, ThreadItem, Workload
from repro.workloads.layout import MemoryLayout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


class UnstructWorkload(Workload):
    """Edge-based unstructured mesh kernel (paper input: 2K mesh)."""

    name = "unstruct"
    suggested_cache_bytes = 32 * 1024

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
        mesh_nodes_per_thread: int = 96,
        edges_per_node: float = 3.0,
        remote_fraction: float = 0.70,
        adjacent_bias: float = 0.4,
        flux_rate: float = 0.22,
        scan_rate: float = 0.30,
        iterations: int = 6,
    ):
        super().__init__(num_nodes=num_nodes, seed=seed, machine=machine)
        num_nodes = self.num_nodes  # the spec may have resized the machine
        if not 0.0 <= flux_rate <= 1.0:
            raise ValueError(f"flux_rate must be in [0,1], got {flux_rate}")
        self.mesh_nodes_per_thread = mesh_nodes_per_thread
        self.flux_rate = flux_rate
        self.scan_rate = scan_rate
        self.iterations = iterations

        total = num_nodes * mesh_nodes_per_thread
        layout = MemoryLayout()
        self.values = layout.array("node_values", total, 32)
        self.fluxes = layout.array("node_fluxes", total, 32)

        rng = self.rng.spawn("mesh")
        num_edges = int(total * edges_per_node)
        # edges[e] = (a, b); a's owner computes the edge.  b is usually in
        # the same or an adjacent partition (partitioner locality).
        self.edges: List[Tuple[int, int]] = []
        for _ in range(num_edges):
            a = rng.integers(0, total)
            owner = a // mesh_nodes_per_thread
            if rng.random() < remote_fraction:
                # Partitioner locality is imperfect: cut edges mostly reach
                # adjacent partitions, but a share of them span the mesh.
                if rng.random() < adjacent_bias:
                    peer = (owner + rng.choice([-1, 1, 2])) % num_nodes
                else:
                    peer = rng.integers(0, num_nodes)
            else:
                peer = owner
            b = peer * mesh_nodes_per_thread + rng.integers(0, mesh_nodes_per_thread)
            self.edges.append((a, b))

    def _own_mesh_nodes(self, tid: int) -> range:
        start = tid * self.mesh_nodes_per_thread
        return range(start, start + self.mesh_nodes_per_thread)

    def _owner(self, mesh_node: int) -> int:
        return mesh_node // self.mesh_nodes_per_thread

    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        return [self._thread(tid) for tid in range(self.num_nodes)]

    def _thread(self, tid: int) -> Iterator[ThreadItem]:
        pc_init_value = self.pcs.site("init_value")
        pc_init_flux = self.pcs.site("init_flux")
        pc_flux_a = self.pcs.site("accumulate_flux_a")
        pc_flux_b = self.pcs.site("accumulate_flux_b")
        pc_update = self.pcs.site("update_value")
        pc_reset = self.pcs.site("reset_flux")

        own_edges = [edge for edge in self.edges if self._owner(edge[0]) == tid]

        for mesh_node in self._own_mesh_nodes(tid):
            yield ("W", self.values.addr(mesh_node), pc_init_value)
            yield ("W", self.fluxes.addr(mesh_node), pc_init_flux)
        yield Barrier()

        # Which remote nodes this thread's fluxes reach is dictated by the
        # (static) mesh and the slowly-evolving solution, so the active set
        # churns gently between sweeps instead of being redrawn.
        rng = self.rng.spawn(f"flux:{tid}")
        remote_endpoints = sorted(
            {b for _, b in own_edges if self._owner(b) != tid}
            | {a for a, _ in own_edges if self._owner(a) != tid}
        )
        flux_active = {
            endpoint: rng.random() < self.flux_rate for endpoint in remote_endpoints
        }
        churn = 0.10
        enter_probability = churn * self.flux_rate / max(1e-9, 1.0 - self.flux_rate)
        for _ in range(self.iterations):
            for endpoint in remote_endpoints:
                if flux_active[endpoint]:
                    if rng.random() < churn:
                        flux_active[endpoint] = False
                elif rng.random() < enter_probability:
                    flux_active[endpoint] = True
            # Edge sweep: read both endpoint values per edge; flux
            # contributions are summed locally and each node whose flux is
            # nonzero this sweep is written once (one lock round per node),
            # as tuned unstructured codes do.
            touched_local: List[int] = []
            touched_remote: List[int] = []
            seen = set()
            for a, b in own_edges:
                yield ("R", self.values.addr(a), 0)
                yield ("R", self.values.addr(b), 0)
                for endpoint in (a, b):
                    if endpoint in seen:
                        continue
                    seen.add(endpoint)
                    local = self._owner(endpoint) == tid
                    if not local and not flux_active[endpoint]:
                        continue  # flux below threshold this sweep
                    if local:
                        touched_local.append(endpoint)
                    else:
                        touched_remote.append(endpoint)
            for endpoint in touched_local:
                flux = self.fluxes.addr(endpoint)
                yield Atomic([("R", flux, 0), ("W", flux, pc_flux_a)])
            for endpoint in touched_remote:
                flux = self.fluxes.addr(endpoint)
                yield Atomic([("R", flux, 0), ("W", flux, pc_flux_b)])
            yield Barrier()

            # Mesh-quality scan: a sample of random remote values is read
            # once (transient single-sweep readers, as re-partitioning
            # checks produce).
            total = self.num_nodes * self.mesh_nodes_per_thread
            for _ in range(int(self.mesh_nodes_per_thread * self.scan_rate)):
                yield ("R", self.values.addr(rng.integers(0, total)), 0)

            # Node update: integrate flux into value, reset flux.
            for mesh_node in self._own_mesh_nodes(tid):
                yield ("R", self.fluxes.addr(mesh_node), 0)
                yield ("W", self.values.addr(mesh_node), pc_update)
                yield ("W", self.fluxes.addr(mesh_node), pc_reset)
            yield Barrier()
