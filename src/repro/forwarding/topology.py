"""Interconnect topologies and their hop-distance tables.

The traffic simulator charges every coherence message a latency of
``payload + hop_cost * hops(src, dst)``, so the network's shape decides how
much a forwarding hit is actually worth: on a crossbar every demand fetch is
one hop away and prediction saves mostly messages; on a 4x4 mesh the
three-leg demand read (reader -> home -> owner -> reader) can cross many
hops and the hidden latency dominates.

A :class:`Topology` is a frozen hop matrix.  Builders cover the four
standard shapes the literature evaluates (crossbar, ring, mesh, hypercube);
:func:`make_topology` resolves a spec string for the machine size in use.
All built-in topologies are symmetric with a zero diagonal, and
:meth:`Topology.from_matrix` enforces the same for custom cost tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

#: spec strings :func:`make_topology` accepts
TOPOLOGY_NAMES = ("crossbar", "ring", "mesh", "hypercube")


@dataclass(frozen=True)
class Topology:
    """A named, immutable node-to-node hop-distance table."""

    name: str
    num_nodes: int
    matrix: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 1:
            raise ValueError(f"num_nodes must be positive, got {n}")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError(f"hop matrix must be {n}x{n}")
        for src, row in enumerate(self.matrix):
            for dst, hops in enumerate(row):
                if src == dst and hops != 0:
                    raise ValueError(f"diagonal must be zero, got {hops} at {src}")
                if hops < 0:
                    raise ValueError(f"hop counts must be non-negative, got {hops}")
                if self.matrix[dst][src] != hops:
                    raise ValueError(
                        f"hop matrix must be symmetric ({src}->{dst} is {hops}, "
                        f"{dst}->{src} is {self.matrix[dst][src]})"
                    )

    def hops(self, src: int, dst: int) -> int:
        """Network distance from ``src`` to ``dst`` in hops."""
        return self.matrix[src][dst]

    @classmethod
    def from_matrix(
        cls, matrix: Sequence[Sequence[int]], name: str = "custom"
    ) -> "Topology":
        """A topology from an explicit (validated) cost table."""
        frozen = tuple(tuple(int(hops) for hops in row) for row in matrix)
        return cls(name=name, num_nodes=len(frozen), matrix=frozen)


def _matrix(num_nodes: int, distance) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(distance(src, dst) for dst in range(num_nodes))
        for src in range(num_nodes)
    )


def crossbar(num_nodes: int) -> Topology:
    """Every remote node one hop away (an idealized full crossbar)."""
    return Topology(
        "crossbar", num_nodes, _matrix(num_nodes, lambda s, d: 0 if s == d else 1)
    )


def ring(num_nodes: int) -> Topology:
    """A bidirectional ring; distance is the shorter way around."""
    return Topology(
        "ring",
        num_nodes,
        _matrix(num_nodes, lambda s, d: min((s - d) % num_nodes, (d - s) % num_nodes)),
    )


def _mesh_shape(num_nodes: int) -> Tuple[int, int]:
    """The most square rows x cols factorization (4x4 for 16 nodes)."""
    rows = int(num_nodes**0.5)
    while num_nodes % rows:
        rows -= 1
    return rows, num_nodes // rows


def mesh(num_nodes: int) -> Topology:
    """A 2D mesh in row-major layout; distance is Manhattan."""
    _rows, cols = _mesh_shape(num_nodes)

    def distance(src: int, dst: int) -> int:
        return abs(src // cols - dst // cols) + abs(src % cols - dst % cols)

    return Topology("mesh", num_nodes, _matrix(num_nodes, distance))


def hypercube(num_nodes: int) -> Topology:
    """A binary hypercube; distance is the Hamming distance of node ids."""
    if num_nodes & (num_nodes - 1):
        raise ValueError(
            f"hypercube requires a power-of-two node count, got {num_nodes}"
        )
    return Topology(
        "hypercube", num_nodes, _matrix(num_nodes, lambda s, d: bin(s ^ d).count("1"))
    )


_BUILDERS = {
    "crossbar": crossbar,
    "ring": ring,
    "mesh": mesh,
    "hypercube": hypercube,
}


@functools.lru_cache(maxsize=32)
def make_topology(spec: str, num_nodes: int) -> Topology:
    """Resolve a topology spec string for a machine of ``num_nodes``.

    Built once per (spec, size): the hop table takes about a second to
    fill and check in Python at 1024 nodes, and a :class:`Topology` is
    immutable, so every replay can share it.
    """
    builder = _BUILDERS.get(spec)
    if builder is None:
        raise ValueError(
            f"unknown topology {spec!r}; known: {', '.join(TOPOLOGY_NAMES)}"
        )
    return builder(num_nodes)
