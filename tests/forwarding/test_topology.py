"""Unit tests for the interconnect topologies and their hop tables."""

from __future__ import annotations

import pytest

from repro.forwarding.topology import (
    TOPOLOGY_NAMES,
    Topology,
    crossbar,
    hypercube,
    make_topology,
    mesh,
    ring,
)


class TestBuilders:
    def test_crossbar_is_one_hop_everywhere(self):
        topo = crossbar(5)
        for src in range(5):
            for dst in range(5):
                assert topo.hops(src, dst) == (0 if src == dst else 1)

    def test_ring_takes_the_short_way_around(self):
        topo = ring(8)
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 7) == 1  # wraps
        assert topo.hops(0, 4) == 4  # antipode
        assert topo.hops(2, 6) == 4

    def test_mesh_is_manhattan_on_a_4x4_grid(self):
        topo = mesh(16)
        # row-major: node 0 at (0,0), node 5 at (1,1), node 15 at (3,3)
        assert topo.hops(0, 5) == 2
        assert topo.hops(0, 15) == 6
        assert topo.hops(3, 12) == 6  # opposite corners
        assert topo.hops(1, 2) == 1

    def test_mesh_handles_non_square_counts(self):
        topo = mesh(12)  # 3x4 grid
        assert topo.num_nodes == 12
        assert max(topo.hops(s, d) for s in range(12) for d in range(12)) == 5

    def test_hypercube_is_hamming_distance(self):
        topo = hypercube(16)
        assert topo.hops(0, 15) == 4
        assert topo.hops(0b0101, 0b0110) == 2

    def test_hypercube_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            hypercube(12)

    @pytest.mark.parametrize("spec", TOPOLOGY_NAMES)
    def test_all_builders_symmetric_zero_diagonal(self, spec):
        topo = make_topology(spec, 16)
        assert topo.name == spec
        for src in range(16):
            assert topo.hops(src, src) == 0
            for dst in range(16):
                assert topo.hops(src, dst) == topo.hops(dst, src)

    def test_make_topology_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("torus", 16)
        # a failed build is not remembered
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("torus", 16)

    def test_make_topology_builds_once_per_spec_and_size(self):
        assert make_topology("mesh", 64) is make_topology("mesh", 64)
        assert make_topology("mesh", 16) is not make_topology("ring", 16)
        assert make_topology("hypercube", 32).num_nodes == 32


class TestValidation:
    def test_from_matrix_round_trips(self):
        matrix = [[0, 2], [2, 0]]
        topo = Topology.from_matrix(matrix, name="pair")
        assert topo.hops(0, 1) == 2

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Topology.from_matrix([[1, 1], [1, 0]])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            Topology.from_matrix([[0, 1], [2, 0]])

    def test_rejects_negative_hops(self):
        with pytest.raises(ValueError, match="non-negative"):
            Topology.from_matrix([[0, -1], [-1, 0]])

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError, match="2x2"):
            Topology(name="bad", num_nodes=2, matrix=((0,), (0, 0)))
