"""Benchmark workload models: determinism, structure, and the sharing
patterns each is supposed to exhibit (at reduced scale for speed)."""

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.system import MultiprocessorSystem, SystemConfig
from repro.trace.stats import compute_trace_stats
from repro.workloads.base import Atomic, Barrier
from repro.workloads.registry import BENCHMARK_NAMES, default_workloads, make_workload

#: small-scale parameter overrides so every model runs in well under a second
SMALL = {
    "barnes": dict(bodies_per_thread=6, cells=64, timesteps=2),
    "em3d": dict(nodes_per_thread=24, iterations=2),
    "gauss": dict(size=32, repeats=1),
    "mp3d": dict(molecules_per_thread=12, space_cells=128, steps=3),
    "ocean": dict(grid_size=32, iterations=2),
    "unstruct": dict(mesh_nodes_per_thread=16, iterations=2),
    "water": dict(molecules_per_thread=4, steps=2),
}


def run_small(name, seed=0, cache_bytes=8192):
    workload = make_workload(name, seed=seed, **SMALL[name])
    system = MultiprocessorSystem(
        SystemConfig(cache=CacheConfig(size_bytes=cache_bytes, associativity=4)),
        trace_name=name,
    )
    system.run(workload.accesses())
    return system.finalize_trace(), system


class TestRegistry:
    def test_seven_benchmarks(self):
        assert BENCHMARK_NAMES == [
            "barnes",
            "em3d",
            "gauss",
            "mp3d",
            "ocean",
            "unstruct",
            "water",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_workload("linpack")

    def test_default_suite_instantiates(self):
        workloads = default_workloads()
        assert [w.name for w in workloads] == BENCHMARK_NAMES

    def test_names_match_classes(self):
        for name in BENCHMARK_NAMES:
            assert make_workload(name, **SMALL[name]).name == name


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestEveryBenchmark:
    def test_deterministic(self, name):
        first = [
            item
            for item in make_workload(name, seed=3, **SMALL[name]).accesses()
        ]
        second = [
            item
            for item in make_workload(name, seed=3, **SMALL[name]).accesses()
        ]
        assert first == second

    def test_seed_behaviour(self, name):
        """Stochastic models vary with the seed; gauss and ocean are fully
        deterministic kernels (dense elimination, fixed stencil) where the
        seed has nothing to randomize."""
        first = list(make_workload(name, seed=0, **SMALL[name]).accesses())
        second = list(make_workload(name, seed=1, **SMALL[name]).accesses())
        if name in ("gauss", "ocean"):
            assert first == second
        else:
            assert first != second

    def test_one_program_per_node(self, name):
        workload = make_workload(name, **SMALL[name])
        assert len(workload.thread_programs()) == workload.num_nodes

    def test_yields_valid_items(self, name):
        """Every item is a Barrier, an Atomic of valid references, or a
        reference ``(op, address, pc)``: op R or W, int address >= 0, int
        pc >= 0."""

        def check_reference(item):
            assert type(item) is tuple and len(item) == 3, item
            op, address, pc = item
            assert op in ("R", "W"), item
            assert type(address) is int and address >= 0, item
            assert type(pc) is int and pc >= 0, item

        workload = make_workload(name, **SMALL[name])
        for program in workload.thread_programs():
            for item in program:
                if isinstance(item, Atomic):
                    for access in item.accesses:
                        check_reference(access)
                elif not isinstance(item, Barrier):
                    check_reference(item)

    def test_produces_sharing_events(self, name):
        trace, _system = run_small(name)
        assert len(trace) > 0
        trace.check_consistency()

    def test_produces_actual_sharing(self, name):
        trace, _system = run_small(name)
        assert compute_trace_stats(trace).sharing_events > 0

    def test_every_thread_stores(self, name):
        _trace, system = run_small(name)
        assert all(len(pcs) > 0 for pcs in system.stats.store_pcs_by_node)

    def test_protocol_invariants_hold(self, name):
        _trace, system = run_small(name)
        system.protocol.check_invariants()

    def test_static_store_sites_are_few(self, name):
        """The paper's Table 5 point: live static stores are scarce."""
        workload = make_workload(name, **SMALL[name])
        for program in workload.thread_programs():
            for item in program:
                pass  # exhaust generators so all sites register
        assert workload.pcs.num_sites <= 20


class TestPatternSpecifics:
    def test_ocean_only_neighbor_sharing(self):
        """Ocean readers are only the strip neighbours (stencil locality)."""
        trace, _ = run_small("ocean")
        for event in trace.events():
            for node in range(16):
                if event.truth & (1 << node):
                    assert abs(node - event.writer) == 1

    def test_em3d_sharing_is_static(self):
        """An em3d line's readers never grow beyond its cut-edge owners:
        the same reader set recurs across iterations."""
        trace, _ = run_small("em3d")
        readers_by_block = {}
        for event in trace.events():
            readers_by_block.setdefault(event.block, set()).add(event.truth)
        # most blocks exhibit at most two distinct non-empty reader sets
        stable = sum(
            1
            for truths in readers_by_block.values()
            if len({t for t in truths if t}) <= 2
        )
        assert stable / len(readers_by_block) > 0.8

    def test_mp3d_has_migratory_writers(self):
        """Space cells are written by many different nodes in succession."""
        trace, _ = run_small("mp3d")
        writers_by_block = {}
        for event in trace.events():
            writers_by_block.setdefault(event.block, set()).add(event.writer)
        assert max(len(writers) for writers in writers_by_block.values()) >= 4

    def test_gauss_has_wide_broadcast(self):
        """Some pivot-row epoch is read by many nodes."""
        trace, _ = run_small("gauss")
        from repro.util.bitmaps import popcount

        assert max(popcount(event.truth) for event in trace.events()) >= 8

    def test_water_position_readers_are_stable_peers(self):
        """Position lines have multi-reader truth bitmaps (cutoff sets)."""
        trace, _ = run_small("water")
        from repro.util.bitmaps import popcount

        multi = sum(1 for event in trace.events() if popcount(event.truth) >= 2)
        assert multi > 0
