"""MESI protocol variant: the E state and its effect on sharing traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import EXCLUSIVE, MODIFIED, SHARED, CacheConfig
from repro.memory.directory import DirState
from repro.memory.system import MultiprocessorSystem, SystemConfig
from tests.memory.test_protocol import assert_counter_identities


def make_system(mesi=True, num_nodes=4, cache_bytes=4096, ways=4):
    return MultiprocessorSystem(
        SystemConfig(
            num_nodes=num_nodes,
            cache=CacheConfig(size_bytes=cache_bytes, associativity=ways, line_size=64),
            use_exclusive_state=mesi,
        )
    )


class TestExclusiveGrant:
    def test_sole_reader_gets_exclusive(self):
        system = make_system()
        system.read(0, 0x100)
        block = system.address_space.block_of(0x100)
        assert system.protocol.caches[0].get_state(block) == EXCLUSIVE
        entry = system.protocol.directory.get(block)
        assert entry.state is DirState.EXCLUSIVE and entry.owner == 0
        assert system.stats.exclusive_grants == 1

    def test_second_reader_gets_shared(self):
        system = make_system()
        system.read(0, 0x100)
        system.read(1, 0x100)
        block = system.address_space.block_of(0x100)
        assert system.protocol.caches[0].get_state(block) == SHARED
        assert system.protocol.caches[1].get_state(block) == SHARED
        assert system.stats.writebacks == 0  # E downgrade is clean

    def test_msi_mode_never_grants_exclusive(self):
        system = make_system(mesi=False)
        system.read(0, 0x100)
        block = system.address_space.block_of(0x100)
        assert system.protocol.caches[0].get_state(block) == SHARED
        assert system.stats.exclusive_grants == 0


class TestSilentUpgrade:
    def test_write_after_exclusive_read_is_silent(self):
        system = make_system()
        system.read(0, 0x100)
        system.write(0, 0x100, pc=1)
        block = system.address_space.block_of(0x100)
        assert system.protocol.caches[0].get_state(block) == MODIFIED
        assert system.stats.exclusive_upgrades == 1
        assert system.stats.coherence_store_misses == 0
        assert len(system.protocol.builder) == 0  # no prediction event

    def test_same_sequence_events_in_msi(self):
        system = make_system(mesi=False)
        system.read(0, 0x100)
        system.write(0, 0x100, pc=1)
        assert system.stats.write_upgrades == 1
        assert len(system.protocol.builder) == 1

    def test_remote_write_after_exclusive_is_event(self):
        system = make_system()
        system.read(0, 0x100)
        system.write(1, 0x100, pc=1)  # different node: real coherence store
        assert system.stats.coherence_store_misses == 1
        # node 0's E copy was invalidated without writeback (clean)
        assert system.stats.invalidations_sent == 1
        assert system.stats.writebacks == 0

    def test_eviction_of_exclusive_is_clean(self):
        system = make_system(cache_bytes=128, ways=1)
        system.read(0, 0x000)  # E
        system.read(0, 0x080)  # same set: evicts the E copy
        assert system.stats.writebacks == 0
        block = system.address_space.block_of(0x000)
        assert system.protocol.directory.get(block).state is DirState.UNCACHED


class TestTraceSemantics:
    def test_mesi_traces_fewer_events(self):
        """Read-then-write private data generates events only under MSI."""
        from repro.workloads.registry import make_workload

        results = {}
        for mesi in (False, True):
            system = make_system(mesi=mesi, num_nodes=16, cache_bytes=1024)
            workload = make_workload("gauss", size=64, repeats=1)
            system.run(workload.accesses())
            results[mesi] = (
                len(system.finalize_trace()),
                system.stats.exclusive_upgrades,
            )
        assert results[True][0] < results[False][0]
        assert results[True][1] > 0  # the missing events became silent E->M

    def test_mesi_trace_is_consistent(self):
        from repro.workloads.registry import make_workload

        system = make_system(mesi=True, num_nodes=16, cache_bytes=8192)
        workload = make_workload("mp3d", molecules_per_thread=12, steps=3)
        system.run(workload.accesses())
        trace = system.finalize_trace()
        trace.check_consistency()
        system.protocol.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["R", "W"]),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=40,
        max_size=250,
    )
)
def test_mesi_invariants_property(accesses):
    """Single-exclusive-copy and presence invariants hold under MESI too."""
    system = make_system(mesi=True, num_nodes=4, cache_bytes=512, ways=2)
    for node, op, line in accesses:
        if op == "R":
            system.read(node, line * 64)
        else:
            system.write(node, line * 64, pc=1)
    system.protocol.check_invariants()
    system.finalize_trace().check_consistency()
    assert_counter_identities(system.stats, accesses)
