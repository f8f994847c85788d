"""MSI protocol engine: state transitions, events, epoch bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import MODIFIED, SHARED, CacheConfig
from repro.memory.directory import DirState
from repro.memory.system import MultiprocessorSystem, SystemConfig


def make_system(num_nodes=4, cache_bytes=4096, ways=4, mesi=False):
    return MultiprocessorSystem(
        SystemConfig(
            num_nodes=num_nodes,
            cache=CacheConfig(size_bytes=cache_bytes, associativity=ways, line_size=64),
            use_exclusive_state=mesi,
        )
    )


def assert_counter_identities(stats, accesses):
    """The counter identities any ``(node, op, line)`` stream must keep.

    Every load is a hit or a miss; every store is silent, a miss or an
    upgrade; a MESI silent E -> M upgrade is also a silent write, and needs
    an earlier exclusive grant (MSI has neither).
    """
    assert stats.reads == sum(op == "R" for _, op, _ in accesses)
    assert stats.writes == len(accesses) - stats.reads
    assert stats.reads == stats.read_hits + stats.read_misses
    assert stats.writes == stats.silent_writes + stats.write_misses + stats.write_upgrades
    assert stats.exclusive_upgrades <= stats.silent_writes
    assert stats.exclusive_upgrades <= stats.exclusive_grants


class TestReads:
    def test_read_miss_then_hit(self):
        system = make_system()
        system.read(0, 0x100)
        system.read(0, 0x100)
        assert system.stats.read_misses == 1
        assert system.stats.read_hits == 1

    def test_read_downgrades_modified_owner(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.read(1, 0x100)
        block = system.address_space.block_of(0x100)
        entry = system.protocol.directory.get(block)
        assert entry.state is DirState.SHARED
        assert system.protocol.caches[0].get_state(block) == SHARED
        assert system.stats.writebacks == 1

    def test_reads_within_line_hit(self):
        system = make_system()
        system.read(0, 0x100)
        system.read(0, 0x13F)  # same 64-byte line
        assert system.stats.read_misses == 1


class TestWrites:
    def test_write_miss_creates_event(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        assert system.stats.write_misses == 1
        assert len(system.protocol.builder) == 1

    def test_repeated_writes_by_owner_are_silent(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.write(0, 0x108, pc=1)  # same line
        system.write(0, 0x100, pc=2)
        assert system.stats.silent_writes == 2
        assert len(system.protocol.builder) == 1

    def test_write_after_reader_is_upgrade(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.read(1, 0x100)
        system.write(0, 0x100, pc=1)
        assert system.stats.write_upgrades == 1
        assert len(system.protocol.builder) == 2

    def test_write_invalidates_all_other_copies(self):
        system = make_system()
        block = system.address_space.block_of(0x100)
        system.write(0, 0x100, pc=1)
        system.read(1, 0x100)
        system.read(2, 0x100)
        system.write(3, 0x100, pc=2)
        for node in (0, 1, 2):
            assert system.protocol.caches[node].get_state(block) is None
        assert system.protocol.caches[3].get_state(block) == MODIFIED
        assert system.stats.invalidations_sent == 3

    def test_exclusive_state_at_directory(self):
        system = make_system()
        system.write(2, 0x100, pc=1)
        entry = system.protocol.directory.get(system.address_space.block_of(0x100))
        assert entry.state is DirState.EXCLUSIVE
        assert entry.owner == 2


class TestEpochBookkeeping:
    def test_truth_excludes_writer(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.read(0, 0x100)  # owner reading its own data: not sharing
        system.read(1, 0x100)
        system.write(2, 0x100, pc=2)
        trace = system.finalize_trace()
        assert trace[0].truth == 0b0010

    def test_inval_bitmap_is_previous_truth(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.read(1, 0x100)
        system.read(3, 0x100)
        system.write(2, 0x100, pc=2)
        trace = system.finalize_trace()
        assert trace[1].inval == trace[0].truth == 0b1010
        assert trace[1].has_inval

    def test_evicted_reader_still_counted(self):
        """Access bits survive replacement: true readers stay in the truth."""
        system = make_system(cache_bytes=128, ways=1)  # 2 sets x 1 way
        system.write(0, 0x000, pc=1)  # block 0 (set 0)
        system.read(1, 0x000)
        # force block 0 out of node 1's cache: block 2 maps to set 0
        system.read(1, 0x080)
        block = system.address_space.block_of(0x000)
        assert system.protocol.caches[1].get_state(block) is None
        system.write(2, 0x000, pc=2)
        trace = system.finalize_trace()
        assert trace[0].truth & 0b0010

    def test_owner_eviction_makes_next_write_a_miss(self):
        system = make_system(cache_bytes=128, ways=1)
        system.write(0, 0x000, pc=1)
        system.write(0, 0x080, pc=1)  # evicts block 0 (same set), dirty
        assert system.stats.writebacks == 1
        system.write(0, 0x000, pc=1)  # write miss again, same writer
        assert system.stats.write_misses == 3
        trace = system.finalize_trace()
        # block 0 has two events; the second closes a reader-less epoch
        assert trace[2].inval == 0 and trace[2].has_inval

    def test_open_epoch_truth_resolved_at_finalize(self):
        system = make_system()
        system.write(0, 0x100, pc=1)
        system.read(1, 0x100)
        trace = system.finalize_trace()
        assert trace[0].truth == 0b0010
        assert trace[0].close == len(trace)


class TestInvariants:
    def test_invariants_hold_after_workout(self, small_system):
        from repro.util.rng import DeterministicRng

        rng = DeterministicRng("protocol-workout")
        for _ in range(3000):
            node = rng.integers(0, 4)
            address = rng.integers(0, 32) * 64
            if rng.random() < 0.4:
                small_system.write(node, address, pc=rng.integers(1, 5))
            else:
                small_system.read(node, address)
        small_system.protocol.check_invariants()
        trace = small_system.finalize_trace()
        trace.check_consistency()

    def test_op_validation(self, small_system):
        with pytest.raises(ValueError):
            small_system.run([(0, "X", 0, 0)])


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
def test_protocol_invariants_property(accesses):
    """Single-writer/presence invariants hold after any access sequence."""
    system = make_system(num_nodes=4, cache_bytes=512, ways=2)
    for node, op, line in accesses:
        if op == "R":
            system.read(node, line * 64)
        else:
            system.write(node, line * 64, pc=1)
    system.protocol.check_invariants()
    system.finalize_trace().check_consistency()
    assert_counter_identities(system.stats, accesses)
    assert system.stats.exclusive_grants == 0


@settings(max_examples=30, deadline=None)
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
def test_event_count_equals_coherence_store_misses(accesses):
    system = make_system(num_nodes=4, cache_bytes=512, ways=2)
    for node, op, line in accesses:
        if op == "R":
            system.read(node, line * 64)
        else:
            system.write(node, line * 64, pc=1)
    trace = system.finalize_trace()
    assert len(trace) == system.stats.coherence_store_misses
    assert_counter_identities(system.stats, accesses)


def step_through_the_cache_methods(protocol, node, op, address, pc):
    """One reference, spelled as ``read``/``write`` were before ``run``'s hit
    paths: the cache's ``get_state``/``touch`` methods decide and refresh a
    hit, and everything else goes to ``_read_miss``/``_store``."""
    stats = protocol.stats
    block = protocol.address_space.block_of(address)
    cache = protocol.caches[node]
    state = cache.get_state(block)
    if op == "R":
        stats.reads += 1
        if state is None:
            protocol._read_miss(node, block)
        else:
            cache.touch(block)
            stats.read_hits += 1
    else:
        stats.writes += 1
        stats.store_pcs_by_node[node].add(pc)
        if state == MODIFIED:
            cache.touch(block)
            stats.silent_writes += 1
        else:
            protocol._store(node, block, pc, state)


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["R", "W"]),
            # few lines per 4-line cache: hits on non-MRU lines, then evictions
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=40,
        max_size=250,
    ),
)
def test_run_matches_the_cache_methods(mesi, accesses):
    """``run``'s hit paths (one set lookup, one ``move_to_end``, counters
    kept in locals) leave exactly the state of the same stream stepped
    through the cache's methods, under MSI and MESI with 2-set caches."""
    stream = [(node, op, line * 64, pc) for node, op, line, pc in accesses]
    fast = make_system(num_nodes=4, cache_bytes=256, ways=2, mesi=mesi)
    fast.run(stream)
    spec = make_system(num_nodes=4, cache_bytes=256, ways=2, mesi=mesi)
    for reference in stream:
        step_through_the_cache_methods(spec.protocol, *reference)

    assert fast.stats == spec.stats  # every counter and pc set
    for ours, theirs in zip(fast.protocol.caches, spec.protocol.caches):
        # contents, states and LRU order of every set
        assert [list(s.items()) for s in ours.sets] == [list(s.items()) for s in theirs.sets]
    assert fast.protocol.directory.entries == spec.protocol.directory.entries
    ours, theirs = fast.finalize_trace(), spec.finalize_trace()
    for column in ("writer", "pc", "home", "block", "truth", "inval", "has_inval", "close"):
        assert np.array_equal(getattr(ours, column), getattr(theirs, column)), column
