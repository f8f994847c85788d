"""Interleaving scheduler: round-robin, barriers, atomic bursts, validation."""

import re

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.system import MultiprocessorSystem, SystemConfig
from repro.workloads.base import Access, Atomic, Barrier
from repro.workloads.scheduler import interleave


def program(items):
    def generator():
        for item in items:
            yield item

    return generator()


class TestRoundRobin:
    def test_alternates_between_threads(self):
        threads = [
            program([Access("R", 0), Access("R", 1), Access("R", 2)]),
            program([Access("R", 10), Access("R", 11), Access("R", 12)]),
        ]
        stream = list(interleave(threads, quantum=1))
        assert [node for node, *_ in stream] == [0, 1, 0, 1, 0, 1]

    def test_quantum_groups_accesses(self):
        threads = [
            program([Access("R", index) for index in range(4)]),
            program([Access("R", index + 10) for index in range(4)]),
        ]
        stream = list(interleave(threads, quantum=2))
        assert [node for node, *_ in stream] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_all_accesses_emitted(self):
        threads = [program([Access("R", index) for index in range(7)]) for _ in range(3)]
        stream = list(interleave(threads, quantum=4))
        assert len(stream) == 21

    def test_access_fields_preserved(self):
        threads = [program([Access("W", 123, pc=9)])]
        assert list(interleave(threads)) == [(0, "W", 123, 9)]

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            list(interleave([program([])], quantum=0))

    def test_bad_item_rejected(self):
        with pytest.raises(TypeError):
            list(interleave([program(["bogus"])]))


class TestBarriers:
    def test_barrier_synchronizes(self):
        """No post-barrier access precedes any pre-barrier access."""
        threads = [
            program([Access("R", 0), Barrier(), Access("R", 1)]),
            program(
                [Access("R", 10), Access("R", 11), Access("R", 12), Barrier(), Access("R", 13)]
            ),
        ]
        stream = list(interleave(threads, quantum=1))
        phase2_start = min(
            index for index, (_, _, address, _) in enumerate(stream) if address in (1, 13)
        )
        for _, _, address, _ in stream[:phase2_start]:
            assert address in (0, 10, 11, 12)

    def test_finished_thread_does_not_block_barrier(self):
        threads = [
            program([Access("R", 0)]),  # finishes before any barrier
            program([Access("R", 10), Barrier(), Access("R", 11)]),
        ]
        stream = list(interleave(threads, quantum=1))
        assert len(stream) == 3

    def test_consecutive_barriers(self):
        threads = [
            program([Barrier(), Barrier(), Access("R", 1)]),
            program([Barrier(), Barrier(), Access("R", 2)]),
        ]
        assert len(list(interleave(threads))) == 2


class TestAtomic:
    def test_atomic_not_interleaved(self):
        burst = Atomic([Access("R", 100), Access("W", 100, pc=1), Access("R", 101)])
        threads = [
            program([burst]),
            program([Access("R", 7), Access("R", 8), Access("R", 9)]),
        ]
        stream = list(interleave(threads, quantum=1))
        addresses = [address for _, _, address, _ in stream]
        start = addresses.index(100)
        assert addresses[start : start + 3] == [100, 100, 101]

    def test_atomic_counts_against_quantum(self):
        burst = Atomic([Access("R", 0)] * 4)
        threads = [program([burst, burst]), program([Access("R", 9)])]
        stream = list(interleave(threads, quantum=2))
        # thread 0's first burst fills its quantum; thread 1 runs before the
        # second burst
        assert [node for node, *_ in stream[:5]] == [0, 0, 0, 0, 1]


#: thread 1's program: a good store, then one malformed item; the error each
#: must raise, naming thread 1.  Thread 0 only reads, so thread 1's store is
#: the one event recorded before the bad item.
MALFORMED = {
    "bad op": (Access("X", 128), ValueError, "thread 1: op must be 'R' or 'W', got 'X'"),
    "negative address": (
        Access("W", -64, 2),
        ValueError,
        "thread 1: address must be non-negative, got -64",
    ),
    "unknown item": ("bogus", TypeError, "thread 1: not a memory reference: 'bogus'"),
    "too short a tuple": (("R", 64), TypeError, "thread 1: not a memory reference: ('R', 64)"),
    "too long a tuple": (
        (1, "W", 64, 2),
        TypeError,
        "thread 1: not a memory reference: (1, 'W', 64, 2)",
    ),
    "bad reference in an Atomic": (
        Atomic([Access("R", 128), Access("W", 128, 2), Access("Y", 192)]),
        ValueError,
        "thread 1: op must be 'R' or 'W', got 'Y'",
    ),
    "negative address in an Atomic": (
        Atomic([Access("W", 128, 2), Access("R", -8)]),
        ValueError,
        "thread 1: address must be non-negative, got -8",
    ),
    "unknown item in an Atomic": (
        Atomic([Access("W", 128, 2), Barrier()]),
        TypeError,
        "thread 1: not a memory reference: Barrier()",
    ),
}


def malformed_programs(bad_item):
    return [
        program([Access("R", 512)]),
        program([Access("W", 64, 1), bad_item, Access("W", 256, 3)]),
    ]


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedPrograms:
    """A malformed item fails loudly before any of it reaches the stream."""

    def test_interleave_raises_before_emitting_it(self, case):
        bad_item, error, message = MALFORMED[case]
        emitted = []
        with pytest.raises(error, match=re.escape(message)):
            for reference in interleave(malformed_programs(bad_item), quantum=4):
                emitted.append(reference)
        assert emitted == [(0, "R", 512, 0), (1, "W", 64, 1)]

    def test_run_raises_before_recording_an_event_for_it(self, case):
        bad_item, error, message = MALFORMED[case]
        system = MultiprocessorSystem(
            SystemConfig(num_nodes=2, cache=CacheConfig(size_bytes=1024, associativity=2))
        )
        with pytest.raises(error, match=re.escape(message)):
            system.run(interleave(malformed_programs(bad_item), quantum=4))
        assert len(system.protocol.builder) == 1
        assert (system.stats.reads, system.stats.writes) == (1, 1)
