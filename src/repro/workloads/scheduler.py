"""Deterministic round-robin interleaving of thread programs.

The scheduler defines the machine's global memory order: threads take turns
emitting up to ``quantum`` references; a :class:`Barrier` parks a thread
until every live thread reaches its own barrier; an :class:`Atomic` burst is
emitted contiguously (the lock holder runs alone), regardless of quantum.

The interleaving is coarse compared to real hardware, but the sharing study
only needs a plausible relative ordering of conflicting accesses -- and the
paper's metrics are insensitive to timing (its Section 5.1).

This is also where references are validated: each is checked once as it is
consumed (a whole :class:`Atomic` burst before any of its references is
emitted), so a malformed program fails before its bad reference reaches the
memory system.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.workloads.base import OPS, Atomic, Barrier, ThreadItem, check_reference


def interleave(
    programs: List[Iterator[ThreadItem]], quantum: int = 4
) -> Iterator[Tuple[int, str, int, int]]:
    """Merge per-thread programs into one ``(node, op, address, pc)`` stream."""
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    ops = OPS
    iterators = [iter(program) for program in programs]
    runnable = list(range(len(iterators)))  # live, unparked threads in tid order
    waiting: List[int] = []  # live threads parked at the barrier

    while runnable:
        next_round: List[int] = []
        for tid in runnable:
            emitted = 0
            # A thread leaves its turn at a barrier, out of quantum, or
            # finished (the loop runs dry and it drops out of the rotation).
            for item in iterators[tid]:
                if item.__class__ is tuple:
                    try:
                        op, address, pc = item
                    except ValueError:  # not a 3-tuple
                        check_reference(item, tid)
                    if op not in ops or address < 0:
                        check_reference(item, tid)
                    yield (tid, op, address, pc)
                    emitted += 1
                elif isinstance(item, Barrier):
                    waiting.append(tid)
                    break
                elif isinstance(item, Atomic):
                    burst = item.accesses
                    for access in burst:
                        check_reference(access, tid)
                    for op, address, pc in burst:
                        yield (tid, op, address, pc)
                    emitted += len(burst)
                else:
                    op, address, pc = check_reference(item, tid)
                    yield (tid, op, address, pc)
                    emitted += 1
                if emitted >= quantum:
                    next_round.append(tid)
                    break
        if not next_round:
            # Every live thread is waiting at the barrier: release them all.
            # (A thread that finished without reaching the barrier does not
            # block it -- matching pthread-style barriers re-initialized per
            # phase for the live thread count.)
            next_round, waiting = sorted(waiting), []
        runnable = next_round
