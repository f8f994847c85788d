"""Workload building blocks: reference items, pc sites, and the ABC.

A workload is a set of per-thread *programs*: generators yielding a
reference -- the plain tuple ``(op, address, pc)``, one memory reference,
spelled :func:`Access` outside the hot loops -- a :class:`Barrier`
(rendezvous of all threads), or an :class:`Atomic` (a lock-protected burst
the scheduler must not interleave -- how migratory read-modify-write
sequences are expressed).  References are checked once, where the scheduler
consumes them (:func:`check_reference`), not where they are built, so a
reference costs no more than a tuple (the seed-0 suite issues 2.8M).

Static store sites are modelled by :class:`PcAllocator`: each call site in a
workload's inner loops registers a named pc once and stores through it, so
instruction-indexed predictors see the small, stable static-store working
sets the paper measures in its Table 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec


#: the two reference kinds: a load and a store
OPS = frozenset(("R", "W"))

#: one memory reference: ``(op, address, pc)``
Reference = Tuple[str, int, int]


def Access(op: str, address: int, pc: int = 0) -> Reference:
    """One memory reference ``(op, address, pc)``: ``op`` is ``"R"`` or ``"W"``.

    ``pc`` identifies the static instruction (word-granular; only store pcs
    are meaningful to predictors, reads default to pc 0).  This builds the
    plain tuple the models yield; nothing is checked until the scheduler
    consumes it.
    """
    return (op, address, pc)


def check_reference(item, thread: int) -> Reference:
    """``item`` if it is a well-formed reference, else a loud error.

    A non-reference raises :class:`TypeError`; a bad ``op`` or a negative
    ``address`` raises :class:`ValueError`.  Each message names ``thread``,
    the program that yielded the item.
    """
    if not isinstance(item, tuple) or len(item) != 3:
        raise TypeError(f"thread {thread}: not a memory reference: {item!r}")
    op, address, _pc = item
    if op not in OPS:
        raise ValueError(f"thread {thread}: op must be 'R' or 'W', got {op!r}")
    if address < 0:
        raise ValueError(f"thread {thread}: address must be non-negative, got {address}")
    return item


class Barrier:
    """All-thread rendezvous marker."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Barrier()"


@dataclass(frozen=True)
class Atomic:
    """A lock-protected burst of references, emitted without interleaving."""

    accesses: Tuple[Reference, ...]

    def __init__(self, accesses):
        object.__setattr__(self, "accesses", tuple(accesses))


ThreadItem = Union[Reference, Barrier, Atomic]


class PcAllocator:
    """Hands out stable pc values for named static store sites.

    Site ids start at 1 (0 is the anonymous read pc) and are assigned in
    registration order, so the same workload parameters always produce the
    same pcs.
    """

    def __init__(self):
        self._sites: Dict[str, int] = {}

    def site(self, name: str) -> int:
        pc = self._sites.get(name)
        if pc is None:
            pc = len(self._sites) + 1
            self._sites[name] = pc
        return pc

    @property
    def num_sites(self) -> int:
        return len(self._sites)

    def sites(self) -> Dict[str, int]:
        """Name -> pc mapping (for docs and tests)."""
        return dict(self._sites)


class Workload(ABC):
    """Base class for benchmark models.

    Subclasses define :meth:`thread_programs`; everything downstream
    (scheduler, system, harness) works through this interface.
    """

    #: benchmark name as used by the paper's tables
    name: str = ""

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        machine: Optional["MachineSpec"] = None,
    ):
        # A machine spec, when given, *is* the machine: its node count wins
        # over the bare num_nodes default (subclasses re-read
        # ``self.num_nodes`` after delegating here).
        if machine is not None:
            num_nodes = machine.num_nodes
        if num_nodes < 2:
            raise ValueError(f"workloads need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self.machine = machine
        self.seed = seed
        self.pcs = PcAllocator()
        self.rng = DeterministicRng(f"{self.name}:{seed}")

    @abstractmethod
    def thread_programs(self) -> List[Iterator[ThreadItem]]:
        """One reference-stream generator per thread (len == num_nodes)."""

    def accesses(self, quantum: int = 4) -> Iterator[Tuple[int, str, int, int]]:
        """The workload's interleaved global reference stream.

        Yields ``(node, op, address, pc)`` in the machine's memory order, as
        consumed by :meth:`repro.memory.system.MultiprocessorSystem.run`.
        """
        from repro.workloads.scheduler import interleave

        return interleave(self.thread_programs(), quantum=quantum)


@dataclass
class WorkloadScale:
    """Shared scale knobs used by several benchmark models."""

    timesteps: int = 4
    size_factor: float = 1.0

    def scaled(self, base: int) -> int:
        value = int(round(base * self.size_factor))
        return max(1, value)
