"""The multiprocessor system façade.

Bundles address space, per-node caches, directory, and protocol engine
behind the two-call interface the rest of the repo uses: feed it an access
stream, then take the sharing trace and statistics.  The module also owns
the epoch-replay entry point (:func:`replay_sharing_trace`): once a trace
is finalized, it can be pushed back through the directory at epoch
granularity -- optionally with per-event forwarding decisions -- which is
how the traffic simulator in :mod:`repro.forwarding` grounds its message
ledgers in protocol state rather than bare counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.machine import MachineSpec
from repro.memory.address import AddressSpace, HomePolicy
from repro.memory.cache import CacheConfig
from repro.memory.protocol import (
    CoherenceProtocol,
    EpochProtocol,
    EpochTransition,
    ProtocolStats,
)
from repro.trace.events import SharingTrace


@dataclass(frozen=True)
class SystemConfig:
    """Machine parameters (the reproduction's analogue of paper Table 4).

    The paper simulated 16 nodes, 64-byte lines, and 512 KB L2 caches.  Our
    workloads are scaled down (EXPERIMENTS.md), so the default cache is
    scaled proportionally to preserve the capacity-to-working-set ratio that
    shapes sharing traces; pass ``cache=CacheConfig()`` for paper-scale
    caches.
    """

    num_nodes: int = 16
    cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=4)
    )
    home_policy: HomePolicy = HomePolicy.FIRST_TOUCH
    #: MESI variant: read misses to uncached blocks are granted
    #: exclusive-clean, making read-then-write by a sole owner silent.
    #: Default False (MSI) -- the workload calibration in EXPERIMENTS.md
    #: assumes MSI, where every first write is a traced coherence store.
    use_exclusive_state: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")


class MultiprocessorSystem:
    """N nodes, N caches, a directory, and an MSI protocol between them.

    Pass ``machine`` to build the whole system from one
    :class:`~repro.machine.MachineSpec`; the spec then rides along on every
    finalized trace.  ``config`` remains the memory-layer view (and wins if
    both are given, provided the node counts agree).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        trace_name: str = "trace",
        machine: Optional[MachineSpec] = None,
    ):
        if config is None:
            config = machine.system_config() if machine is not None else SystemConfig()
        if machine is not None and machine.num_nodes != config.num_nodes:
            raise ValueError(
                f"machine spec is for {machine.num_nodes} nodes, "
                f"config for {config.num_nodes}"
            )
        self.config = config
        self.machine = machine
        self.address_space = AddressSpace(
            num_nodes=config.num_nodes,
            line_size=config.cache.line_size,
            home_policy=config.home_policy,
        )
        self.protocol = CoherenceProtocol(
            num_nodes=config.num_nodes,
            cache_config=config.cache,
            address_space=self.address_space,
            trace_name=trace_name,
            use_exclusive_state=config.use_exclusive_state,
            machine=machine,
        )

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def stats(self) -> ProtocolStats:
        return self.protocol.stats

    def read(self, node: int, address: int) -> None:
        self.protocol.read(node, address)

    def write(self, node: int, address: int, pc: int) -> None:
        self.protocol.write(node, address, pc)

    def run(self, accesses: Iterable[Tuple[int, str, int, int]]) -> None:
        """Process a stream of ``(node, op, address, pc)`` references.

        ``op`` is ``"R"`` or ``"W"``.  The stream's order *is* the machine's
        global memory order (the scheduler in :mod:`repro.workloads` decides
        the interleaving).
        """
        self.protocol.run(accesses)

    def finalize_trace(self) -> SharingTrace:
        """End the run and return its sharing trace (once, after the last reference)."""
        return self.protocol.finalize_trace()

    def replay_trace(
        self,
        trace,
        predictions: Optional[Sequence[int]] = None,
        check_invariants: bool = False,
    ) -> Tuple[EpochProtocol, List[EpochTransition]]:
        """Replay a finalized trace at epoch granularity on this machine size."""
        if trace.num_nodes != self.num_nodes:
            raise ValueError(
                f"trace is for {trace.num_nodes} nodes, system for {self.num_nodes}"
            )
        return replay_sharing_trace(
            trace, predictions=predictions, check_invariants=check_invariants
        )


def replay_sharing_trace(
    trace,
    predictions: Optional[Sequence[int]] = None,
    check_invariants: bool = False,
) -> Tuple[EpochProtocol, List[EpochTransition]]:
    """Replay a finalized sharing trace through the epoch-level directory.

    Args:
        trace: a :class:`~repro.trace.events.SharingTrace`.
        predictions: one forwarding bitmap per event (the nodes to push the
            written line to); ``None`` replays the pure invalidate baseline.
        check_invariants: assert SWMR and staging discipline after every
            event (slow; used by the property-test suite).

    Returns:
        The finished :class:`EpochProtocol` (with its replay stats and final
        block states) and the per-event :class:`EpochTransition` list.
    """
    if predictions is not None and len(predictions) != len(trace):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(trace)} events"
        )
    protocol = EpochProtocol(trace.num_nodes)
    transitions: List[EpochTransition] = []
    for position in range(len(trace)):
        forward_to = int(predictions[position]) if predictions is not None else 0
        transitions.append(protocol.apply(trace[position], forward_to=forward_to))
        if check_invariants:
            protocol.check_invariants()
    return protocol, transitions
