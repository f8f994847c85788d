"""The MSI invalidation protocol engine, and the epoch-level replay path.

The first half of this module processes per-node reads and writes against
the caches and directory, generating the machine's coherence behaviour:

* **read miss** — fetch a shared copy; a modified owner is downgraded to
  shared (sharing writeback).  The read is reported to the epoch builder,
  which sets the reader's access bit in the open epoch (unless it is the
  epoch's own writer).
* **write** — silent if the writer already holds the line modified;
  otherwise a coherence store (write miss, or write fault when the writer
  holds a shared copy), which invalidates every other copy, closes the
  block's epoch, and opens a new one.  These coherence stores are exactly
  the paper's prediction events.
* **replacement** — LRU victim is written back (modified) or silently
  dropped with a replacement hint (shared).  Evicted readers keep their
  epoch access bits: they truly read the data.

The engine is timing-free; requests complete atomically in program
interleaving order, which is all the sharing study needs (paper Section 5.1).

The second half is :class:`EpochProtocol`, the epoch-granularity replay of
a *finalized* sharing trace with an optional data-forwarding path.  Where
:class:`CoherenceProtocol` consumes raw accesses and produces a trace, the
replay consumes the trace's events (one per coherence store, each carrying
its epoch's eventual reader set) and reproduces the directory's epoch
lifecycle -- invalidate the old copies, install the new owner, serve the
epoch's readers -- while additionally pushing the written line to any
predicted readers.  Forwarded copies sit in a staging buffer until the
recipient actually reads (then they become ordinary shared copies) or the
epoch closes (then they self-invalidate silently: the staging buffer keeps
no access rights, so dropping a stale forward costs no message).  That
choice keeps invalidation traffic identical between the baseline and
forwarding runs, which is what makes the traffic ledgers of
:mod:`repro.forwarding` exactly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.machine import MachineSpec
from repro.memory.address import AddressSpace
from repro.memory.cache import EXCLUSIVE, MODIFIED, SHARED, CacheConfig, SetAssociativeCache
from repro.memory.directory import Directory, DirState
from repro.trace.builder import ColumnCollector, StreamingTraceBuilder
from repro.trace.events import SharingTrace
from repro.util.bitmaps import iter_set_bits, popcount


@dataclass
class ProtocolStats:
    """Counters for Table-5-style statistics and protocol sanity checks."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    silent_writes: int = 0
    exclusive_grants: int = 0  # MESI only: read misses granted E
    exclusive_upgrades: int = 0  # MESI only: silent E -> M writes
    write_misses: int = 0
    write_upgrades: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0
    replacements: int = 0
    # static-store tracking: distinct store pcs per node, and the subset
    # that generated prediction events
    store_pcs_by_node: List[Set[int]] = field(default_factory=list)
    predicted_pcs_by_node: List[Set[int]] = field(default_factory=list)

    @property
    def coherence_store_misses(self) -> int:
        """Stores that performed a coherence action (= prediction events)."""
        return self.write_misses + self.write_upgrades

    def max_static_stores_per_node(self) -> int:
        return max((len(pcs) for pcs in self.store_pcs_by_node), default=0)

    def max_predicted_stores_per_node(self) -> int:
        return max((len(pcs) for pcs in self.predicted_pcs_by_node), default=0)


class CoherenceProtocol:
    """MSI + full-map directory over one cache per node."""

    def __init__(
        self,
        num_nodes: int,
        cache_config: CacheConfig,
        address_space: AddressSpace,
        trace_name: str = "trace",
        use_exclusive_state: bool = False,
        machine: "MachineSpec | None" = None,
    ):
        if address_space.num_nodes != num_nodes:
            raise ValueError(
                f"address space is for {address_space.num_nodes} nodes, protocol for {num_nodes}"
            )
        if address_space.line_size != cache_config.line_size:
            raise ValueError(
                f"line size mismatch: address space {address_space.line_size}, "
                f"cache {cache_config.line_size}"
            )
        self.num_nodes = num_nodes
        self.use_exclusive_state = use_exclusive_state
        self.machine = machine
        self.address_space = address_space
        self.caches = [SetAssociativeCache(cache_config) for _ in range(num_nodes)]
        self.directory = Directory()
        self._collected = ColumnCollector(num_nodes, name=trace_name, machine=machine)
        self.builder = StreamingTraceBuilder(self._collected)
        self.stats = ProtocolStats(
            store_pcs_by_node=[set() for _ in range(num_nodes)],
            predicted_pcs_by_node=[set() for _ in range(num_nodes)],
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def run(self, accesses: Iterable[Tuple[int, str, int, int]]) -> None:
        """Process ``(node, op, address, pc)`` references in stream order.

        Most references hit: a load of a resident line, or a store to a line
        the node holds MODIFIED.  Each hit is one cache-set lookup and one
        ``move_to_end`` here, with its counters kept in locals and added to
        :attr:`stats` when the stream ends or raises; everything else goes
        to :meth:`_read_miss` or :meth:`_store`.
        """
        cache_sets = [cache.sets for cache in self.caches]
        set_mask = self.caches[0].set_mask
        address_space = self.address_space
        offset_bits = address_space.offset_bits
        store_pcs = self.stats.store_pcs_by_node
        read_miss = self._read_miss
        store = self._store
        reads = read_hits = writes = silent_writes = 0
        try:
            for node, op, address, pc in accesses:
                if address < 0:
                    address_space.block_of(address)  # raises: a negative address
                block = address >> offset_bits
                cache_set = cache_sets[node][block & set_mask]
                if op == "R":
                    reads += 1
                    if block in cache_set:
                        cache_set.move_to_end(block)
                        read_hits += 1
                    else:
                        read_miss(node, block)
                elif op == "W":
                    writes += 1
                    store_pcs[node].add(pc)
                    state = cache_set.get(block)
                    if state == MODIFIED:
                        cache_set.move_to_end(block)
                        silent_writes += 1
                    else:
                        store(node, block, pc, state)
                else:
                    raise ValueError(f"unknown op {op!r}; expected 'R' or 'W'")
        finally:
            stats = self.stats
            stats.reads += reads
            stats.read_hits += read_hits
            stats.writes += writes
            stats.silent_writes += silent_writes

    def read(self, node: int, address: int) -> None:
        """Process a load by ``node``."""
        self.run(((node, "R", address, 0),))

    def write(self, node: int, address: int, pc: int) -> None:
        """Process a store by ``node`` under static store ``pc``."""
        self.run(((node, "W", address, pc),))

    def _read_miss(self, node: int, block: int) -> None:
        """A load of a line ``node`` does not hold."""
        self.stats.read_misses += 1
        home = self.address_space.home_of(block, node)
        entry = self.directory.entry(block, home)

        fill_state = SHARED
        if entry.state is DirState.EXCLUSIVE and entry.owner != node:
            # Owner supplies data and downgrades to shared; a dirty copy is
            # written back, a clean E copy just drops to S.
            owner_cache = self.caches[entry.owner]
            owner_state = owner_cache.get_state(block)
            if owner_state == MODIFIED:
                owner_cache.set_state(block, SHARED)
                self.stats.writebacks += 1
            elif owner_state == EXCLUSIVE:
                owner_cache.set_state(block, SHARED)
            entry.state = DirState.SHARED
        elif entry.state is DirState.UNCACHED:
            if self.use_exclusive_state and entry.sharers == 0:
                # MESI: the sole reader of an uncached block gets the line
                # exclusive-clean, so a subsequent write by it is silent.
                entry.state = DirState.EXCLUSIVE
                entry.owner = node
                fill_state = EXCLUSIVE
                self.stats.exclusive_grants += 1
            else:
                entry.state = DirState.SHARED
                entry.owner = None

        entry.add_sharer(node)
        self.builder.add_reader(block, node)
        self._fill(node, block, fill_state)

    def _store(self, node: int, block: int, pc: int, state: Optional[int]) -> None:
        """A store by ``node`` to a line it holds in ``state`` (not MODIFIED)."""
        if state == EXCLUSIVE:
            # MESI: silent upgrade -- no coherence action, no prediction
            # event, and (as on real hardware) the directory never learns a
            # new value was created until the next remote access.
            cache = self.caches[node]
            cache.set_state(block, MODIFIED)
            cache.touch(block)
            self.stats.silent_writes += 1
            self.stats.exclusive_upgrades += 1
            return

        if state == SHARED:
            self.stats.write_upgrades += 1
        else:
            self.stats.write_misses += 1
        self.stats.predicted_pcs_by_node[node].add(pc)

        home = self.address_space.home_of(block, node)
        entry = self.directory.entry(block, home)

        # Invalidate every other copy in the machine.
        for sharer in iter_set_bits(entry.sharers & ~(1 << node)):
            invalidated = self.caches[sharer].invalidate(block)
            if invalidated is not None:
                self.stats.invalidations_sent += 1
                if invalidated == MODIFIED:
                    self.stats.writebacks += 1

        # Close the previous epoch, open the new one (the prediction event).
        self.builder.add_event(writer=node, pc=pc, home=home, block=block)
        entry.state = DirState.EXCLUSIVE
        entry.owner = node
        entry.sharers = 1 << node
        self._fill(node, block, MODIFIED)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fill(self, node: int, block: int, state: int) -> None:
        """Install a line in ``node``'s cache, handling the LRU victim."""
        victim = self.caches[node].insert(block, state)
        if victim is None:
            return
        victim_block, victim_state = victim
        self.stats.replacements += 1
        victim_entry = self.directory.get(victim_block)
        if victim_entry is None:  # pragma: no cover - cached blocks have entries
            raise AssertionError(f"cache held block {victim_block} unknown to directory")
        victim_entry.remove_sharer(node)
        if victim_state == MODIFIED:
            # Dirty writeback: home memory now holds the value; nobody caches it.
            self.stats.writebacks += 1
            victim_entry.state = DirState.UNCACHED
            victim_entry.owner = None
        elif victim_entry.sharers == 0:
            # Replacement hint emptied the sharer set.
            victim_entry.state = DirState.UNCACHED
            victim_entry.owner = None
        # Note: the builder's access bits survive eviction on purpose;
        # sharing epochs are delimited by writes, not by residency.

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def finalize_trace(self) -> SharingTrace:
        """End the trace: close the open epochs, return the checked trace.

        A run has one trace; call this once, after its last reference.
        """
        self.builder.finalize()
        return self._collected.trace()

    def check_invariants(self) -> None:
        """Cross-check caches against the directory (used by tests).

        * single-writer: a modified line is cached exactly once;
        * presence: every cached copy has its directory presence bit set,
          and vice versa;
        * state agreement: EXCLUSIVE entries have a modified owner copy,
          SHARED entries have no modified copies.
        """
        cached_state: Dict[Tuple[int, int], int] = {}
        for node, cache in enumerate(self.caches):
            for block in cache.resident_blocks():
                cached_state[(node, block)] = cache.get_state(block)

        for (node, block), state in cached_state.items():
            entry = self.directory.get(block)
            if entry is None:
                raise AssertionError(f"node {node} caches block {block} with no entry")
            if not entry.has_sharer(node):
                raise AssertionError(
                    f"node {node} caches block {block} without a presence bit"
                )
            if state in (MODIFIED, EXCLUSIVE):
                if entry.state is not DirState.EXCLUSIVE or entry.owner != node:
                    raise AssertionError(
                        f"exclusive/modified copy of block {block} at node {node} but "
                        f"directory says {entry.state}/{entry.owner}"
                    )

        for block, entry in self.directory.entries.items():
            for node in iter_set_bits(entry.sharers):
                if (node, block) not in cached_state:
                    raise AssertionError(
                        f"directory lists node {node} for block {block} but cache lacks it"
                    )
            if entry.state is DirState.EXCLUSIVE:
                if entry.owner is None or cached_state.get((entry.owner, block)) not in (
                    MODIFIED,
                    EXCLUSIVE,
                ):
                    raise AssertionError(
                        f"EXCLUSIVE block {block} lacks an owner copy in M or E"
                    )
            exclusive_holders = [
                node
                for node in iter_set_bits(entry.sharers)
                if cached_state.get((node, block)) in (MODIFIED, EXCLUSIVE)
            ]
            if entry.state is not DirState.EXCLUSIVE and exclusive_holders:
                raise AssertionError(
                    f"block {block} in state {entry.state} has exclusive copies at "
                    f"{exclusive_holders}"
                )
            if len(exclusive_holders) > 1:
                raise AssertionError(
                    f"block {block} has multiple exclusive copies at {exclusive_holders}"
                )


# ----------------------------------------------------------------------
# Epoch-level replay with a forwarding path
# ----------------------------------------------------------------------


@dataclass
class EpochTransition:
    """What one replayed event did to its block (all sets are bitmaps).

    ``invalidated`` covers the previous epoch's legitimate copies (its
    writer and readers, minus the new writer if it already held one);
    ``expired_forwards`` are staged copies that were never read and
    self-invalidate without traffic.  ``demand_readers`` +
    ``consumed_forwards`` partition the new epoch's true reader set by how
    each reader obtained the line.
    """

    writer: int
    block: int
    invalidated: int = 0
    expired_forwards: int = 0
    forwarded: int = 0
    consumed_forwards: int = 0
    demand_readers: int = 0


@dataclass
class EpochReplayStats:
    """Aggregate counters over one :class:`EpochProtocol` replay."""

    events: int = 0
    copies_invalidated: int = 0
    forwards_pushed: int = 0
    forwards_consumed: int = 0
    forwards_expired: int = 0
    demand_reads: int = 0


@dataclass
class _BlockEpochState:
    """Per-block directory view between replayed events."""

    owner: int
    holders: int  # presence bitmap of real (readable) copies, incl. owner
    staged: int  # forwarded-but-unread copies; disjoint from holders
    modified: bool  # owner holds the only copy, dirty


class EpochProtocol:
    """Directory replay of sharing events, with an optional forwarding path.

    Each :meth:`apply_event` call processes one coherence store *and* the
    whole epoch it opens: prior copies are invalidated, the writer becomes
    the modified owner, predicted readers (``forward_to``) receive staged
    copies, and the epoch's true readers then either consume their staged
    copy or demand-fetch from the owner (downgrading it to shared).  With
    ``forward_to == 0`` this is exactly the baseline invalidate protocol.

    The replay validates the trace's epoch linkage as it goes (the
    directory's reader view at each close must equal the event's
    invalidation bitmap) and :meth:`check_invariants` asserts SWMR --
    single writer *or* multiple readers, never both -- plus staging
    discipline after any event.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.blocks: Dict[int, _BlockEpochState] = {}
        self.stats = EpochReplayStats()

    def apply_event(
        self,
        writer: int,
        block: int,
        truth: int,
        forward_to: int = 0,
        inval: int = 0,
        has_inval: bool = False,
    ) -> EpochTransition:
        """Replay one event and the epoch it opens; returns the transition."""
        writer_bit = 1 << writer
        state = self.blocks.get(block)
        if state is None:
            if has_inval:
                raise ValueError(
                    f"event on block {block} closes an epoch the replay never saw"
                )
            invalidated = 0
            expired = 0
        else:
            readers_seen = state.holders & ~(1 << state.owner)
            if has_inval and readers_seen != inval:
                raise ValueError(
                    f"block {block}: directory saw readers {readers_seen:#x} "
                    f"but the closing event invalidates {inval:#x}"
                )
            invalidated = state.holders & ~writer_bit
            expired = state.staged

        # Open the new epoch: the writer is the sole, modified owner...
        push = forward_to & ~writer_bit
        consumed = push & truth
        demand = truth & ~push
        # ...then serve the epoch's readers: staged copies are consumed in
        # place, everyone else demand-fetches; any remote read downgrades
        # the owner to shared.
        if state is None:
            state = _BlockEpochState(
                owner=writer, holders=0, staged=0, modified=False
            )
            self.blocks[block] = state
        state.owner = writer
        state.holders = writer_bit | truth
        state.staged = push & ~truth
        state.modified = truth == 0

        stats = self.stats
        stats.events += 1
        stats.copies_invalidated += popcount(invalidated)
        stats.forwards_pushed += popcount(push)
        stats.forwards_consumed += popcount(consumed)
        stats.forwards_expired += popcount(expired)
        stats.demand_reads += popcount(demand)
        return EpochTransition(
            writer=writer,
            block=block,
            invalidated=invalidated,
            expired_forwards=expired,
            forwarded=push,
            consumed_forwards=consumed,
            demand_readers=demand,
        )

    def apply(self, event, forward_to: int = 0) -> EpochTransition:
        """Replay one :class:`~repro.trace.events.SharingEvent` record."""
        return self.apply_event(
            event.writer,
            event.block,
            event.truth,
            forward_to=forward_to,
            inval=event.inval,
            has_inval=event.has_inval,
        )

    def check_invariants(self) -> None:
        """Assert SWMR and staging discipline on every replayed block.

        * a modified block is held by exactly its owner (single writer);
        * a block with readers is not modified (multiple readers are all
          shared);
        * the owner always holds a copy of its block;
        * staged (forwarded-but-unread) copies never overlap real copies
          and the owner never stages its own line.
        """
        for block, state in self.blocks.items():
            owner_bit = 1 << state.owner
            if not state.holders & owner_bit:
                raise AssertionError(
                    f"block {block}: owner {state.owner} holds no copy"
                )
            if state.modified and state.holders != owner_bit:
                raise AssertionError(
                    f"block {block}: modified but holders {state.holders:#x} != "
                    f"owner bit {owner_bit:#x} (SWMR violated)"
                )
            if state.staged & state.holders:
                raise AssertionError(
                    f"block {block}: staged copies {state.staged:#x} overlap "
                    f"holders {state.holders:#x}"
                )
            if state.staged & owner_bit:
                raise AssertionError(
                    f"block {block}: owner {state.owner} staged its own line"
                )
