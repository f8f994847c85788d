"""Set-associative LRU caches.

One cache per node at the coherence point (the paper's L2).  The cache
tracks presence and MSI state per resident block; everything else (sharer
sets, epoch bookkeeping) lives in the directory.  Lines are identified by
block number, so the cache is geometry-only: ``sets x ways`` of block slots
with true-LRU replacement via per-set ordered dicts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Coherence states for resident lines.  INVALID is represented by absence;
#: EXCLUSIVE (clean, sole copy) is used only when the system runs the MESI
#: protocol variant.
SHARED = 1
MODIFIED = 2
EXCLUSIVE = 3


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one node's coherence cache.

    The paper's full-scale configuration is 512 KB, 4-way, 64-byte lines;
    traces in this repo default to a proportionally scaled-down cache (see
    EXPERIMENTS.md) so that scaled-down workloads keep the same
    capacity-miss behaviour.
    """

    size_bytes: int = 512 * 1024
    associativity: int = 4
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {self.associativity}")
        if self.size_bytes % (self.line_size * self.associativity):
            raise ValueError(
                "size_bytes must be a multiple of line_size * associativity "
                f"({self.size_bytes} % {self.line_size * self.associativity})"
            )
        num_sets = self.size_bytes // (self.line_size * self.associativity)
        if num_sets & (num_sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {num_sets}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size


class SetAssociativeCache:
    """True-LRU set-associative cache over block numbers.

    ``sets[block & set_mask]`` is the ordered dict (block -> state, least
    recently used first) holding ``block``'s set; the protocol's hit paths
    read it directly instead of going through the methods below.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.set_mask = config.num_sets - 1
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]

    def _set_of(self, block: int) -> OrderedDict:
        return self.sets[block & self.set_mask]

    def get_state(self, block: int) -> Optional[int]:
        """The block's MSI state, or ``None`` when not resident. No LRU effect."""
        return self._set_of(block).get(block)

    def touch(self, block: int) -> None:
        """Record a use of a resident block (moves it to MRU)."""
        cache_set = self._set_of(block)
        cache_set.move_to_end(block)

    def set_state(self, block: int, state: int) -> None:
        """Change the state of a resident block (e.g. M -> S downgrade)."""
        cache_set = self._set_of(block)
        if block not in cache_set:
            raise KeyError(f"block {block} is not resident")
        cache_set[block] = state

    def insert(self, block: int, state: int) -> Optional[Tuple[int, int]]:
        """Bring a block in with the given state, evicting LRU if needed.

        Returns the evicted ``(block, state)`` pair, or ``None`` when no
        eviction was necessary.  Inserting an already-resident block just
        updates its state and recency.
        """
        cache_set = self._set_of(block)
        if block in cache_set:
            cache_set[block] = state
            cache_set.move_to_end(block)
            return None
        victim = None
        if len(cache_set) >= self.config.associativity:
            victim = cache_set.popitem(last=False)
        cache_set[block] = state
        return victim

    def invalidate(self, block: int) -> Optional[int]:
        """Drop a block; returns its state, or ``None`` if absent."""
        return self._set_of(block).pop(block, None)

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (for invariant checks in tests)."""
        blocks: List[int] = []
        for cache_set in self.sets:
            blocks.extend(cache_set.keys())
        return blocks

    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self.sets)
