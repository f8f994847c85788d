"""Full-map directory state (DiriNB-style, one presence bit per node).

Each block that has ever been referenced has a :class:`DirectoryEntry`
recording protocol state (uncached / shared / exclusive), the owner, and the
sharer bitmap.  The paper's access bits (Section 3.4), which let the
directory tell true readers from forwarding pollution, are the truth
bitmaps of the epoch builder (:mod:`repro.trace.builder`): the protocol
reports every read miss and coherence store to it.

Eviction of a reader's cached copy removes its presence bit but *not* its
access bit: it did read the value, which is what the predictors must
learn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.util.bitmaps import iter_set_bits, popcount


class DirState(Enum):
    """Protocol state of a block at its home directory."""

    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class DirectoryEntry:
    """Directory record for one block."""

    block: int
    home: int
    state: DirState = DirState.UNCACHED
    owner: Optional[int] = None
    sharers: int = 0  # presence bitmap of caches holding a copy

    def add_sharer(self, node: int) -> None:
        self.sharers |= 1 << node

    def remove_sharer(self, node: int) -> None:
        self.sharers &= ~(1 << node)

    def has_sharer(self, node: int) -> bool:
        return bool(self.sharers & (1 << node))

    @property
    def num_sharers(self) -> int:
        """How many caches hold a copy (directory pressure metric)."""
        return popcount(self.sharers)

    def sharer_nodes(self) -> List[int]:
        """Node ids holding a copy, in increasing order."""
        return list(iter_set_bits(self.sharers))


@dataclass
class Directory:
    """The machine's directories, viewed as one table keyed by block.

    Physically each entry lives at its home node; since the study never
    models network timing, a single map with per-entry ``home`` fields is an
    exact equivalent (the same abstraction the paper applies to predictors
    in Section 3.1).
    """

    entries: Dict[int, DirectoryEntry] = field(default_factory=dict)

    def entry(self, block: int, home: int) -> DirectoryEntry:
        """Get or create the entry for a block (home fixed at creation)."""
        existing = self.entries.get(block)
        if existing is None:
            existing = DirectoryEntry(block=block, home=home)
            self.entries[block] = existing
        return existing

    def get(self, block: int) -> Optional[DirectoryEntry]:
        return self.entries.get(block)

    def __len__(self) -> int:
        return len(self.entries)
