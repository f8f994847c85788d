"""Two-level adaptive (PAs) sharing prediction (paper Section 3.2).

Following Yeh & Patt, each predictor entry holds, *per potential reader*:

* a history register of ``depth`` bits recording whether that node read the
  block in each of the last ``depth`` epochs (newest bit in the LSB), and
* a pattern table of ``2**depth`` saturating 2-bit counters indexed by the
  history register.

The prediction for node *n* is the high bit of the counter its history
register selects; the aggregate over all nodes is the predicted bitmap.
Feedback updates both levels: the counter selected by the *old* history is
bumped toward the observed bit, then the bit is shifted into the register.

Cost per entry is ``N * depth`` history bits plus ``N * 2**depth`` 2-bit
counters, which is why the paper caps PAs index widths lower than the flat
schemes (Figure 8 uses a 12-bit maximum index).
"""

from __future__ import annotations

from typing import List

from repro.core.functions import PredictionFunction

#: Counters start weakly-not-shared.  Sharing prevalence is ~9%, so a fresh
#: counter should lean toward "not a reader" but flip after one observation
#: of sharing followed by another.
_COUNTER_INIT = 1
_COUNTER_MAX = 3


class PAsEntry:
    """Mutable state of one PAs table entry.

    ``histories[n]`` is node *n*'s history register; ``counters`` is a flat
    list indexed by ``(n << depth) | history`` -- flat indexing keeps the
    per-event inner loop cheap, and this loop dominates PAs evaluation time.
    """

    __slots__ = ("histories", "counters")

    def __init__(self, num_nodes: int, depth: int):
        self.histories: List[int] = [0] * num_nodes
        self.counters = bytearray([_COUNTER_INIT]) * (num_nodes << depth)


class PAsFunction(PredictionFunction):
    """Per-node two-level adaptive prediction over sharing bits."""

    name = "pas"

    def __init__(self, depth: int, num_nodes: int):
        super().__init__(depth=depth, num_nodes=num_nodes)
        self._history_mask = (1 << depth) - 1
        self._nodes = range(num_nodes)

    def new_entry(self) -> PAsEntry:
        return PAsEntry(self.num_nodes, self.depth)

    def predict(self, entry: PAsEntry) -> int:
        histories = entry.histories
        counters = entry.counters
        depth = self.depth
        prediction = 0
        for node in self._nodes:
            if counters[(node << depth) | histories[node]] >= 2:
                prediction |= 1 << node
        return prediction

    def update(self, entry: PAsEntry, feedback: int) -> None:
        histories = entry.histories
        counters = entry.counters
        depth = self.depth
        mask = self._history_mask
        counter_max = _COUNTER_MAX
        for node in self._nodes:
            history = histories[node]
            slot = (node << depth) | history
            if (feedback >> node) & 1:
                if counters[slot] < counter_max:
                    counters[slot] += 1
                histories[node] = ((history << 1) | 1) & mask
            else:
                if counters[slot] > 0:
                    counters[slot] -= 1
                histories[node] = (history << 1) & mask

    def entry_bits(self) -> int:
        return self.num_nodes * self.depth + self.num_nodes * (1 << self.depth) * 2
