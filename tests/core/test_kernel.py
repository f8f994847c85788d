"""Direct unit tests for :class:`PredictorKernel` update-timing semantics.

The kernel is the normative statement of the DIRECT / FORWARDED / ORDERED
feedback-timing rules (DESIGN.md section 3); everything else in the system
-- the vectorized labelling, the compiled backends -- is held to it
differentially.  These tests pin the *edge* semantics directly, with a
recording ops object that logs every ``new_entry`` / ``update`` /
``predict`` call, so a regression shows up as a wrong call sequence rather
than a downstream bit mismatch:

* DIRECT: the first event on a block closes no epoch and performs no
  update;
* FORWARDED: when the predicting and closing entries differ, the closing
  event routes feedback to the entry that *predicted* the epoch, before
  its own prediction;
* ORDERED: an entry's feedback lands after its own prediction but before
  the entry's next use.

``PasOps`` (the flat-state PAs entry implementation the python kernel
backend runs) is unit-tested below and held differentially to the
:class:`~repro.core.twolevel.PAsFunction` oracle under all three modes.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import KernelStream, PasOps, PredictorKernel
from repro.core.schemes import parse_scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import compute_keys
from tests.conftest import make_random_trace


class RecordingOps:
    """Entries are labeled dicts; every kernel callback appends to a log.

    ``predict`` returns the union of all feedback the entry has received,
    so prediction values double as a record of *which* feedback reached the
    entry by prediction time.
    """

    def __init__(self):
        self.log = []
        self.entries = 0

    def new_entry(self):
        label = f"entry{self.entries}"
        self.entries += 1
        self.log.append(("new", label))
        return {"label": label, "seen": []}

    def update(self, entry, feedback):
        entry["seen"].append(feedback)
        self.log.append(("update", entry["label"], feedback))

    def predict(self, entry):
        self.log.append(("predict", entry["label"]))
        prediction = 0
        for feedback in entry["seen"]:
            prediction |= feedback
        return prediction


def run(mode, keys, blocks, has_inval, inval, truth):
    ops = RecordingOps()
    kernel = PredictorKernel(mode, ops)
    predictions = list(kernel.run(keys, blocks, has_inval, inval, truth))
    return predictions, ops.log


class TestDirectTiming:
    def test_first_event_on_a_block_performs_no_update(self):
        # Two events, same entry, same block.  Event 0 opens the block's
        # first epoch: nothing to deliver, the fresh entry predicts empty.
        # Event 1 closes it: inval enters the consulted entry pre-predict.
        predictions, log = run(
            UpdateMode.DIRECT,
            keys=[0, 0],
            blocks=[5, 5],
            has_inval=[False, True],
            inval=[0, 0b0110],
            truth=[0b0110, 0b0001],
        )
        assert predictions == [0, 0b0110]
        assert log == [
            ("new", "entry0"),
            ("predict", "entry0"),
            ("update", "entry0", 0b0110),
            ("predict", "entry0"),
        ]

    def test_first_event_per_block_interleaved(self):
        # Interleaved blocks: *each* block's first event skips the update,
        # even when the entry already exists from another block's traffic.
        predictions, log = run(
            UpdateMode.DIRECT,
            keys=[0, 0, 0],
            blocks=[1, 2, 1],
            has_inval=[False, False, True],
            inval=[0, 0, 0b1000],
            truth=[0b1000, 0b0100, 0],
        )
        assert predictions == [0, 0, 0b1000]
        # exactly one update across the three events: block 2's first (and
        # only) event delivered nothing
        assert [record for record in log if record[0] == "update"] == [
            ("update", "entry0", 0b1000)
        ]


class TestForwardedTiming:
    def test_feedback_routes_to_the_predicting_entry(self):
        # Event 0 predicts block 7's epoch under key 1; event 1 closes that
        # epoch under key 2.  The feedback must reach entry0 (which made
        # the prediction) -- not entry1 (which consults the table now) --
        # and must land before event 1's own prediction.
        predictions, log = run(
            UpdateMode.FORWARDED,
            keys=[1, 2],
            blocks=[7, 7],
            has_inval=[False, True],
            inval=[0, 0b1010],
            truth=[0b1010, 0b0001],
        )
        # entry1 never received anything: the close belonged to entry0
        assert predictions == [0, 0]
        assert log == [
            ("new", "entry0"),
            ("predict", "entry0"),
            ("new", "entry1"),
            ("update", "entry0", 0b1010),
            ("predict", "entry1"),
        ]

    def test_routed_feedback_is_visible_on_the_entrys_next_use(self):
        # Same shape plus a third event back under key 1: entry0's routed
        # feedback from event 1 must show in entry0's event-2 prediction,
        # while event 2's own close routes to entry1 (the new pending key).
        predictions, log = run(
            UpdateMode.FORWARDED,
            keys=[1, 2, 1],
            blocks=[7, 7, 7],
            has_inval=[False, True, True],
            inval=[0, 0b1010, 0b0100],
            truth=[0b1010, 0b0100, 0],
        )
        assert predictions == [0, 0, 0b1010]
        assert [record for record in log if record[0] == "update"] == [
            ("update", "entry0", 0b1010),
            ("update", "entry1", 0b0100),
        ]

    def test_self_closing_entry_sees_feedback_before_predicting(self):
        # Degenerate case: predicting and closing entries coincide.  The
        # delivery still happens pre-predict, so same-entry timing matches
        # DIRECT by construction.
        predictions, _ = run(
            UpdateMode.FORWARDED,
            keys=[3, 3],
            blocks=[0, 0],
            has_inval=[False, True],
            inval=[0, 0b0011],
            truth=[0b0011, 0],
        )
        assert predictions == [0, 0b0011]


class TestOrderedTiming:
    def test_feedback_lands_after_own_prediction_before_next_use(self):
        # truth[0] must NOT appear in prediction 0 (feedback follows the
        # prediction) but MUST appear in prediction 1 (the entry's next
        # use) -- even though in FORWARDED/DIRECT it would still be in
        # flight because nothing closed the epoch.
        predictions, log = run(
            UpdateMode.ORDERED,
            keys=[3, 3],
            blocks=[0, 0],
            has_inval=[False, False],
            inval=[0, 0],
            truth=[0b0011, 0b0100],
        )
        assert predictions == [0, 0b0011]
        assert log == [
            ("new", "entry0"),
            ("predict", "entry0"),
            ("update", "entry0", 0b0011),
            ("predict", "entry0"),
            ("update", "entry0", 0b0100),
        ]

    def test_inval_columns_are_ignored(self):
        # ORDERED is the idealized scheme: feedback comes from truth, and
        # the inval/has_inval columns (what the realizable modes consume)
        # must not be delivered at all.
        predictions, log = run(
            UpdateMode.ORDERED,
            keys=[0, 0],
            blocks=[4, 4],
            has_inval=[False, True],
            inval=[0, 0b1111],
            truth=[0b0001, 0b0010],
        )
        assert predictions == [0, 0b0001]
        assert 0b1111 not in [
            record[2] for record in log if record[0] == "update"
        ]


class TestTableIdentity:
    def test_distinct_keys_get_distinct_entries(self):
        predictions, log = run(
            UpdateMode.DIRECT,
            keys=[0, 1, 0],
            blocks=[0, 1, 0],
            has_inval=[False, False, True],
            inval=[0, 0, 0b0010],
            truth=[0b0010, 0, 0],
        )
        assert [record[1] for record in log if record[0] == "new"] == [
            "entry0",
            "entry1",
        ]
        # key 0's entry accumulated feedback; key 1's stayed fresh
        assert predictions == [0, 0, 0b0010]

    def test_state_does_not_carry_across_kernels(self):
        # One kernel instance is one trace run: a fresh kernel starts with
        # an empty table even when the same ops *class* is reused.
        columns = dict(
            keys=[0, 0],
            blocks=[0, 0],
            has_inval=[False, True],
            inval=[0, 0b0001],
            truth=[0b0001, 0],
        )
        first, _ = run(UpdateMode.DIRECT, **columns)
        second, _ = run(UpdateMode.DIRECT, **columns)
        assert first == second == [0, 0b0001]


# ----------------------------------------------------------------------
# PasOps: the flat-state PAs entry implementation
# ----------------------------------------------------------------------


class TestPasOps:
    def test_fresh_entry_predicts_nothing(self):
        # counters initialize to 1 (weakly not-sharing): below the >=2
        # prediction threshold for every node and history.
        ops = PasOps(num_nodes=4, depth=2)
        assert ops.predict(ops.new_entry()) == 0

    def test_one_positive_feedback_reaches_threshold(self):
        # history 0 counter goes 1 -> 2 (predict), and the node's history
        # register shifts to 1, whose counter is still 1 (no predict).
        ops = PasOps(num_nodes=2, depth=1)
        entry = ops.new_entry()
        ops.update(entry, 0b01)
        histories, counters = entry
        assert histories == [1, 0]
        assert counters[(0 << 1) | 0] == 2
        # node 0 now indexes history=1 whose counter is untouched
        assert ops.predict(entry) == 0
        # a second positive round under history=1 trains that slot too
        ops.update(entry, 0b01)
        assert ops.predict(entry) & 0b01

    def test_counters_saturate_at_bounds(self):
        ops = PasOps(num_nodes=1, depth=1)
        entry = ops.new_entry()
        for _ in range(6):
            ops.update(entry, 0b1)
        histories, counters = entry
        assert max(counters) == 3  # saturated high
        for _ in range(6):
            ops.update(entry, 0)
        histories, counters = entry
        assert min(counters) == 0  # saturated low, never wraps

    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_matches_pas_function_oracle_under_kernel(self, mode):
        # PasOps is a representation change, not a semantic one: driving
        # the kernel with PasOps must reproduce the deque-entry PAsFunction
        # stream exactly, under every update mode.
        scheme = parse_scheme("pas(pid+add4)2").with_update(mode)
        trace = make_random_trace(num_nodes=16, num_events=300, seed="pasops")
        keys = list(compute_keys(scheme.index, trace))
        flat = list(
            KernelStream(mode, PasOps(trace.num_nodes, scheme.depth)).feed_chunk(
                trace, keys
            )
        )
        oracle = list(
            KernelStream(mode, scheme.make_function(trace.num_nodes)).feed_chunk(
                trace, keys
            )
        )
        assert flat == oracle
