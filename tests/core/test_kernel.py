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
"""

from __future__ import annotations

from repro.core.kernel import PredictorKernel
from repro.core.update import UpdateMode


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
