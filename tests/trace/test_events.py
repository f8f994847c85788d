"""SharingTrace: construction, validation, epoch linkage."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.events import SharingEvent, SharingTrace
from repro.trace.source import DEFAULT_CHUNK_EVENTS


class TestFromEpochs:
    def test_links_epochs_per_block(self, tiny_trace):
        # block 10 events at 0, 1, 3, 5; block 11 at 2, 4
        assert tiny_trace[0].close == 1
        assert tiny_trace[1].close == 3
        assert tiny_trace[3].close == 5
        assert tiny_trace[5].close == len(tiny_trace)
        assert tiny_trace[2].close == 4
        assert tiny_trace[4].close == len(tiny_trace)

    def test_inval_equals_closed_truth(self, tiny_trace):
        assert tiny_trace[1].inval == tiny_trace[0].truth
        assert not tiny_trace[0].has_inval
        assert tiny_trace[1].has_inval

    def test_writer_in_truth_rejected(self):
        with pytest.raises(ValueError):
            SharingTrace.from_epochs(4, [(0, 1, 0, 5, 0b0001)])

    def test_consistency_check_passes(self, tiny_trace):
        tiny_trace.check_consistency()


class TestValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SharingTrace(
                num_nodes=4,
                writer=[0],
                pc=[1, 2],
                home=[0],
                block=[0],
                truth=[0],
                inval=[0],
                has_inval=[False],
                close=[1],
            )

    def test_writer_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SharingTrace.from_epochs(4, [(7, 1, 0, 5, 0)])

    def test_bitmap_beyond_nodes_rejected(self):
        with pytest.raises(ValueError):
            SharingTrace.from_epochs(4, [(0, 1, 0, 5, 0b10000)])

    def test_wide_machines_accepted(self):
        # The uint32 ceiling is gone: 64- and 256-node traces build fine.
        wide = SharingTrace.from_epochs(64, [(0, 1, 0, 5, 1 << 63)])
        assert wide[0].truth == 1 << 63
        packed = SharingTrace.from_epochs(256, [(0, 1, 0, 5, 1 << 255)])
        assert packed[0].truth == 1 << 255
        assert packed.truth.ndim == 2

    def test_machine_mismatch_rejected(self):
        from repro.machine import MachineSpec

        with pytest.raises(ValueError):
            SharingTrace.from_epochs(4, [], machine=MachineSpec(num_nodes=8))

    def test_broken_linkage_detected(self):
        trace = SharingTrace(
            num_nodes=4,
            writer=[0, 1],
            pc=[1, 1],
            home=[0, 0],
            block=[5, 5],
            truth=[0b0010, 0],
            inval=[0, 0b0100],  # should be 0b0010
            has_inval=[False, True],
            close=[1, 2],
        )
        with pytest.raises(ValueError):
            trace.check_consistency()

    def test_unclosed_epoch_with_bad_close_detected(self):
        trace = SharingTrace(
            num_nodes=4,
            writer=[0],
            pc=[1],
            home=[0],
            block=[5],
            truth=[0],
            inval=[0],
            has_inval=[False],
            close=[0],  # must be len(trace) == 1
        )
        with pytest.raises(ValueError):
            trace.check_consistency()


def broken_trace(block, truth, inval, has_inval, close):
    """A 4-node trace that passes construction but not the linkage check."""
    return SharingTrace(
        num_nodes=4,
        writer=[index % 2 for index in range(len(block))],
        pc=[1] * len(block),
        home=[0] * len(block),
        block=block,
        truth=truth,
        inval=inval,
        has_inval=has_inval,
        close=close,
    )


class TestLinkageErrors:
    """check_consistency raises each of its five texts on a broken trace."""

    @pytest.mark.parametrize(
        "columns, message",
        [
            pytest.param(
                dict(block=[5], truth=[0], inval=[0], has_inval=[True], close=[1]),
                "event 0: first on block but has_inval set",
                id="first-with-inval",
            ),
            pytest.param(
                dict(block=[5, 5], truth=[0, 0], inval=[0, 0],
                     has_inval=[False, True], close=[2, 2]),
                "event 0: close=2, expected 1",
                id="wrong-close",
            ),
            pytest.param(
                dict(block=[5, 5], truth=[0, 0], inval=[0, 0],
                     has_inval=[False, False], close=[1, 2]),
                "event 1: closes an epoch but has_inval unset",
                id="closer-without-inval",
            ),
            pytest.param(
                dict(block=[5, 5], truth=[0b0100, 0], inval=[0, 0b1000],
                     has_inval=[False, True], close=[1, 2]),
                "event 1: inval != truth of closed epoch 0",
                id="inval-not-closed-truth",
            ),
            pytest.param(
                dict(block=[5], truth=[0], inval=[0], has_inval=[False], close=[0]),
                "event 0: last on block 5 but close != len(trace)",
                id="open-epoch-not-closed-at-end",
            ),
        ],
    )
    def test_each_violation_has_its_message(self, columns, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            broken_trace(**columns).check_consistency()

    def test_violation_past_the_first_window(self):
        # two alternating block chains across more than one checker window;
        # the error names absolute event indices
        length = DEFAULT_CHUNK_EVENTS + 10
        index = np.arange(length)
        columns = dict(
            block=index % 2,
            truth=np.zeros(length, dtype=np.int64),
            inval=np.zeros(length, dtype=np.int64),
            has_inval=index >= 2,
            close=np.minimum(index + 2, length),
        )
        broken_trace(**columns).check_consistency()
        columns["inval"][length - 3] = 0b0100
        with pytest.raises(
            ValueError,
            match=f"^event {length - 3}: inval != truth of closed epoch {length - 5}$",
        ):
            broken_trace(**columns).check_consistency()


class TestSequenceProtocol:
    def test_len_and_getitem(self, tiny_trace):
        assert len(tiny_trace) == 6
        event = tiny_trace[0]
        assert isinstance(event, SharingEvent)
        assert event.writer == 0 and event.block == 10

    def test_events_iteration(self, tiny_trace):
        events = list(tiny_trace.events())
        assert len(events) == 6
        assert events[4].home == 1

    def test_from_events_roundtrip(self, tiny_trace):
        rebuilt = SharingTrace.from_events(4, list(tiny_trace.events()), name="tiny")
        rebuilt.check_consistency()
        assert [e.truth for e in rebuilt.events()] == [e.truth for e in tiny_trace.events()]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=0xFF),
        ),
        max_size=80,
    )
)
def test_from_epochs_always_consistent(epochs):
    """from_epochs output always satisfies check_consistency."""
    cleaned = [
        (writer, pc, home, block, truth & ~(1 << writer))
        for writer, pc, home, block, truth in epochs
    ]
    trace = SharingTrace.from_epochs(8, cleaned)
    trace.check_consistency()
    # close indices strictly increase along each block's chain
    last_close = {}
    for index in range(len(trace)):
        event = trace[index]
        assert event.close > index
        last_close[event.block] = event.close
