"""StreamingTraceBuilder: the one epoch-chain builder, flushed into a sink.

The unit cases build resident traces through the builder and a
:class:`ColumnCollector`; the property test holds every flushed column to
a brute-force linkage written here, independent of the builder's
per-block bookkeeping.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.builder import ColumnCollector, StreamingTraceBuilder


def new_builder(num_nodes, flush_events=65536):
    return StreamingTraceBuilder(ColumnCollector(num_nodes), flush_events=flush_events)


def finalize(builder):
    builder.finalize()
    return builder.sink.trace()


def brute_force_columns(ops):
    """The eight trace columns of an op stream, by rescanning it per event.

    ``ops`` holds ``("event", writer, pc, home, block)`` coherence stores
    and ``("reader", block, node)`` reads.  An event's epoch runs from its
    store to the block's next store (or the end of the stream); its truth
    is every node other than the writer that reads the block in between.
    """
    stores = [(position, op[1:]) for position, op in enumerate(ops) if op[0] == "event"]
    truth, close = [], []
    for index, (position, (writer, _pc, _home, block)) in enumerate(stores):
        later = [other for other in range(index + 1, len(stores)) if stores[other][1][3] == block]
        close.append(later[0] if later else len(stores))
        end = stores[later[0]][0] if later else len(ops)
        readers = 0
        for op in ops[position + 1:end]:
            if op[0] == "reader" and op[1] == block and op[2] != writer:
                readers |= 1 << op[2]
        truth.append(readers)
    inval, has_inval = [], []
    for index, (_position, (_writer, _pc, _home, block)) in enumerate(stores):
        earlier = [other for other in range(index) if stores[other][1][3] == block]
        inval.append(truth[earlier[-1]] if earlier else 0)
        has_inval.append(bool(earlier))
    return [
        [store[0] for _, store in stores],
        [store[1] for _, store in stores],
        [store[2] for _, store in stores],
        [store[3] for _, store in stores],
        truth,
        inval,
        has_inval,
        close,
    ]


def feed(builder, ops):
    for op in ops:
        if op[0] == "event":
            builder.add_event(*op[1:])
        else:
            builder.add_reader(*op[1:])


class TestBuilder:
    def test_event_then_readers(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_reader(5, 2)
        trace = finalize(builder)
        assert trace[0].truth == 0b0110

    def test_writer_not_counted_as_reader(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 0)
        assert finalize(builder)[0].truth == 0

    def test_pre_write_readers_ignored(self):
        builder = new_builder(4)
        builder.add_reader(5, 3)  # no epoch open yet
        builder.add_event(writer=0, pc=1, home=0, block=5)
        trace = finalize(builder)
        assert not trace[0].has_inval
        assert trace[0].truth == 0

    def test_epoch_chaining(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_event(writer=2, pc=2, home=0, block=5)
        trace = finalize(builder)
        assert trace[0].close == 1
        assert trace[1].inval == 0b0010
        assert trace[1].has_inval

    def test_duplicate_readers_idempotent(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        for _ in range(3):
            builder.add_reader(5, 1)
        assert finalize(builder)[0].truth == 0b0010

    def test_interleaved_blocks(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_event(writer=1, pc=1, home=1, block=6)
        builder.add_reader(5, 2)
        builder.add_reader(6, 3)
        builder.add_event(writer=1, pc=1, home=0, block=5)
        trace = finalize(builder)
        assert trace[0].truth == 0b0100
        assert trace[1].truth == 0b1000
        assert trace[0].close == 2
        assert trace[1].close == 3  # open at end -> len(trace)

    def test_finalize_output_is_consistent(self):
        builder = new_builder(8)
        for index in range(30):
            builder.add_event(writer=index % 8, pc=1 + index % 3, home=0, block=index % 5)
            builder.add_reader(index % 5, (index + 1) % 8)
        finalize(builder).check_consistency()

    def test_len(self):
        builder = new_builder(4)
        assert len(builder) == 0
        builder.add_event(writer=0, pc=1, home=0, block=1)
        assert len(builder) == 1

    def test_collected_trace_is_taken_once(self):
        builder = new_builder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        assert len(finalize(builder)) == 1
        with pytest.raises(RuntimeError, match="already taken"):
            builder.sink.trace()


#: written by the first event of a pinned stream and never again, so its
#: epoch stays open to the end and no flush can emit anything
PINNED_BLOCK = 6

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("event"),
            st.integers(min_value=0, max_value=3),  # writer
            st.integers(min_value=1, max_value=4),  # pc
            st.integers(min_value=0, max_value=3),  # home
            st.integers(min_value=0, max_value=PINNED_BLOCK - 1),  # block
        ),
        # readers of every block, the pinned one and never-written ones
        # included; with four nodes, writer re-reads and duplicate
        # readers are common
        st.tuples(
            st.just("reader"),
            st.integers(min_value=0, max_value=PINNED_BLOCK + 1),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    max_size=120,
)


@given(_ops, st.integers(min_value=1, max_value=8), st.booleans())
def test_flushed_columns_match_brute_force_linkage(ops, flush_events, pinned):
    """Any add_event/add_reader stream, flushed at any period, collects to
    the brute-force linkage: pre-write readers and writer re-reads add
    nothing, duplicate readers add one bit, and a block pinned open from
    the first event holds everything back until finalize."""
    if pinned:
        ops = [("event", 0, 7, 0, PINNED_BLOCK)] + ops
    builder = new_builder(4, flush_events=flush_events)
    feed(builder, ops)
    expected = brute_force_columns(ops)
    assert len(builder) == len(expected[0])
    if pinned:
        assert builder.sink.columns == [[] for _ in range(8)]
    assert builder.finalize() == len(expected[0])
    assert builder.sink.columns == expected
    builder.sink.trace()  # passes the linkage check


class TestStreamingBuilder:
    def test_pinned_buffer_retries_flush_once_per_flush_events(self, monkeypatch):
        """A block written once, early, keeps its epoch open to the end, so
        no flush can emit anything: retries must come once per
        ``flush_events`` events, not once per event."""
        events, flush_events = 400, 16
        builder = new_builder(8, flush_events=flush_events)
        calls = 0
        flush = StreamingTraceBuilder._flush

        def counted(self, boundary=None):
            nonlocal calls
            calls += 1
            return flush(self, boundary)

        monkeypatch.setattr(StreamingTraceBuilder, "_flush", counted)
        ops = [("event", 0, 7, 0, 999)]
        for index in range(1, events):
            ops.append(("event", index % 8, 1 + index % 3, 0, index % 5))
            ops.append(("reader", index % 5, (index + 3) % 8))
        feed(builder, ops)
        builder.finalize()
        assert calls <= events // flush_events + 2
        assert builder.sink.columns == brute_force_columns(ops)
