"""SharingTraceBuilder: incremental epoch construction."""

import pytest

from repro.trace.builder import SharingTraceBuilder, StreamingTraceBuilder


class TestBuilder:
    def test_event_then_readers(self):
        builder = SharingTraceBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_reader(5, 2)
        trace = builder.finalize()
        assert trace[0].truth == 0b0110

    def test_writer_not_counted_as_reader(self):
        builder = SharingTraceBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 0)
        assert builder.finalize()[0].truth == 0

    def test_pre_write_readers_ignored(self):
        builder = SharingTraceBuilder(4)
        builder.add_reader(5, 3)  # no epoch open yet
        builder.add_event(writer=0, pc=1, home=0, block=5)
        trace = builder.finalize()
        assert not trace[0].has_inval
        assert trace[0].truth == 0

    def test_epoch_chaining(self):
        builder = SharingTraceBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_event(writer=2, pc=2, home=0, block=5)
        trace = builder.finalize()
        assert trace[0].close == 1
        assert trace[1].inval == 0b0010
        assert trace[1].has_inval

    def test_duplicate_readers_idempotent(self):
        builder = SharingTraceBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        for _ in range(3):
            builder.add_reader(5, 1)
        assert builder.finalize()[0].truth == 0b0010

    def test_interleaved_blocks(self):
        builder = SharingTraceBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_event(writer=1, pc=1, home=1, block=6)
        builder.add_reader(5, 2)
        builder.add_reader(6, 3)
        builder.add_event(writer=1, pc=1, home=0, block=5)
        trace = builder.finalize()
        assert trace[0].truth == 0b0100
        assert trace[1].truth == 0b1000
        assert trace[0].close == 2
        assert trace[1].close == 3  # open at end -> len(trace)

    def test_finalize_output_is_consistent(self):
        builder = SharingTraceBuilder(8)
        for index in range(30):
            builder.add_event(writer=index % 8, pc=1 + index % 3, home=0, block=index % 5)
            builder.add_reader(index % 5, (index + 1) % 8)
        builder.finalize().check_consistency()

    def test_len(self):
        builder = SharingTraceBuilder(4)
        assert len(builder) == 0
        builder.add_event(writer=0, pc=1, home=0, block=1)
        assert len(builder) == 1


class _ColumnSink:
    """Collects what a StreamingTraceBuilder flushes, column by column."""

    def __init__(self):
        self.columns = [[] for _ in range(8)]

    def write_columns(self, *columns):
        for collected, column in zip(self.columns, columns):
            collected.extend(column)


class TestStreamingBuilder:
    def test_pinned_buffer_retries_flush_once_per_flush_events(self, monkeypatch):
        """A block written once, early, keeps its epoch open to the end, so
        no flush can emit anything: retries must come once per
        ``flush_events`` events, not once per event."""
        events, flush_events = 400, 16
        sink = _ColumnSink()
        streaming = StreamingTraceBuilder(8, sink=sink, flush_events=flush_events)
        reference = SharingTraceBuilder(8)
        calls = 0
        flush = StreamingTraceBuilder._flush

        def counted(self, boundary=None):
            nonlocal calls
            calls += 1
            return flush(self, boundary)

        monkeypatch.setattr(StreamingTraceBuilder, "_flush", counted)
        for builder in (streaming, reference):
            builder.add_event(writer=0, pc=7, home=0, block=999)
            for index in range(1, events):
                builder.add_event(
                    writer=index % 8, pc=1 + index % 3, home=0, block=index % 5
                )
                builder.add_reader(index % 5, (index + 3) % 8)
        streaming.finalize()
        trace = reference.finalize()
        assert calls <= events // flush_events + 2
        expected = [
            trace.writer, trace.pc, trace.home, trace.block,
            trace.truth, trace.inval, trace.has_inval, trace.close,
        ]
        for collected, column in zip(sink.columns, expected):
            assert collected == column.tolist()
