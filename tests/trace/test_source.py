"""The TraceSource abstraction: chunked views, fingerprints, rechunking.

Pins the contracts every streaming consumer leans on: chunk iteration
covers the trace exactly (any chunk size, including 1 and larger than the
trace), resident chunks are zero-copy column slices, the streaming
fingerprint is invariant under chunk size, and the consistency checker
accepts every valid chunking of a valid trace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.events import SharingTrace
from repro.trace.source import (
    CHUNK_FIELDS,
    ResidentTraceSource,
    StreamingConsistencyChecker,
    TraceSource,
    as_source,
    as_trace,
    rechunk,
    stream_fingerprint,
)
from tests.conftest import make_random_trace

#: machine widths spanning all three bitmap layouts: uint32 scalar (<=32),
#: uint64 scalar (<=64), and packed multi-word (>64, including 1024)
WIDTHS = (8, 16, 32, 33, 64, 65, 128, 1024)


@lru_cache(maxsize=None)
def trace_for(width: int) -> SharingTrace:
    return make_random_trace(
        num_nodes=width, num_events=50, num_blocks=12, seed=f"source-{width}"
    )


class TestResidentChunking:
    @given(
        width=st.sampled_from(WIDTHS),
        chunk_events=st.sampled_from([1, 3, 7, 49, 50, 51, 4096]),
    )
    def test_chunks_cover_the_trace_exactly(self, width, chunk_events):
        trace = trace_for(width)
        source = ResidentTraceSource(trace, chunk_events=chunk_events)
        chunks = list(source.chunks())
        assert sum(len(chunk) for chunk in chunks) == len(trace)
        expected_count = -(-len(trace) // chunk_events)  # ceil division
        assert len(chunks) == expected_count
        position = 0
        for chunk in chunks:
            assert chunk.start == position
            assert chunk.end == position + len(chunk)
            assert len(chunk) <= chunk_events
            position = chunk.end
        for field in CHUNK_FIELDS:
            np.testing.assert_array_equal(
                np.concatenate([getattr(chunk, field) for chunk in chunks]),
                getattr(trace, field),
            )

    def test_chunks_are_zero_copy_views(self, random_trace):
        source = ResidentTraceSource(random_trace, chunk_events=64)
        for chunk in source.chunks():
            for field in CHUNK_FIELDS:
                assert np.shares_memory(
                    getattr(chunk, field), getattr(random_trace, field)
                ), field

    def test_close_indices_stay_absolute(self, random_trace):
        """A chunk's close column may point past the chunk's own end."""
        source = ResidentTraceSource(random_trace, chunk_events=16)
        saw_forward_close = False
        for chunk in source.chunks():
            np.testing.assert_array_equal(
                chunk.close, random_trace.close[chunk.start : chunk.end]
            )
            if np.any(chunk.close >= chunk.end):
                saw_forward_close = True
        assert saw_forward_close, "fixture never crossed a chunk boundary"

    def test_chunk_duck_types_as_miniature_trace(self, tiny_trace):
        source = ResidentTraceSource(tiny_trace, chunk_events=4)
        chunk = next(source.chunks())
        assert chunk.num_nodes == tiny_trace.num_nodes
        assert chunk.layout.dtype == tiny_trace.layout.dtype
        assert len(chunk) == 4
        assert chunk.truth_ints() == tiny_trace.layout.to_int_list(
            tiny_trace.truth[:4]
        )
        assert chunk.inval_ints() == tiny_trace.layout.to_int_list(
            tiny_trace.inval[:4]
        )

    def test_invalid_chunk_size_rejected(self, random_trace):
        source = ResidentTraceSource(random_trace)
        with pytest.raises(ValueError, match="chunk_events"):
            list(source.chunks(-1))

    def test_restartable_iteration(self, random_trace):
        source = ResidentTraceSource(random_trace, chunk_events=32)
        first = [len(chunk) for chunk in source.chunks()]
        second = [len(chunk) for chunk in source.chunks()]
        assert first == second


class TestConverters:
    def test_as_source_wraps_resident_traces(self, random_trace):
        source = as_source(random_trace)
        assert isinstance(source, TraceSource)
        assert source.name == random_trace.name
        assert source.num_nodes == random_trace.num_nodes
        assert len(source) == len(random_trace)

    def test_as_source_passes_sources_through(self, random_trace):
        source = ResidentTraceSource(random_trace)
        assert as_source(source) is source

    def test_as_trace_round_trip(self, random_trace):
        assert as_trace(random_trace) is random_trace
        # a resident source materializes back to the exact same object
        assert as_trace(ResidentTraceSource(random_trace)) is random_trace

    @given(width=st.sampled_from(WIDTHS))
    def test_materialize_is_bit_identical(self, width):
        trace = trace_for(width)

        class OpaqueSource(ResidentTraceSource):
            """Defeats ResidentTraceSource's materialize shortcut."""

            def materialize(self):
                return TraceSource.materialize(self)

        rebuilt = OpaqueSource(trace, chunk_events=7).materialize()
        assert rebuilt.num_nodes == trace.num_nodes
        for field in CHUNK_FIELDS:
            np.testing.assert_array_equal(
                getattr(rebuilt, field), getattr(trace, field)
            )


class TestStreamFingerprint:
    @given(
        width=st.sampled_from(WIDTHS),
        chunk_events=st.sampled_from([1, 3, 17, 50, 51, 4096]),
    )
    def test_invariant_under_chunk_size(self, width, chunk_events):
        trace = trace_for(width)
        default = stream_fingerprint(trace)
        rechunked = ResidentTraceSource(trace, chunk_events=chunk_events)
        assert stream_fingerprint(rechunked) == default

    def test_distinct_content_distinct_fingerprints(self):
        a = make_random_trace(num_nodes=16, num_events=60, seed="fp-a")
        b = make_random_trace(num_nodes=16, num_events=60, seed="fp-b")
        assert stream_fingerprint(a) != stream_fingerprint(b)

    def test_name_is_part_of_the_identity(self, random_trace):
        renamed = SharingTrace(
            num_nodes=random_trace.num_nodes,
            name=random_trace.name + "-renamed",
            **{field: getattr(random_trace, field) for field in CHUNK_FIELDS},
        )
        assert stream_fingerprint(renamed) != stream_fingerprint(random_trace)

    def test_stable_across_calls(self, random_trace):
        assert stream_fingerprint(random_trace) == stream_fingerprint(random_trace)

    def test_sensitive_to_array_contents(self, random_trace):
        before = stream_fingerprint(random_trace)
        mutated = random_trace.writer.copy()
        mutated[0] = (mutated[0] + 1) % random_trace.num_nodes
        clone = SharingTrace(
            num_nodes=random_trace.num_nodes,
            name=random_trace.name,
            **{
                field: (mutated if field == "writer" else getattr(random_trace, field))
                for field in CHUNK_FIELDS
            },
        )
        assert stream_fingerprint(clone) != before


class TestRechunk:
    @given(
        native=st.sampled_from([1, 4, 13, 50, 80]),
        target=st.sampled_from([1, 5, 13, 49, 50, 51, 200]),
    )
    def test_rewindow_preserves_content_and_offsets(self, native, target):
        trace = trace_for(16)
        source = ResidentTraceSource(trace, chunk_events=native)
        chunks = list(rechunk(source.chunks(), target))
        assert all(len(chunk) == target for chunk in chunks[:-1])
        assert sum(len(chunk) for chunk in chunks) == len(trace)
        position = 0
        for chunk in chunks:
            assert chunk.start == position
            position = chunk.end
        for field in CHUNK_FIELDS:
            np.testing.assert_array_equal(
                np.concatenate([getattr(chunk, field) for chunk in chunks]),
                getattr(trace, field),
            )

    def test_invalid_target_rejected(self, random_trace):
        source = ResidentTraceSource(random_trace)
        with pytest.raises(ValueError, match="chunk_events"):
            list(rechunk(source.chunks(), 0))

    def test_empty_stream_yields_nothing(self):
        assert list(rechunk(iter(()), 8)) == []


class TestStreamingConsistencyChecker:
    @given(chunk_events=st.sampled_from([1, 7, 50, 400, 500]))
    def test_valid_trace_passes_at_any_chunking(self, chunk_events):
        trace = make_random_trace(num_nodes=16, num_events=400, seed="checker")
        checker = StreamingConsistencyChecker(trace.num_nodes)
        for chunk in ResidentTraceSource(trace, chunk_events=chunk_events).chunks():
            checker.feed(chunk)
        checker.finish()  # must not raise

    def test_gap_between_chunks_rejected(self, random_trace):
        chunks = list(ResidentTraceSource(random_trace, chunk_events=50).chunks())
        checker = StreamingConsistencyChecker(random_trace.num_nodes)
        checker.feed(chunks[0])
        with pytest.raises(ValueError, match="gap or overlap"):
            checker.feed(chunks[2])

    def test_broken_close_linkage_rejected(self, tiny_trace):
        broken = SharingTrace(
            num_nodes=tiny_trace.num_nodes,
            name=tiny_trace.name,
            **{
                field: (
                    np.zeros_like(tiny_trace.close)
                    if field == "close"
                    else getattr(tiny_trace, field)
                )
                for field in CHUNK_FIELDS
            },
        )
        checker = StreamingConsistencyChecker(broken.num_nodes)
        with pytest.raises(ValueError, match="close"):
            for chunk in ResidentTraceSource(broken, chunk_events=2).chunks():
                checker.feed(chunk)
            checker.finish()
