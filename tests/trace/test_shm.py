"""Shared-memory trace transport: publish/attach round-trips of ``.rtrace``
images, verification at attach, lifecycle, and the environment gate.

These tests run in a single process (attaching to a segment published by the
same process is valid and exercises the exact same mapping path workers use);
the cross-process path is covered by the parallel-engine golden tests, which
run the full pool with the images in shared memory and as bytes.
"""

import pickle

import numpy as np
import pytest

from repro.telemetry import Telemetry, set_telemetry
from repro.trace.interchange import MAGIC, trace_image
from repro.trace.io import TraceFormatError
from repro.trace.shm import attach_trace, publish_traces, shm_available, shm_enabled
from repro.trace.source import CHUNK_FIELDS, stream_fingerprint
from tests.conftest import make_random_trace

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=120, num_blocks=10, seed="shm-a"),
        make_random_trace(num_nodes=80, num_events=90, num_blocks=6, seed="shm-b"),
    ]


def assert_chunks_alias(source, buffer):
    segment = np.frombuffer(buffer, dtype=np.uint8)
    for chunk in source.chunks():
        for field in CHUNK_FIELDS:
            array = getattr(chunk, field)
            assert not array.flags["OWNDATA"], field
            assert np.shares_memory(array, segment), field


def image_refs(traces):
    return [
        {"fingerprint": stream_fingerprint(trace), "image": trace_image(trace)}
        for trace in traces
    ]


class TestPublishAttach:
    def test_round_trip_is_bit_identical(self, traces):
        with publish_traces(image_refs(traces)) as published:
            assert len(published.descriptors) == len(traces)
            for descriptor, original in zip(published.descriptors, traces):
                attached = attach_trace(descriptor)
                try:
                    rebuilt = attached.source.materialize()
                    assert rebuilt.name == original.name
                    assert rebuilt.num_nodes == original.num_nodes
                    assert len(rebuilt) == len(original)
                    for field in CHUNK_FIELDS:
                        np.testing.assert_array_equal(
                            getattr(rebuilt, field), getattr(original, field)
                        )
                finally:
                    attached.close()

    def test_attached_views_are_zero_copy(self, traces):
        """The worker-side chunk columns alias the shared buffer, not copies."""
        with publish_traces(image_refs(traces[:1])) as published:
            attached = attach_trace(published.descriptors[0])
            try:
                assert_chunks_alias(attached.source, attached._segment.buf)
            finally:
                attached.close()

    def test_descriptors_are_pickle_flat(self, traces):
        with publish_traces(image_refs(traces)) as published:
            blob = pickle.dumps(published.descriptors)
            # descriptors must stay tiny regardless of trace size
            assert len(blob) < 4096
            restored = pickle.loads(blob)
            assert restored == published.descriptors

    def test_fingerprint_mismatch_rejected(self, traces):
        with publish_traces(image_refs(traces[:1])) as published:
            forged = dict(published.descriptors[0], fingerprint="0" * 16)
            with pytest.raises(ValueError, match="fingerprint mismatch"):
                attach_trace(forged)

    def test_flipped_segment_byte_rejected(self, traces):
        """A byte flipped inside a chunk payload fails its CRC at attach."""
        refs = image_refs(traces[:1])
        with publish_traces(refs) as published:
            image = refs[0]["image"]
            record_end = image.index(b"\n", image.index(b"\n", len(MAGIC)) + 1) + 1
            published._segments[0].buf[record_end + 16] ^= 0xFF
            with pytest.raises(TraceFormatError, match="checksum"):
                attach_trace(published.descriptors[0])

    def test_close_unlinks_segments(self, traces):
        published = publish_traces(image_refs(traces[:1]))
        descriptor = published.descriptors[0]
        published.close()
        with pytest.raises((FileNotFoundError, OSError)):
            attach_trace(descriptor)

    def test_close_is_idempotent(self, traces):
        published = publish_traces(image_refs(traces[:1]))
        published.close()
        published.close()  # must not raise

    def test_publish_telemetry(self, traces):
        refs = image_refs(traces)
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            published = publish_traces(refs)
            published.close()
        finally:
            set_telemetry(previous)
        assert sink.counters["shm.publishes"] == len(traces)
        assert sink.counters["shm.unlinks"] == len(traces)
        assert sink.counters["shm.bytes_published"] == sum(
            len(ref["image"]) for ref in refs
        )


class TestEnvironmentGate:
    @pytest.mark.parametrize("raw", ["0", "false", "off", "no", " OFF "])
    def test_disabling_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHM", raw)
        assert shm_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "yes", ""])
    def test_enabling_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHM", raw)
        assert shm_enabled() is True

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert shm_enabled() is True
