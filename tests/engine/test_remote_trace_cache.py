"""The worker-side trace cache and the coordinator's install escalation.

A worker that has already received a trace suite keeps it, keyed by the
suite's transport key -- the traces' content fingerprints, the same for a
resident trace and an ``.rtrace`` file with equal events.  The next
coordinator probes the cache before shipping anything.  These tests pin
the negotiation order (cached -> file paths and image bytes -> image
bytes only), the telemetry that reports each outcome
(``engine.remote.trace_cache.hits``/``.misses``, ``file_installs``,
``bulk_installs``), and -- above all -- that every install path yields
bit-identical results to a local run, streamed or resident.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.parallel import ParallelEngine
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.interchange import FileTraceSource, write_source
from tests.conftest import make_random_trace
from tests.engine.remote_harness import spawn_worker, stop_workers

SCHEMES = [
    "last(add10)",
    "union(add10)2",
    "inter(pid+pc8)2",
    "overlap(add10)[forwarded]",
    "pas(pid+add8)[ordered]",
]


@pytest.fixture(scope="module")
def worker(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace-cache")
    proc, addr = spawn_worker(tmp, "cache-w0")
    yield [addr]
    stop_workers([proc])


@pytest.fixture(scope="module")
def trace():
    return make_random_trace(
        num_nodes=16, num_events=500, num_blocks=20, seed="trace-cache"
    )


@pytest.fixture(scope="module")
def source(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-cache-files") / "t.rtrace"
    write_source(trace, path, chunk_events=128)
    return FileTraceSource(path)


@pytest.fixture
def sink():
    sink = Telemetry()
    previous = set_telemetry(sink)
    yield sink
    set_telemetry(previous)


def run_remote(hosts, traces, schemes=SCHEMES):
    parsed = [parse_scheme(text) for text in schemes]
    engine = ParallelEngine(hosts=hosts)
    try:
        return engine.evaluate_batch(parsed, traces)
    finally:
        engine.close()


def test_file_suite_installs_by_spec_then_hits_the_cache(
    worker, trace, source, sink
):
    """First contact ships file specs (the worker reads the .rtrace
    itself); a reconnecting coordinator finds the suite already cached."""
    first = run_remote(worker, [source])
    assert sink.counters.get("engine.remote.file_installs", 0) == 1
    assert sink.counters.get("engine.remote.trace_cache.misses", 0) == 1
    assert sink.counters.get("engine.remote.trace_cache.hits", 0) == 0

    second = run_remote(worker, [source])
    assert sink.counters.get("engine.remote.trace_cache.hits", 0) == 1
    assert sink.counters.get("engine.remote.file_installs", 0) == 1  # unchanged
    assert sink.counters.get("engine.remote.bulk_installs", 0) == 0

    assert first == second
    parsed = [parse_scheme(text) for text in SCHEMES]
    local_streamed = VectorizedEngine().evaluate_batch(parsed, [source])
    local_resident = VectorizedEngine().evaluate_batch(parsed, [trace])
    assert first == local_streamed == local_resident


def test_resident_and_file_forms_share_a_cache_entry(worker, trace, source, sink):
    """Equal content, equal key: once the file suite is installed, the
    resident trace holding the same events hits the worker cache."""
    run_remote(worker, [source])
    hits_before = sink.counters.get("engine.remote.trace_cache.hits", 0)
    resident = run_remote(worker, [trace])
    assert sink.counters.get("engine.remote.trace_cache.hits", 0) == hits_before + 1
    assert sink.counters.get("engine.remote.bulk_installs", 0) == 0

    parsed = [parse_scheme(text) for text in SCHEMES]
    assert resident == VectorizedEngine().evaluate_batch(parsed, [trace])


def test_resident_suite_is_cached_across_coordinators(worker, sink):
    """A resident suite installs once, as image bytes, then reconnecting
    coordinators hit the worker cache instead of re-shipping."""
    resident = make_random_trace(
        num_nodes=16, num_events=400, num_blocks=18, seed="trace-cache-resident"
    )
    parsed = [parse_scheme(text) for text in SCHEMES]
    first = run_remote(worker, [resident])
    assert sink.counters.get("engine.remote.bulk_installs", 0) == 1
    assert sink.counters.get("engine.remote.file_installs", 0) == 0

    hits_before = sink.counters.get("engine.remote.trace_cache.hits", 0)
    second = run_remote(worker, [resident])
    assert sink.counters.get("engine.remote.trace_cache.hits", 0) == hits_before + 1
    assert sink.counters.get("engine.remote.bulk_installs", 0) == 1  # unchanged

    local = VectorizedEngine().evaluate_batch(parsed, [resident])
    assert first == second == local


def test_unreadable_path_falls_back_to_image_bytes(worker, sink, tmp_path, monkeypatch):
    """A worker that cannot open a trace file refuses the install; the
    coordinator resends the file's bytes as its image."""
    unread = make_random_trace(
        num_nodes=16, num_events=350, num_blocks=16, seed="trace-cache-unread"
    )
    # a relative path resolves against the coordinator's directory, not
    # the worker's, so only the coordinator can open it
    monkeypatch.chdir(tmp_path)
    write_source(unread, "unread.rtrace", chunk_events=100)
    relative = FileTraceSource("unread.rtrace")
    parsed = [parse_scheme(text) for text in SCHEMES]
    remote = run_remote(worker, [relative])
    assert sink.counters.get("engine.remote.bulk_installs", 0) == 1
    assert sink.counters.get("engine.remote.file_installs", 0) == 0
    assert "engine.parallel.fallbacks" not in sink.counters
    assert remote == VectorizedEngine().evaluate_batch(parsed, [unread])


def test_distinct_suites_do_not_collide(worker, trace, source, sink):
    """Cache keys are content fingerprints: a different suite misses."""
    other = make_random_trace(
        num_nodes=16, num_events=300, num_blocks=15, seed="trace-cache-other"
    )
    # at least MIN_BATCH_FOR_POOL schemes, or the batch runs serially
    # and never touches the transport
    run_remote(worker, [other], schemes=SCHEMES[:4])
    assert sink.counters.get("engine.remote.trace_cache.hits", 0) == 0
    assert sink.counters.get("engine.remote.trace_cache.misses", 0) == 1


def test_streamed_traffic_over_the_wire(worker, trace, source):
    parsed = [parse_scheme(text) for text in SCHEMES[:2]]
    engine = ParallelEngine(hosts=worker)
    try:
        remote = engine.evaluate_traffic(parsed, [source])
    finally:
        engine.close()
    local = VectorizedEngine().evaluate_traffic(parsed, [trace])
    assert remote == local
