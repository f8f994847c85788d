"""Streamed traces must be bit-identical to resident, on every backend.

The golden suite is written out to .rtrace files once per module; every
engine backend (and both kernel backends) then evaluates the file-backed
sources and must land on the exact frozen confusion counts the resident
suite pins in tests/golden.  Traffic replay gets the same treatment
against a resident run.  This is the acceptance gate for the streaming
pipeline: no consumer may observe which representation fed it.
"""

from __future__ import annotations

import pytest

from repro.core.schemes import parse_scheme
from repro.engine import ParallelEngine, ReferenceEngine, VectorizedEngine
from repro.harness.runner import TraceSet
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.interchange import FileTraceSource, write_source

from tests.conftest import make_random_trace
from tests.golden import GOLDEN_SCHEMES, load_fixture


@pytest.fixture(scope="module")
def trace_set() -> TraceSet:
    return TraceSet()


@pytest.fixture(scope="module")
def traces(trace_set):
    return trace_set.traces()


@pytest.fixture(scope="module")
def sources(traces, tmp_path_factory):
    """The golden suite as file-backed streaming sources."""
    directory = tmp_path_factory.mktemp("rtrace")
    sources = []
    for trace in traces:
        path = directory / f"{trace.name}.rtrace"
        # a small chunk size forces genuinely multi-chunk streaming
        write_source(trace, path, chunk_events=4096)
        sources.append(FileTraceSource(path))
    return sources


def expected_counts(fixture: dict, trace_set: TraceSet):
    assert fixture["trace_fingerprint"] == trace_set.fingerprint()
    return [
        ConfusionCounts(*fixture["counts"][benchmark])
        for benchmark in trace_set.benchmarks
    ]


@pytest.mark.parametrize(
    "engine_factory",
    [
        pytest.param(ReferenceEngine, id="reference"),
        pytest.param(VectorizedEngine, id="vectorized"),
        pytest.param(lambda: ParallelEngine(jobs=2, chunk_size=2), id="parallel"),
    ],
)
def test_streamed_batch_reproduces_golden_counts(
    engine_factory, trace_set, sources
):
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]
    batch = engine_factory().evaluate_batch(schemes, sources)
    for scheme_text, per_trace in zip(GOLDEN_SCHEMES, batch):
        expected = expected_counts(load_fixture(scheme_text), trace_set)
        for benchmark, got, want in zip(trace_set.benchmarks, per_trace, expected):
            assert got == want, (
                f"streamed run diverged from golden counts for {scheme_text} "
                f"on {benchmark}: {got} != {want}"
            )


@pytest.mark.parametrize("kernel", ["python", "native"])
def test_streamed_counts_hold_under_both_kernels(kernel, trace_set, sources):
    from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend

    if kernel == "native" and not get_kernel_backend("native").available():
        pytest.skip("native kernel backend unavailable here")
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]
    previous = set_kernel_backend(kernel)
    try:
        batch = VectorizedEngine().evaluate_batch(schemes, sources)
    finally:
        set_kernel_backend(previous)
    for scheme_text, per_trace in zip(GOLDEN_SCHEMES, batch):
        expected = expected_counts(load_fixture(scheme_text), trace_set)
        assert list(per_trace) == expected, (
            f"streamed counts moved under kernel={kernel} for {scheme_text}"
        )


def test_streamed_traffic_matches_resident(trace_set, traces, sources):
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES[:2]]
    engine = VectorizedEngine()
    streamed = engine.evaluate_traffic(schemes, sources)
    resident = engine.evaluate_traffic(schemes, traces)
    assert streamed == resident


def test_stream_fingerprints_survive_the_file_round_trip(traces, sources):
    from repro.trace.source import stream_fingerprint

    for trace, source in zip(traces, sources):
        assert source.fingerprint() == stream_fingerprint(trace)


def test_streaming_engines_never_materialize(sources):
    """The vectorized engine consumes sources chunk-wise; the reference
    engine (no stream support) pays an explicit, counted materialization."""
    scheme = parse_scheme(GOLDEN_SCHEMES[0])
    sink = Telemetry()
    previous = set_telemetry(sink)
    try:
        VectorizedEngine().evaluate_batch([scheme], sources[:1])
        assert sink.counters.get("engine.stream.materializations", 0) == 0
        ReferenceEngine().evaluate_batch([scheme], sources[:1])
        assert sink.counters.get("engine.stream.materializations", 0) == 1
    finally:
        set_telemetry(previous)


def test_streamed_pas_runs_native(tmp_path):
    """Streamed PAs and confidence-gated schemes run the resumable compiled
    group pass; nothing falls back to the Python oracle."""
    from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend

    if not get_kernel_backend("native").available():
        pytest.skip("native kernel backend unavailable here")
    trace = make_random_trace(num_nodes=16, num_events=1200, num_blocks=40, seed="pas")
    path = tmp_path / "pas.rtrace"
    write_source(trace, path, chunk_events=128)
    source = FileTraceSource(path)
    assert len(list(source.chunks())) > 1
    pas = ["pas(pid+add4)2[direct]", "pas(dir+add6)1[forwarded]", "pas(pc4)3[ordered]"]
    confidence = ["cunion(pid+add4)2[forwarded]", "cinter(dir+add6)2[direct]"]
    schemes = [parse_scheme(text) for text in pas + confidence]
    sink = Telemetry()
    previous_telemetry = set_telemetry(sink)
    previous_kernel = set_kernel_backend("native")
    try:
        streamed = VectorizedEngine().evaluate_batch(schemes, [source])
    finally:
        set_kernel_backend(previous_kernel)
        set_telemetry(previous_telemetry)
    # one group stream per (index group, update mode, trace) -- here one
    # per scheme, as no two share both -- plus the engine's one selection
    # record per batch
    assert sink.counters["kernel.backend.native"] == len(schemes) + 1
    assert sink.counters.get("kernel.fallbacks", 0) == 0
    assert sink.counters.get("kernel.backend.python", 0) == 0
    assert streamed == ReferenceEngine().evaluate_batch(schemes, [trace])
