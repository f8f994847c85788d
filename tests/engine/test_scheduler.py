"""The adaptive chunk scheduler and the trace transports behind it.

Covers the pure scheduling logic (chunk cutting, throughput-adaptive
sizing, tail balancing) without any processes, then the full pooled path:
both transports produce identical results, the steal/shm telemetry is
recorded, and ``on_result`` fires exactly once per scheme.
"""

import pytest

from repro.core.schemes import parse_scheme
from repro.engine import ParallelEngine, VectorizedEngine
from repro.engine.parallel import (
    INITIAL_CHUNK,
    MAX_CHUNK,
    TARGET_CHUNK_SECONDS,
    _ChunkScheduler,
)
from repro.telemetry import Telemetry, set_telemetry, set_thread_telemetry
from tests.conftest import make_random_trace

SCHEMES = [
    "last()1",
    "last(pid)1",
    "union(add4)2",
    "union(dir+add6)3",
    "inter(pid+pc4)2",
    "inter(pc6)2",
    "overlap(pc4)1",
    "pas(pid+pc2)2",
]


@pytest.fixture(scope="module")
def small_traces():
    return [
        make_random_trace(num_nodes=8, num_events=200, num_blocks=12, seed="sched-a"),
        make_random_trace(num_nodes=8, num_events=140, num_blocks=9, seed="sched-b"),
    ]


class TestChunkScheduler:
    def test_fixed_size_cuts_in_order_and_covers_everything(self):
        scheduler = _ChunkScheduler(total=10, fixed_size=3, jobs=2)
        cuts = []
        while scheduler.has_pending():
            cuts.append(scheduler.next_chunk())
        assert cuts == [(0, 3), (3, 3), (6, 3), (9, 1)]
        with pytest.raises(IndexError):
            scheduler.next_chunk()

    def test_adaptive_probes_small_before_any_observation(self):
        scheduler = _ChunkScheduler(total=100, fixed_size=None, jobs=4)
        _, size = scheduler.next_chunk()
        assert size <= INITIAL_CHUNK

    def test_adaptive_grows_chunks_for_fast_schemes(self):
        scheduler = _ChunkScheduler(total=10_000, fixed_size=None, jobs=4)
        scheduler.next_chunk()
        # 1000 schemes/sec observed -> target-sized chunks of ~250
        scheduler.observe(num_schemes=100, elapsed=0.1, events=50_000)
        _, size = scheduler.next_chunk()
        assert size == round(1000 * TARGET_CHUNK_SECONDS)

    def test_adaptive_shrinks_chunks_for_slow_schemes(self):
        scheduler = _ChunkScheduler(total=10_000, fixed_size=None, jobs=4)
        scheduler.next_chunk()
        # 2 schemes/sec observed: deep-history stragglers -> tiny chunks
        scheduler.observe(num_schemes=2, elapsed=1.0, events=1_000)
        _, size = scheduler.next_chunk()
        assert size == 1

    def test_tail_is_balanced_across_workers(self):
        """A stale fast estimate must not hand the whole tail to one worker."""
        scheduler = _ChunkScheduler(total=40, fixed_size=None, jobs=4)
        scheduler.next_chunk()  # 2 probes consumed
        scheduler.observe(num_schemes=100, elapsed=0.01, events=1)  # 10k/sec
        _, size = scheduler.next_chunk()
        # even split of the remaining 38 over 4 workers, not one huge chunk
        assert size == 10

    def test_chunks_never_exceed_max(self):
        scheduler = _ChunkScheduler(total=1_000_000, fixed_size=None, jobs=1)
        scheduler.next_chunk()
        scheduler.observe(num_schemes=10_000, elapsed=0.001, events=1)
        _, size = scheduler.next_chunk()
        assert size <= MAX_CHUNK

    def test_oversized_group_splits_without_double_evaluation(self):
        """A plan group larger than any chunk is cut into pieces that tile
        it exactly: every index is handed out once, chunks never straddle a
        batch boundary, and nothing is skipped or re-issued."""
        scheduler = _ChunkScheduler(
            total=10, fixed_size=4, jobs=2, boundaries=[6, 10]
        )
        cuts = []
        while scheduler.has_pending():
            cuts.append(scheduler.next_chunk())
        # the 6-wide group splits 4+2; the 4-wide group fits one chunk
        assert cuts == [(0, 4), (4, 2), (6, 4)]
        covered = [
            index for start, size in cuts for index in range(start, start + size)
        ]
        assert covered == list(range(10))  # each scheme exactly once
        assert scheduler.segment_clamps == 1

    def test_boundaries_not_ending_at_total_are_safe(self):
        # a defensive guard: chunking past the last boundary must not blow
        # up even if the boundary list under-covers the total
        scheduler = _ChunkScheduler(total=5, fixed_size=2, jobs=1, boundaries=[3])
        cuts = []
        while scheduler.has_pending():
            cuts.append(scheduler.next_chunk())
        assert cuts == [(0, 2), (2, 1), (3, 2)]

    def test_observe_ignores_degenerate_samples(self):
        scheduler = _ChunkScheduler(total=10, fixed_size=None, jobs=1)
        scheduler.observe(num_schemes=0, elapsed=0.0, events=0)
        assert scheduler.schemes_per_sec is None

    def test_ewma_tracks_recent_throughput(self):
        scheduler = _ChunkScheduler(total=100, fixed_size=None, jobs=1)
        scheduler.observe(num_schemes=10, elapsed=1.0, events=10)  # 10/sec
        scheduler.observe(num_schemes=30, elapsed=1.0, events=30)  # 30/sec
        assert 10 < scheduler.schemes_per_sec < 30


class TestPooledTransports:
    @pytest.mark.parametrize("repro_shm", ["1", "0"], ids=["shm", "bytes"])
    def test_transports_match_serial_results(self, repro_shm, small_traces, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", repro_shm)
        schemes = [parse_scheme(text) for text in SCHEMES]
        expected = VectorizedEngine().evaluate_batch(schemes, small_traces)
        engine = ParallelEngine(jobs=2)  # adaptive chunking
        assert engine.evaluate_batch(schemes, small_traces) == expected

    def test_shm_transport_records_publishes_and_gauge(self, small_traces, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        schemes = [parse_scheme(text) for text in SCHEMES]
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            ParallelEngine(jobs=2).evaluate_batch(schemes, small_traces)
        finally:
            set_telemetry(previous)
        assert sink.counters["shm.publishes"] == len(small_traces)
        assert sink.counters["shm.unlinks"] == len(small_traces)
        assert sink.counters["shm.bytes_published"] > 0
        assert sink.gauges["engine.parallel.transport_shm"] == 1.0

    def test_pickle_transport_records_no_publishes(self, small_traces, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        schemes = [parse_scheme(text) for text in SCHEMES]
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            ParallelEngine(jobs=2).evaluate_batch(schemes, small_traces)
        finally:
            set_telemetry(previous)
        assert "shm.publishes" not in sink.counters
        assert sink.gauges["engine.parallel.transport_shm"] == 0.0

    def test_repro_shm_env_disables_transport(self, small_traces, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        schemes = [parse_scheme(text) for text in SCHEMES]
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            ParallelEngine(jobs=2).evaluate_batch(schemes, small_traces)
        finally:
            set_telemetry(previous)
        assert sink.gauges["engine.parallel.transport_shm"] == 0.0

    def test_thread_scoped_sink_receives_worker_telemetry(self, small_traces):
        """Pool workers fork from the submitting thread.  Its thread-scoped
        sink -- a served job's -- must not shadow the per-chunk sinks the
        workers record into, or worker counters never reach the job."""
        schemes = [parse_scheme(text) for text in SCHEMES[:5]]
        process_wide = Telemetry()
        previous = set_telemetry(process_wide)
        try:
            ParallelEngine(jobs=2, chunk_size=2).evaluate_batch(schemes, small_traces)
        finally:
            set_telemetry(previous)
        thread_scoped = Telemetry()
        previous = set_thread_telemetry(thread_scoped)
        try:
            ParallelEngine(jobs=2, chunk_size=2).evaluate_batch(schemes, small_traces)
        finally:
            set_thread_telemetry(previous)
        assert process_wide.counters["plan.trace_passes"] > 0
        assert (
            thread_scoped.counters.get("plan.trace_passes")
            == process_wide.counters["plan.trace_passes"]
        )

    def test_steal_telemetry_recorded(self, small_traces):
        # every scheme in SCHEMES has a distinct IndexSpec, so each plan
        # batch is a singleton -- and adjacent singleton batches merge into
        # one schedulable segment, so the pinned chunk_size=2 is honoured
        # instead of being clamped down to one-scheme chunks.
        schemes = [parse_scheme(text) for text in SCHEMES]
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            ParallelEngine(jobs=2, chunk_size=2).evaluate_batch(
                schemes, small_traces
            )
        finally:
            set_telemetry(previous)
        assert sink.counters["engine.parallel.steal.chunks"] == len(schemes) // 2
        assert sink.counters.get("engine.parallel.steal.segment_clamps", 0) == 0
        assert sink.gauges["engine.parallel.steal.final_chunk_size"] == 2
        assert sink.gauges["engine.parallel.steal.schemes_per_sec"] > 0
        assert sink.gauges["engine.parallel.steal.events_per_sec"] > 0
        # fixed chunking reports no adaptive target
        assert sink.gauges["engine.parallel.steal.target_seconds"] == 0.0
        # the plan's shape is recorded alongside the steal stats
        assert sink.counters["plan.index_groups"] == len(schemes)
        assert sink.counters["plan.schemes"] == len(schemes)

    def test_steal_chunks_shared_specs_keep_pinned_size(self, small_traces):
        # schemes sharing one IndexSpec form a single plan batch, so the
        # pinned chunk size is honoured and key streams are computed once
        # per (worker, trace, group) -- visible as worker key-cache hits.
        schemes = [
            parse_scheme(text)
            for text in [
                "last(add6)1",
                "union(add6)2",
                "union(add6)4",
                "inter(add6)2",
                "inter(add6)3",
                "overlap(add6)1",
            ]
        ]
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            ParallelEngine(jobs=2, chunk_size=2).evaluate_batch(
                schemes, small_traces
            )
        finally:
            set_telemetry(previous)
        assert sink.counters["engine.parallel.steal.chunks"] == len(schemes) // 2
        assert sink.counters["engine.parallel.steal.segment_clamps"] == 0
        assert sink.gauges["engine.parallel.steal.final_chunk_size"] == 2
        assert sink.counters["plan.index_groups"] == 1

    def test_on_result_fires_once_per_scheme(self, small_traces):
        schemes = [parse_scheme(text) for text in SCHEMES]
        seen = {}
        engine = ParallelEngine(jobs=2, chunk_size=3)
        results = engine.evaluate_batch(
            schemes, small_traces, on_result=lambda i, counts: seen.setdefault(i, counts)
        )
        assert sorted(seen) == list(range(len(schemes)))
        for index, counts in seen.items():
            assert counts == results[index]

    def test_on_result_fires_in_serial_fallback(self, small_traces, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no processes here")

        monkeypatch.setattr("repro.engine.parallel.ProcessPoolExecutor", broken_pool)
        schemes = [parse_scheme(text) for text in SCHEMES]
        seen = []
        ParallelEngine(jobs=2).evaluate_batch(
            schemes, small_traces, on_result=lambda i, counts: seen.append(i)
        )
        assert seen == list(range(len(schemes)))
