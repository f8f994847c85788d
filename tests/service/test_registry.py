"""Registry semantics: coalescing, caching, failure, recovery, telemetry.

The load-bearing claims: two concurrent identical submissions are ONE
computation with two identical results; a finished job's payload survives
a registry restart via the durable result cache; a failed job re-raises the
original exception in every waiter and leaves the dedup map so a retry
recomputes.
"""

import threading

import pytest

from repro.engine.backends import VectorizedEngine
from repro.service.handles import (
    DEDUP_CACHED,
    DEDUP_COALESCED,
    DEDUP_NEW,
    DONE,
    FAILED,
    LocalJobHandle,
)
from repro.service.jobs import JobSpec, JobSpecError, TraceSuiteSpec, inline_traces
from repro.service.registry import JobRegistry
from repro.telemetry import Telemetry, set_telemetry
from tests.conftest import make_random_trace

SCHEMES = ["last()1", "inter(pid+add8)2[direct]", "union(add4)2[direct]"]


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=150, num_blocks=10, seed="reg-a"),
        make_random_trace(num_nodes=8, num_events=120, num_blocks=8, seed="reg-b"),
    ]


@pytest.fixture
def telemetry():
    sink = Telemetry()
    previous = set_telemetry(sink)
    yield sink
    set_telemetry(previous)


class MarkerError(RuntimeError):
    pass


class GatedEngine(VectorizedEngine):
    """Holds every batch at the door until the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.batches = 0

    def evaluate_batch(self, schemes, traces, **kwargs):
        assert self.gate.wait(timeout=30), "test gate never opened"
        self.batches += 1
        return super().evaluate_batch(schemes, traces, **kwargs)


class ExplodingEngine(VectorizedEngine):
    def evaluate_batch(self, schemes, traces, **kwargs):
        raise MarkerError("boom")


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_computation(
        self, traces, telemetry
    ):
        """The tentpole dedup contract: two identical in-flight submissions
        -> one engine batch, two handles, identical result bits."""
        engine = GatedEngine()
        spec = JobSpec.make("evaluate", SCHEMES, inline_traces(traces))
        with JobRegistry(engine=engine) as registry:
            first, first_origin = registry.submit(spec, traces=traces)
            second, second_origin = registry.submit(spec, traces=traces)
            assert first is second  # the SAME record, not an equal one
            assert (first_origin, second_origin) == (DEDUP_NEW, DEDUP_COALESCED)
            engine.gate.set()
            a = LocalJobHandle(first, first_origin).result(timeout=60)
            b = LocalJobHandle(second, second_origin).result(timeout=60)
        assert engine.batches == 1
        assert a == b
        assert telemetry.counters["service.dedup.coalesced"] == 1
        assert telemetry.counters["service.jobs.submitted"] == 1

    def test_different_specs_do_not_coalesce(self, traces, telemetry):
        engine = GatedEngine()
        engine.gate.set()
        with JobRegistry(engine=engine) as registry:
            a, _ = registry.submit(
                JobSpec.make("evaluate", ["last()1"], inline_traces(traces)),
                traces=traces,
            )
            b, origin = registry.submit(
                JobSpec.make("evaluate", ["union(add4)2"], inline_traces(traces)),
                traces=traces,
            )
            assert a is not b
            assert origin == DEDUP_NEW
            LocalJobHandle(a).result(timeout=60)
            LocalJobHandle(b).result(timeout=60)
        assert "service.dedup.coalesced" not in telemetry.counters

    def test_in_memory_records_evict_once_done(self, traces):
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(engine=VectorizedEngine()) as registry:
            record, _ = registry.submit(spec, traces=traces)
            LocalJobHandle(record).result(timeout=60)
            # the handle still works; the registry no longer tracks the job
            assert registry.get(record.job_id) is None
            assert record.status().state == DONE


class TestFailure:
    def test_failure_reraises_original_exception(self, traces, telemetry):
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(engine=ExplodingEngine()) as registry:
            record, _ = registry.submit(spec, traces=traces)
            with pytest.raises(MarkerError):
                LocalJobHandle(record).result(timeout=60)
            assert record.status().state == FAILED
            assert "boom" in record.status().error
            assert telemetry.counters["service.jobs.failed"] == 1

    def test_resubmission_after_failure_retries(self, traces):
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(engine=ExplodingEngine()) as registry:
            record, _ = registry.submit(spec, traces=traces)
            with pytest.raises(MarkerError):
                record.wait(timeout=60)
            retry, origin = registry.submit(
                spec, traces=traces, engine=VectorizedEngine()
            )
            assert retry is not record
            assert origin == DEDUP_NEW
            assert LocalJobHandle(retry).result(timeout=60)

    def test_inline_traces_need_objects(self, traces):
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(engine=VectorizedEngine()) as registry:
            with pytest.raises(JobSpecError, match="trace objects"):
                registry.submit(spec)


class TestDurableState:
    @pytest.fixture
    def suite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traces"))
        return TraceSuiteSpec(
            benchmarks=("ocean",), num_nodes=8,
            params={"ocean": {"grid_size": 32, "iterations": 2}},
        )

    def test_result_cache_survives_registry_restart(
        self, tmp_path, suite, telemetry
    ):
        """The durable dedup contract: a restarted registry serves the
        stored payload without recomputing -- bit-identical by storage."""
        state = tmp_path / "state"
        spec = JobSpec.make("sweep", SCHEMES, suite)
        with JobRegistry(engine=VectorizedEngine(), state_dir=state) as registry:
            record, _ = registry.submit(spec)
            first = LocalJobHandle(record).result(timeout=120)
        with JobRegistry(engine=ExplodingEngine(), state_dir=state) as registry:
            record, origin = registry.submit(spec)
            assert origin == DEDUP_CACHED  # ExplodingEngine never ran
            second = LocalJobHandle(record, origin).result(timeout=60)
        assert first == second
        assert telemetry.counters["service.dedup.cache_hits"] == 1

    def test_server_mode_rejects_inline_traces(self, tmp_path):
        traces = [make_random_trace(num_nodes=8, num_events=50, seed="reg-c")]
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(
            engine=VectorizedEngine(), state_dir=tmp_path / "state"
        ) as registry:
            with pytest.raises(JobSpecError, match="re-materialize"):
                registry.submit(spec, traces=traces)

    def test_recover_resubmits_unfinished_jobs(self, tmp_path, suite, telemetry):
        """A job that died mid-run is resubmitted by recover() and resumes
        from its journal: already-recorded schemes replay, only the rest
        evaluate, and the payload equals an uninterrupted run's."""
        state = tmp_path / "state"

        class DiesAfterOne(VectorizedEngine):
            def evaluate_batch(self, schemes, traces, *, on_result=None, **kwargs):
                def tripwire(index, per_trace):
                    on_result(index, per_trace)
                    raise MarkerError("simulated crash after first checkpoint")

                return super().evaluate_batch(
                    schemes, traces, on_result=tripwire, **kwargs
                )

        spec = JobSpec.make("sweep", SCHEMES, suite)
        with JobRegistry(engine=DiesAfterOne(), state_dir=state) as registry:
            record, _ = registry.submit(spec)
            with pytest.raises(MarkerError):
                record.wait(timeout=120)
        journal = state / "journals" / f"sweep-{spec.fingerprint()}.jsonl"
        assert journal.exists()
        assert len(journal.read_text().splitlines()) == 2  # header + 1 scheme

        class CountingEngine(VectorizedEngine):
            def __init__(self):
                super().__init__()
                self.seen = []

            def evaluate_batch(self, schemes, traces, **kwargs):
                self.seen.extend(s.full_name for s in schemes)
                return super().evaluate_batch(schemes, traces, **kwargs)

        counting = CountingEngine()
        with JobRegistry(engine=counting, state_dir=state) as registry:
            assert registry.recover() == 1
            record = registry.get(spec.fingerprint())
            resumed = LocalJobHandle(record).result(timeout=120)
        assert len(counting.seen) == len(SCHEMES) - 1  # one scheme replayed

        with JobRegistry(
            engine=VectorizedEngine(), state_dir=tmp_path / "clean"
        ) as registry:
            record, _ = registry.submit(spec)
            clean = LocalJobHandle(record).result(timeout=120)
        assert resumed == clean
        assert telemetry.counters["service.jobs.recovered"] == 1

    def test_recover_skips_finished_jobs(self, tmp_path, suite):
        state = tmp_path / "state"
        spec = JobSpec.make("sweep", ["last()1"], suite)
        with JobRegistry(engine=VectorizedEngine(), state_dir=state) as registry:
            record, _ = registry.submit(spec)
            record.wait(timeout=120)
        with JobRegistry(engine=ExplodingEngine(), state_dir=state) as registry:
            assert registry.recover() == 0

    def test_per_job_telemetry_artifact_written(self, tmp_path, suite):
        state = tmp_path / "state"
        spec = JobSpec.make("sweep", ["last()1"], suite)
        with JobRegistry(engine=VectorizedEngine(), state_dir=state) as registry:
            record, _ = registry.submit(spec)
            record.wait(timeout=120)
        artifact = state / "telemetry" / f"{spec.fingerprint()}.json"
        assert artifact.exists()
        import json

        stored = json.loads(artifact.read_text())
        assert stored["kind"] == "sweep"
        assert stored["telemetry"]["counters"]["journal.records"] == 1


class TestProgressEvents:
    def test_event_stream_orders_progress_then_terminal(self, traces):
        spec = JobSpec.make("evaluate", SCHEMES, inline_traces(traces))
        with JobRegistry(engine=VectorizedEngine()) as registry:
            record, _ = registry.submit(spec, traces=traces)
            events = list(LocalJobHandle(record).stream_progress())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "state"
        assert kinds[-1] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["completed"] for e in progress] == [1, 2, 3]
        assert all(e["total"] == len(SCHEMES) for e in progress)

    def test_late_subscriber_replays_full_history(self, traces):
        spec = JobSpec.make("evaluate", ["last()1"], inline_traces(traces))
        with JobRegistry(engine=VectorizedEngine()) as registry:
            record, _ = registry.submit(spec, traces=traces)
            record.wait(timeout=60)  # job fully done before anyone streams
            events = list(record.iter_events())
        assert [e["event"] for e in events] == ["state", "progress", "done"]

    def test_server_mode_streams_job_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traces"))
        suite = TraceSuiteSpec(
            benchmarks=("ocean",), num_nodes=8,
            params={"ocean": {"grid_size": 32, "iterations": 2}},
        )
        spec = JobSpec.make("sweep", ["last()1"], suite)
        with JobRegistry(
            engine=VectorizedEngine(), state_dir=tmp_path / "state"
        ) as registry:
            record, _ = registry.submit(spec)
            events = list(record.iter_events())
        names = {e["name"] for e in events if e["event"] == "telemetry"}
        assert any(name.startswith("journal.") for name in names)
        assert any(name.startswith(("plan.", "engine.")) for name in names)


class TestSuiteReuse:
    def test_consecutive_jobs_on_one_suite_load_it_once(self, telemetry, monkeypatch):
        """The registry keeps the last suite's traces: a second job on the
        committed seed-0 suite loads nothing, and a job on another seed
        replaces the one entry."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        seed0, seed1 = TraceSuiteSpec(seed=0), TraceSuiteSpec(seed=1)
        with JobRegistry(engine=VectorizedEngine()) as registry:

            def run(scheme, suite):
                record, origin = registry.submit(JobSpec.make("sweep", [scheme], suite))
                assert origin == DEDUP_NEW
                return LocalJobHandle(record).result(timeout=120)

            run("last()1", seed0)
            run("union(add4)2[direct]", seed0)
            assert telemetry.counters["trace.io.loads"] == 7
            run("last()1", seed1)
            assert telemetry.counters["trace.io.loads"] == 14
            run("union(add4)2[direct]", seed0)
            assert telemetry.counters["trace.io.loads"] == 21
