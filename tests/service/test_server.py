"""Wire protocol: client/server round trips over a real socket.

A live :class:`SweepServer` runs on an ephemeral port in a background
thread; the synchronous :class:`ServiceClient` talks to it exactly as a
remote caller would.  The load-bearing assertions: served results decode
to objects bit-identical to direct in-process computation (TrafficReport
and scenario rows included), identical submissions coalesce across
*connections*, and progress streams relay job telemetry.
"""

import asyncio
import threading
import time

import pytest

from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.service.client import ServiceClient, ServiceError
from repro.service.handles import DEDUP_COALESCED, DEDUP_NEW, DONE
from repro.service.jobs import JobSpec, TraceSuiteSpec, scenario_job
from repro.service.registry import JobRegistry
from repro.service.server import SweepServer
from repro.telemetry import Telemetry, set_telemetry

SCHEMES = ["last()1[direct]", "inter(pid+add8)2[direct]"]


def suite_spec():
    return TraceSuiteSpec(
        benchmarks=("ocean",), num_nodes=8,
        params={"ocean": {"grid_size": 32, "iterations": 2}},
    )


def serve_in_thread(server):
    """Run ``server`` on its own event loop in a daemon thread, once bound."""
    ready = threading.Event()

    def run():
        async def go():
            await server.start()
            ready.set()
            await server.serve_until_stopped()

        asyncio.run(go())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "server never came up"
    return thread


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    """One live server per test class: registry + socket + telemetry sink."""
    tmp = tmp_path_factory.mktemp("service")
    import os

    previous_cache = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "traces")
    previous_sink = set_telemetry(Telemetry())
    registry = JobRegistry(engine=VectorizedEngine(), state_dir=tmp / "state")
    server = SweepServer(registry, port=0)
    thread = serve_in_thread(server)
    client = ServiceClient(port=server.port)
    yield client
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive(), "server thread outlived stop()"
    registry.close()
    set_telemetry(previous_sink)
    if previous_cache is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous_cache


class TestProtocol:
    def test_ping(self, service):
        assert service.ping()["schema"] == 1

    def test_unknown_op_is_an_error_not_a_hangup(self, service):
        with pytest.raises(ServiceError, match="unknown op"):
            service._request({"op": "frobnicate"})

    def test_unknown_job_errors(self, service):
        with pytest.raises(ServiceError, match="unknown job"):
            service.status("does-not-exist")

    def test_malformed_spec_is_rejected_cleanly(self, service):
        with pytest.raises(ServiceError, match="schema"):
            service._request({"op": "submit", "spec": {"schema": 999}})
        assert service.ping()["ok"]  # the connection machinery survived


class TestRoundTrips:
    def test_sweep_rows_bit_identical_to_direct_api(self, service):
        """The headline claim: served bits == direct-call bits."""
        from repro import api

        handle = service.submit(JobSpec.make("sweep", SCHEMES, suite_spec()))
        served = handle.result(timeout=300)
        traces = suite_spec().build().traces()
        direct = api.sweep(SCHEMES, traces, engine=VectorizedEngine())
        assert served == direct

    def test_traffic_report_round_trips_bit_identical(self, service):
        handle = service.submit(
            JobSpec.make("traffic", ["last()1"], suite_spec(), topology="ring")
        )
        [[served]] = handle.result(timeout=300)
        trace = suite_spec().build().traces()[0]
        from repro.forwarding.simulator import ForwardingConfig

        direct = VectorizedEngine().simulate_traffic(
            parse_scheme("last()1"), trace, config=ForwardingConfig(topology="ring")
        )
        assert served == direct  # frozen dataclass: field-for-field identical

    def test_scenario_rows_round_trip(self, service):
        from repro.harness.experiments.scenarios import (
            ScenarioGrid,
            run_grid_cells,
        )

        grid = ScenarioGrid(
            name="wire-cell",
            title="one served scenario cell",
            workloads=("water",),
            node_counts=(16,),
            seeds=(0,),
            schemes=("last()1[direct]",),
        )
        handle = service.submit(scenario_job(grid))
        served = handle.result(timeout=300)
        direct = run_grid_cells(grid, VectorizedEngine())
        assert served == direct

    def test_status_and_jobs_reflect_completion(self, service):
        spec = JobSpec.make("sweep", ["last()1"], suite_spec())
        handle = service.submit(spec)
        handle.result(timeout=300)
        status = handle.status()
        assert status.state == DONE
        assert status.completed == status.total == 1
        assert any(s.job_id == handle.job_id for s in service.jobs())


class TestWireDedup:
    def test_identical_submissions_coalesce_across_connections(self, service):
        # distinct spec (exclude_writer=False) so no earlier test computed it
        spec = JobSpec.make("sweep", SCHEMES, suite_spec(), exclude_writer=False)
        first = service.submit(spec)
        second = service.submit(spec)
        assert first.job_id == second.job_id
        origins = {first.dedup, second.dedup}
        # the first submission is new; the second coalesces (or, if the
        # job already finished, is served as the same record)
        assert DEDUP_NEW in origins
        a = first.result(timeout=300)
        b = second.result(timeout=300)
        assert a == b
        telemetry = service.telemetry()
        assert telemetry["counters"].get("service.dedup.coalesced", 0) >= 1

    def test_coalescing_is_observable_while_in_flight(self, service, monkeypatch):
        import os

        os.environ["REPRO_SERVICE_TEST_DELAY"] = "0.2"
        try:
            spec = JobSpec.make(
                "sweep", SCHEMES + ["union(add4)2[direct]"], suite_spec(),
                topology="hypercube",
            )
            first = service.submit(spec)
            second = service.submit(spec)
        finally:
            os.environ.pop("REPRO_SERVICE_TEST_DELAY", None)
        assert (first.dedup, second.dedup) == (DEDUP_NEW, DEDUP_COALESCED)
        assert first.result(timeout=300) == second.result(timeout=300)


class TestStreaming:
    def test_stream_relays_progress_and_telemetry(self, service):
        spec = JobSpec.make("sweep", SCHEMES, suite_spec(), topology="ring")
        handle = service.submit(spec)
        events = list(handle.stream_progress())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "state"
        assert kinds[-1] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["completed"] for e in progress] == [1, 2]
        telemetry_names = {
            e["name"] for e in events if e["event"] == "telemetry"
        }
        assert any(n.startswith(("plan.", "engine.")) for n in telemetry_names)

    def test_two_streams_see_the_same_history(self, service):
        spec = JobSpec.make("sweep", ["last()1"], suite_spec(), topology="ring")
        handle = service.submit(spec)
        handle.result(timeout=300)
        first = list(service.stream(handle.job_id))
        second = list(service.stream(handle.job_id))
        assert first == second


class TestShutdown:
    @pytest.fixture
    def idle_server(self, tmp_path):
        registry = JobRegistry(engine=VectorizedEngine(), state_dir=tmp_path / "state")
        server = SweepServer(registry, port=0)
        thread = serve_in_thread(server)
        yield server, thread
        server.stop()
        thread.join(timeout=10)
        registry.close()

    def test_stop_from_another_thread_ends_serving(self, idle_server):
        """``stop`` wakes the server's loop from a foreign thread: serving
        ends at once, not at the next socket event."""
        server, thread = idle_server
        started = time.monotonic()
        server.stop()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert time.monotonic() - started < 2
