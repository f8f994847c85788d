"""TraceSet: generation, disk caching, fingerprints, concurrent suites."""

import logging
import multiprocessing
import multiprocessing.resource_tracker
import multiprocessing.spawn
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.runner import TraceSet, generate_trace
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.io import load_trace
from repro.trace.source import stream_fingerprint

DATA_TRACES = Path(__file__).resolve().parents[2] / "data" / "traces"


@pytest.fixture
def cached_set(tmp_path):
    return TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)


class TestGenerateTrace:
    def test_returns_trace_and_stats(self):
        trace, stats = generate_trace("ocean", workload_params={"grid_size": 32, "iterations": 2})
        assert len(trace) > 0
        assert stats.writes > 0
        assert trace.name == "ocean"

    def test_deterministic(self):
        params = {"grid_size": 32, "iterations": 2}
        a, _ = generate_trace("ocean", workload_params=params)
        b, _ = generate_trace("ocean", workload_params=params)
        assert (a.truth == b.truth).all()
        assert (a.block == b.block).all()

    def test_seed_matters(self):
        params = {"molecules_per_thread": 12, "steps": 3}
        a, _ = generate_trace("mp3d", seed=0, workload_params=params)
        b, _ = generate_trace("mp3d", seed=1, workload_params=params)
        assert len(a) != len(b) or not (a.truth == b.truth).all()


class TestTraceSet:
    def test_generates_and_caches(self, cached_set, tmp_path):
        trace = cached_set.trace("ocean")
        assert len(list(tmp_path.glob("ocean-*.npz"))) == 1
        # second TraceSet over the same dir loads from disk
        reloaded = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path).trace("ocean")
        assert (trace.truth == reloaded.truth).all()

    def test_memory_cache(self, cached_set):
        assert cached_set.trace("ocean") is cached_set.trace("ocean")

    def test_stats_sidecar(self, cached_set):
        summary = cached_set.protocol_summary("ocean")
        assert summary["writes"] > 0
        assert "max_static_stores_per_node" in summary

    def test_stats_regenerated_if_missing(self, cached_set, tmp_path):
        cached_set.trace("ocean")
        for path in tmp_path.glob("*.stats.json"):
            path.unlink()
        fresh = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        assert fresh.protocol_summary("ocean")["writes"] > 0

    def test_fingerprint_stability(self, tmp_path):
        a = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        b = TraceSet(benchmarks=["ocean"], cache_dir=tmp_path)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_depends_on_seed(self, tmp_path):
        a = TraceSet(benchmarks=["ocean"], seed=0, cache_dir=tmp_path)
        b = TraceSet(benchmarks=["ocean"], seed=1, cache_dir=tmp_path)
        assert a.fingerprint() != b.fingerprint()

    def test_traces_in_suite_order(self, tmp_path):
        trace_set = TraceSet(benchmarks=["water", "ocean"], cache_dir=tmp_path)
        assert [trace.name for trace in trace_set.traces()] == ["water", "ocean"]


# ----------------------------------------------------------------------
# Concurrent suite generation
# ----------------------------------------------------------------------

#: benchmarks small enough that a suite of them is made in well under a
#: second
TINY_PARAMS = {
    "ocean": {"grid_size": 32, "iterations": 2},
    "water": {"molecules_per_thread": 6, "steps": 2},
}


@pytest.fixture
def two_cpus(monkeypatch):
    """Make ``traces()`` use one worker beside the caller, even on one CPU."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)


@pytest.fixture
def sink():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


@pytest.fixture
def generations(monkeypatch):
    """Every :class:`_SuiteGeneration` started, once its workers are up."""
    started = []
    original = runner._SuiteGeneration._start

    def recording_start(self, count):
        original(self, count)
        started.append(self)

    monkeypatch.setattr(runner._SuiteGeneration, "_start", recording_start)
    return started


def _fingerprints(traces):
    return [stream_fingerprint(trace) for trace in traces]


@pytest.mark.usefixtures("two_cpus")
class TestSuiteGeneration:
    def test_model_error_is_the_serial_paths_first(self, tmp_path, caplog):
        """Two benchmarks fail, the first in a worker: the caller raises the
        error the serial loop would meet first, with its type and message."""
        params = {"ocean": {"grid_size": 33}, "water": {"cutoff_rate": 2.0}}
        with pytest.raises(ValueError) as serial:
            generate_trace("ocean", workload_params=params["ocean"])
        trace_set = TraceSet(
            benchmarks=["gauss", "ocean", "water"],
            cache_dir=tmp_path,
            workload_params=params,
        )
        with caplog.at_level(logging.WARNING, logger="repro.harness.runner"):
            with pytest.raises(ValueError) as parallel:
                trace_set.traces()
        assert str(parallel.value) == str(serial.value)
        # the worker took ocean while this process generated gauss
        assert "owing a trace" in caplog.text
        assert multiprocessing.active_children() == []

    def test_sigkilled_worker_costs_only_time(self, tmp_path, generations, sink):
        """A worker killed mid-trace: its benchmark is generated here and the
        suite still equals the committed traces."""
        committed = TraceSet(seed=0, cache_dir=DATA_TRACES)
        finished = threading.Event()
        killed = []

        def kill_the_worker_mid_trace():
            while not finished.wait(0.01):
                if generations and generations[0].claims[1] == 1:
                    time.sleep(0.3)  # into em3d, which takes about a second
                    for child in multiprocessing.active_children():
                        os.kill(child.pid, signal.SIGKILL)
                        killed.append(child.pid)
                    return

        trace_set = TraceSet(benchmarks=["gauss", "em3d"], cache_dir=tmp_path)
        killer = threading.Thread(target=kill_the_worker_mid_trace)
        killer.start()
        try:
            traces = trace_set.traces()
        finally:
            finished.set()
            killer.join(timeout=60)
        assert killed, "the worker never took em3d"
        assert _fingerprints(traces) == _fingerprints(
            load_trace(committed._cache_path(name)) for name in ("gauss", "em3d")
        )
        assert sink.counters["cache.trace.regenerations"] == 2
        assert sink.counters.get("cache.trace.worker_regenerations", 0) == 0
        assert multiprocessing.active_children() == []

    def test_tiny_suite_does_not_wait_for_a_slow_worker(self, tmp_path, sink):
        """The caller makes a tiny suite alone before its worker's interpreter
        is up, and stops that worker instead of waiting for it."""
        multiprocessing.resource_tracker.ensure_running()
        slow_python = tmp_path / "slow-python"
        slow_python.write_text(
            f"#!{sys.executable}\n"
            "import os, sys, time\n"
            "time.sleep(30)\n"
            f"os.execv({sys.executable!r}, [{sys.executable!r}] + sys.argv[1:])\n"
        )
        slow_python.chmod(0o755)
        serial = [
            generate_trace(name, workload_params=TINY_PARAMS[name])[0]
            for name in ("ocean", "water")
        ]
        trace_set = TraceSet(
            benchmarks=["ocean", "water"],
            cache_dir=tmp_path / "cache",
            workload_params=TINY_PARAMS,
        )
        previous = multiprocessing.spawn.get_executable()
        multiprocessing.spawn.set_executable(str(slow_python))
        try:
            started = time.monotonic()
            traces = trace_set.traces()
            elapsed = time.monotonic() - started
        finally:
            multiprocessing.spawn.set_executable(previous)
        assert elapsed < 10
        assert _fingerprints(traces) == _fingerprints(serial)
        assert sink.counters["cache.trace.regenerations"] == 2
        assert sink.counters.get("cache.trace.worker_regenerations", 0) == 0
        assert multiprocessing.active_children() == []

    def test_only_missing_traces_are_generated(self, tmp_path, sink):
        """A cached trace is loaded; the two missing ones are generated."""
        TraceSet(
            benchmarks=["water"], cache_dir=tmp_path, workload_params=TINY_PARAMS
        ).traces()
        params = dict(TINY_PARAMS, mp3d={"molecules_per_thread": 12, "steps": 3})
        trace_set = TraceSet(
            benchmarks=["water", "mp3d", "ocean"],
            cache_dir=tmp_path,
            workload_params=params,
        )
        traces = trace_set.traces()
        assert [trace.name for trace in traces] == ["water", "mp3d", "ocean"]
        assert sink.counters["cache.trace.disk_hits"] == 1
        assert sink.counters["cache.trace.misses"] == 3
        assert sink.counters["cache.trace.regenerations"] == 3
        assert multiprocessing.active_children() == []
