"""Fault injection against real socket workers: death is re-stolen, not lost.

The worker protocol's failure contract (DESIGN.md, "Distributed
runner"): a worker that dies or drops its connection mid-sweep loses
nothing -- its outstanding chunks are re-stolen by survivors and the final
results are bit-identical to a serial run, because transports move
work, never math.  These tests SIGKILL a genuine ``repro-worker``
subprocess, and a forked local worker, mid-chunk and sever a coordinator
connection, then pin exactly that contract, including the
``engine.remote.*`` telemetry trail.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

import repro.engine.remote as remote
from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.parallel import ParallelEngine
from repro.telemetry import Telemetry, set_telemetry
from tests.conftest import make_random_trace
from tests.engine.remote_harness import (
    DELAY_ENV,
    DROP_AFTER_ENV,
    EXIT_AFTER_ENV,
    spawn_worker,
    stop_workers,
)

SCHEMES = [
    "last()1[direct]",
    "inter(pid+add8)2[direct]",
    "union(add4)2[direct]",
    "inter(pc4)2[forwarded]",
    "union(dir+add6)2[direct]",
    "overlap(dir+add10)1[direct]",
    "last(dir+add4)1[direct]",
    "inter(pid+pc8)2[ordered]",
]


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=300, num_blocks=16, seed="fault-a"),
        make_random_trace(num_nodes=8, num_events=240, num_blocks=12, seed="fault-b"),
    ]


@pytest.fixture
def telemetry():
    sink = Telemetry()
    previous = set_telemetry(sink)
    yield sink
    set_telemetry(previous)


def run_remote(hosts, traces, chunk_timeout=None):
    schemes = [parse_scheme(text) for text in SCHEMES]
    engine = ParallelEngine(hosts=hosts, chunk_timeout=chunk_timeout)
    return engine.evaluate_batch(schemes, traces)


def single_host_baseline(traces):
    schemes = [parse_scheme(text) for text in SCHEMES]
    return VectorizedEngine().evaluate_batch(schemes, traces)


class TestWorkerDeath:
    def test_sigkill_mid_chunk_resteals_and_stays_bit_identical(
        self, tmp_path, traces, telemetry
    ):
        """SIGKILL a worker while it is inside a chunk; survivors finish.

        The victim is slowed to seconds per chunk, so the kill is
        guaranteed to land mid-chunk with work outstanding on its socket.
        """
        victim, victim_addr = spawn_worker(
            tmp_path, "victim", env={DELAY_ENV: "30"}
        )
        survivor, survivor_addr = spawn_worker(tmp_path, "survivor")
        try:
            # give the victim time to be dealt its first chunk, then kill -9
            killer = threading.Timer(
                1.0, lambda: os.kill(victim.pid, signal.SIGKILL)
            )
            killer.start()
            try:
                results = run_remote([victim_addr, survivor_addr], traces)
            finally:
                killer.cancel()
            assert results == single_host_baseline(traces)
        finally:
            stop_workers([victim, survivor])
        assert telemetry.counters["engine.remote.resteals"] >= 1
        assert telemetry.counters["engine.remote.worker_deaths"] >= 1
        # the re-steal recovered everything: no serial fallback happened
        assert "engine.parallel.fallbacks" not in telemetry.counters

    def test_deterministic_exit_mid_request_is_recovered(
        self, tmp_path, traces, telemetry
    ):
        """A worker that os._exit(137)s inside a request loses no chunks."""
        flaky, flaky_addr = spawn_worker(
            tmp_path, "flaky", env={EXIT_AFTER_ENV: "1"}
        )
        steady, steady_addr = spawn_worker(tmp_path, "steady")
        try:
            results = run_remote([flaky_addr, steady_addr], traces)
            assert results == single_host_baseline(traces)
            assert flaky.wait(timeout=10) == 137
        finally:
            stop_workers([flaky, steady])
        assert telemetry.counters["engine.remote.resteals"] >= 1
        assert telemetry.counters["engine.remote.worker_deaths"] >= 1
        assert "engine.parallel.fallbacks" not in telemetry.counters
        # the steady worker carried the re-stolen load
        steady_key = steady_addr.replace(":", "_").replace(".", "_")
        assert telemetry.counters[f"engine.remote.host.{steady_key}.chunks"] >= 1

    def test_all_workers_dead_falls_back_serially_bit_identical(
        self, tmp_path, traces, telemetry
    ):
        """Losing the whole fleet degrades to the serial path, same bits."""
        only, only_addr = spawn_worker(tmp_path, "only", env={EXIT_AFTER_ENV: "1"})
        try:
            results = run_remote([only_addr], traces)
            assert results == single_host_baseline(traces)
        finally:
            stop_workers([only])
        assert telemetry.counters["engine.parallel.fallbacks"] >= 1


class TestConnectionDrop:
    def test_dropped_coordinator_connection_is_restolen(
        self, tmp_path, traces, telemetry
    ):
        """A severed connection (worker still alive) behaves like a death.

        The dropper serves one chunk then severs the socket without
        exiting; the coordinator must re-steal its outstanding work onto
        the other worker and still match the single-host bits.
        """
        dropper, dropper_addr = spawn_worker(
            tmp_path, "dropper", env={DROP_AFTER_ENV: "1"}
        )
        steady, steady_addr = spawn_worker(tmp_path, "steady2")
        try:
            results = run_remote([dropper_addr, steady_addr], traces)
            assert results == single_host_baseline(traces)
            # the dropper is deliberately still alive: only its link died
            assert dropper.poll() is None
        finally:
            stop_workers([dropper, steady])
        assert telemetry.counters["engine.remote.resteals"] >= 1
        assert "engine.parallel.fallbacks" not in telemetry.counters

    def test_hung_worker_times_out_and_is_restolen(
        self, tmp_path, traces, telemetry
    ):
        """A hung (not dead) worker trips the chunk timeout and is dropped."""
        hung, hung_addr = spawn_worker(tmp_path, "hung", env={DELAY_ENV: "60"})
        steady, steady_addr = spawn_worker(tmp_path, "steady3")
        try:
            results = run_remote(
                [hung_addr, steady_addr], traces, chunk_timeout=2.0
            )
            assert results == single_host_baseline(traces)
        finally:
            stop_workers([hung, steady])
        assert telemetry.counters["engine.remote.resteals"] >= 1
        assert "engine.parallel.fallbacks" not in telemetry.counters


class TestLocalWorkerDeath:
    """The same contract over forked local workers (``jobs=2``)."""

    def test_sigkill_mid_chunk_resteals_and_stays_bit_identical(
        self, traces, telemetry, monkeypatch
    ):
        """SIGKILL the first local worker while it sits in a chunk.

        Only the victim inherits the delay hook: it is set in the
        environment for the victim's fork alone.
        """
        victims = []
        real_fork = remote.fork_worker

        def fork_slow_victim(inherited):
            if victims:
                return real_fork(inherited)
            monkeypatch.setenv(DELAY_ENV, "30")
            try:
                pid, sock = real_fork(inherited)
            finally:
                monkeypatch.delenv(DELAY_ENV)
            victims.append(pid)
            return pid, sock

        monkeypatch.setattr(remote, "fork_worker", fork_slow_victim)
        schemes = [parse_scheme(text) for text in SCHEMES]
        killer = threading.Timer(1.0, lambda: os.kill(victims[0], signal.SIGKILL))
        killer.start()
        try:
            results = ParallelEngine(jobs=2).evaluate_batch(schemes, traces)
        finally:
            killer.cancel()
        assert results == single_host_baseline(traces)
        assert telemetry.counters["engine.remote.resteals"] >= 1
        assert telemetry.counters["engine.remote.worker_deaths"] >= 1
        assert "engine.parallel.fallbacks" not in telemetry.counters

    def test_every_local_worker_exiting_falls_back_serially(
        self, traces, telemetry, monkeypatch
    ):
        """Local workers inherit the exit hook: all die, the serial path
        recomputes, same bits."""
        monkeypatch.setenv(EXIT_AFTER_ENV, "0")
        schemes = [parse_scheme(text) for text in SCHEMES]
        results = ParallelEngine(jobs=2).evaluate_batch(schemes, traces)
        assert results == single_host_baseline(traces)
        assert telemetry.counters["engine.parallel.fallbacks"] >= 1
