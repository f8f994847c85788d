"""Local workers: forked socket workers that live and die with their coordinator.

``ParallelEngine(jobs=N)`` forks N workers, each serving the worker
protocol on one end of a socket pair.  These tests pin what that buys:
a coordinator killed by SIGKILL leaves no worker behind, a persistent
engine that lost a worker rebuilds to full strength before its next batch,
workers lost during setup cost only themselves, and every install refuses
a trace whose fingerprint is not its ref's.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.schemes import parse_scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.parallel import ParallelEngine
from repro.engine.transport import install_traces, run_chunk
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.interchange import trace_image, write_source
from repro.trace.source import stream_fingerprint
from tests.conftest import make_random_trace

SRC = Path(__file__).resolve().parents[2] / "src"

SCHEMES = [
    "last()1[direct]",
    "inter(pid+add8)2[direct]",
    "union(add4)2[direct]",
    "inter(pc4)2[forwarded]",
]

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
    reason="needs os.fork and /proc",
)


@pytest.fixture
def traces():
    return [
        make_random_trace(num_nodes=8, num_events=200, num_blocks=12, seed="local-a"),
        make_random_trace(num_nodes=8, num_events=160, num_blocks=10, seed="local-b"),
    ]


@pytest.fixture
def forked(monkeypatch):
    """The pids of every local worker forked while the test runs."""
    import repro.engine.remote as remote

    pids = []
    real_fork = remote.fork_worker

    def recording_fork(inherited):
        pid, sock = real_fork(inherited)
        pids.append(pid)
        return pid, sock

    monkeypatch.setattr(remote, "fork_worker", recording_fork)
    return pids


def _gone(pid: int) -> bool:
    """Whether a process has exited (a zombie nobody reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


def _wait_gone(pids, timeout: float) -> list:
    """Wait up to ``timeout`` seconds for ``pids`` to exit; the survivors."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not all(map(_gone, pids)):
        time.sleep(0.05)
    return [pid for pid in pids if not _gone(pid)]


COORDINATOR = textwrap.dedent(
    """
    import os, sys, time
    from repro.core.schemes import parse_scheme
    from repro.engine.parallel import ParallelEngine
    from tests.conftest import make_random_trace

    def children():
        # every process whose parent is this one: the workers, whatever
        # kind of worker the engine starts
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == os.getpid():
                found.append(int(entry))
        return found

    traces = [make_random_trace(num_nodes=8, num_events=200, num_blocks=12,
                                seed="orphan")]
    schemes = [parse_scheme(text) for text in sys.argv[1:]]
    engine = ParallelEngine(jobs=2, persistent=True)
    engine.evaluate_batch(schemes, traces)
    print(" ".join(str(pid) for pid in children()), flush=True)
    time.sleep(600)
    """
)


@needs_fork
def test_sigkilled_coordinator_leaves_no_workers(tmp_path):
    """A coordinator killed by SIGKILL cannot clean up; its workers must
    notice on their own (EOF on their socket) and exit."""
    script = tmp_path / "coordinator.py"
    script.write_text(COORDINATOR, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(SRC.parent), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    coordinator = subprocess.Popen(
        [sys.executable, str(script), *SCHEMES],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([coordinator.stdout], [], [], 120.0)
        assert ready, "the coordinator never reported its workers"
        line = coordinator.stdout.readline()
        workers = [int(pid) for pid in line.split()]
        assert len(workers) >= 2, f"coordinator reported workers {line!r}"
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=10)
        alive = _wait_gone(workers, 10.0)
        for pid in alive:  # do not leak them past a failing test
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"workers outlived their coordinator: {alive}"
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait(timeout=10)
        coordinator.stdout.close()


@needs_fork
def test_lost_worker_is_replaced_before_the_next_batch(traces, forked):
    """A persistent engine never runs on fewer local workers than asked."""
    schemes = [parse_scheme(text) for text in SCHEMES]
    with ParallelEngine(jobs=2, persistent=True) as engine:
        first = engine.evaluate_batch(schemes, traces)
        assert len(forked) == 2
        os.kill(forked[0], signal.SIGKILL)
        # wait for the exit without reaping: the transport reaps its own
        assert _wait_gone([forked[0]], 10.0) == []
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            second = engine.evaluate_batch(schemes, traces)
        finally:
            set_telemetry(previous)
    assert first == second == VectorizedEngine().evaluate_batch(schemes, traces)
    assert sink.gauges["engine.parallel.workers"] == 2
    assert "engine.parallel.pool_reuses" not in sink.counters
    assert len(forked) == 4
    assert all(map(_gone, forked))


@needs_fork
@pytest.mark.parametrize(
    "dies", ["before the handshake", "before its install", "during its install"]
)
def test_workers_lost_during_setup_cost_only_themselves(traces, monkeypatch, dies):
    """Setup sends each step to every worker before reading any reply.  Of
    three workers, the first is lost at the step under test and the second
    speaks another wire schema: both are dropped and the third serves."""
    import repro.engine.remote as remote

    forked = []
    real_fork = remote.fork_worker
    real_install = remote.SocketTransport._install

    def kill_the_first():
        os.kill(forked[0], signal.SIGKILL)
        # exited (not yet reaped): its end of the socket pair is closed
        assert _wait_gone(forked[:1], 10.0) == []

    def fork_with(name, value, inherited):
        """Fork a worker that alone inherits ``remote.<name> = value``."""
        real_value = getattr(remote, name)
        monkeypatch.setattr(remote, name, value)
        try:
            return real_fork(inherited)
        finally:
            monkeypatch.setattr(remote, name, real_value)

    def fork_two_doomed(inherited):
        if not forked and dies == "during its install":
            exit_unanswered = lambda payload: os._exit(1)  # noqa: E731
            pid, sock = fork_with("install_traces", exit_unanswered, inherited)
        elif len(forked) == 1:
            pid, sock = fork_with("WIRE_SCHEMA", remote.WIRE_SCHEMA + 1, inherited)
        else:
            pid, sock = real_fork(inherited)
        forked.append(pid)
        if len(forked) == 1 and dies == "before the handshake":
            kill_the_first()
        return pid, sock

    def install_after_killing_the_first(self, *args):
        kill_the_first()
        return real_install(self, *args)

    monkeypatch.setattr(remote, "fork_worker", fork_two_doomed)
    if dies == "before its install":
        monkeypatch.setattr(
            remote.SocketTransport, "_install", install_after_killing_the_first
        )
    schemes = [parse_scheme(text) for text in SCHEMES]
    sink = Telemetry()
    previous = set_telemetry(sink)
    try:
        results = ParallelEngine(jobs=3).evaluate_batch(schemes, traces)
    finally:
        set_telemetry(previous)
    assert results == VectorizedEngine().evaluate_batch(schemes, traces)
    assert sink.counters["engine.remote.connect_failures"] == 2
    assert sink.gauges["engine.parallel.workers"] == 1
    assert "engine.parallel.fallbacks" not in sink.counters
    assert len(forked) == 3
    assert all(map(_gone, forked))


@needs_fork
def test_closed_engine_reaps_its_workers(traces, forked):
    schemes = [parse_scheme(text) for text in SCHEMES]
    with ParallelEngine(jobs=2, persistent=True) as engine:
        engine.evaluate_batch(schemes, traces)
    assert len(forked) == 2
    for pid in forked:  # reaped: no longer our child, not even a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestInstallTraces:
    """Every worker installs through ``install_traces``, which refuses a
    trace whose content fingerprint is not its ref's."""

    def test_image_ref_installs_and_serves_chunks(self, traces):
        schemes = [parse_scheme(text) for text in SCHEMES]
        install_traces(
            {
                "traces": [
                    {"fingerprint": stream_fingerprint(trace), "image": trace_image(trace)}
                    for trace in traces
                ]
            }
        )
        payloads, _elapsed, events, snapshot = run_chunk(
            "evaluate", schemes, {"exclude_writer": True}, with_telemetry=True
        )
        expected = VectorizedEngine().evaluate_batch(schemes, traces)
        assert payloads == [
            [
                [c.true_positive, c.false_positive, c.false_negative, c.true_negative]
                for c in per_trace
            ]
            for per_trace in expected
        ]
        assert events == len(schemes) * sum(len(trace) for trace in traces)
        worker = f"engine.parallel.worker.{os.getpid()}"
        assert snapshot["counters"][f"{worker}.chunks"] == 1

    def test_image_ref_with_a_foreign_fingerprint_is_refused(self, traces):
        ref = {"fingerprint": stream_fingerprint(traces[1]), "image": trace_image(traces[0])}
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            install_traces({"traces": [ref]})

    def test_path_ref_with_a_foreign_fingerprint_is_refused(self, traces, tmp_path):
        path = tmp_path / "a.rtrace"
        write_source(traces[0], path)
        ref = {"fingerprint": stream_fingerprint(traces[1]), "path": str(path)}
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            install_traces({"traces": [ref]})
