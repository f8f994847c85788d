"""``served-mix``: ``repro-serve --jobs 2`` under a closed loop of mixed jobs.

Set-up generates the trace suite at the seed into a fresh cache and starts
the server (with its persistent two-worker pool) over it.  One client
process then keeps two jobs outstanding over two connections; each round
submits, in order:

* three ``sweep`` jobs, each a disjoint seed-drawn slice of the Tables 8-9
  design space (``sweep_schemes``) holding the same mix of prediction
  functions and update modes as every other slice,
* two one-scheme ``traffic`` jobs, walking the canonical schemes with each
  scheme repeated across the four topologies,
* a resubmission of the round's first sweep and first traffic job, sent
  only once the original has finished, which the service must answer
  without recomputing, beside the fresh jobs' writes.

The traffic jobs are sized to take about half the host time, so
``forwarding`` does most of its work here.  This is the only workload
through ``service``, the parallel engine's pool and shared memory, and
``forwarding``.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from core import (
    DEFAULT_SEED,
    ROOT,
    BenchmarkError,
    RunContext,
    Tally,
    check_kernel,
    descendants,
    latency_summary,
    process_tree_cpu_s,
    process_tree_peak_rss_mb,
)

NAME = "served-mix"

#: schemes per sweep job, full and tiny scale
SLICE = 60
TINY_SLICE = 4
SWEEPS_PER_ROUND = 3
TRAFFIC_PER_ROUND = 2

#: the job that starts the worker pool during set-up (four schemes: the
#: smallest batch the parallel engine sends to its pool)
WARMUP_SCHEMES = (
    "last()1[direct]",
    "union(dir+add6)2[direct]",
    "inter(pid+pc8)2[forwarded]",
    "union(pid+add8)3[ordered]",
)

TINY_BENCHMARKS = ("ocean", "water")
TINY_PARAMS = {
    "ocean": {"grid_size": 32, "iterations": 2},
    "water": {"molecules_per_thread": 6, "steps": 2},
}

#: seconds any single job, server start or shutdown may take (a run must
#: finish, or fail, well within three minutes)
JOB_TIMEOUT = 60.0


class Job:
    """One submission of the closed loop and what the client saw of it."""

    def __init__(self, label: str, kind: str, spec, again_of: Optional[int] = None):
        self.label = label
        self.kind = kind
        self.spec = spec
        self.again_of = again_of
        self.job_id = ""
        self.dedup = ""
        self.submitted = self.running = self.done = self.finished = 0.0
        self.output = None
        self.error: Optional[str] = None

    @property
    def fresh(self) -> bool:
        return self.again_of is None

    @property
    def latency(self) -> float:
        return self.finished - self.submitted


class Server:
    """A ``repro-serve`` subprocess with its own state directory."""

    def __init__(self, ctx: RunContext, env: dict):
        state = ctx.fresh_dir("service")
        self.port_file = state / "port"
        self.log = open(state / "server.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "--port", "0",
             "--port-file", str(self.port_file), "--state-dir", str(state / "state"),
             "--jobs", "2"],
            env=env, cwd=str(ROOT), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = None

    def connect(self):
        from repro.api import connect

        deadline = time.monotonic() + JOB_TIMEOUT
        while True:
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise BenchmarkError("repro-serve did not come up")
            time.sleep(0.01)
        self.client = connect(port=int(text), timeout=JOB_TIMEOUT)
        return self.client

    def start_pool(self, spec) -> None:
        """Run the job that makes the server fork its two pool workers.

        The server forks its workers from the job thread while other
        threads may hold a job record's lock; a request waiting on that
        record at the instant of the fork leaves the lock held forever in
        the child, and the pool deadlocks (about one start in 25).  So the
        client waits for both workers to exist before it waits on the job.
        """
        handle = self.client.submit(spec)
        deadline = time.monotonic() + JOB_TIMEOUT
        while len(self._workers()) < 2 and time.monotonic() < deadline:
            time.sleep(0.002)
        try:
            handle.result(timeout=JOB_TIMEOUT)
        except Exception as error:  # noqa: BLE001 - report with the server's log
            self.log.flush()
            tail = (self.port_file.parent / "server.log").read_text(errors="replace")[-3000:]
            raise BenchmarkError(f"pool start failed: {error}\n{tail}") from error

    def _workers(self) -> list:
        pid = self.process.pid
        return [
            child for child in descendants(pid)
            if child != pid and _cmdline(child) == _cmdline(pid)
        ]

    def stop(self) -> None:
        """Shut the server down; if it will not go, kill it and its workers."""
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=JOB_TIMEOUT)
        except Exception:  # noqa: BLE001 - make sure it is gone, whatever happened
            self._kill_tree()
        finally:
            self.log.close()

    def _kill_tree(self) -> None:
        # the pool workers are the server's children, not ours: killing only
        # the server would leave them running, so kill every descendant and
        # wait until each has ended
        pids = descendants(self.process.pid)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait(timeout=JOB_TIMEOUT)
        deadline = time.monotonic() + JOB_TIMEOUT
        while any(_alive(pid) for pid in pids[1:]) and time.monotonic() < deadline:
            time.sleep(0.05)


class ServedMix:
    name = NAME
    in_process = False

    def __init__(self, ctx: RunContext, seed: int, tiny: bool):
        from repro.api import TraceSuiteSpec, make_engine
        from repro.core.update import UpdateMode
        from repro.harness.experiments import sweep_schemes
        from repro.harness.experiments.traffic import TOPOLOGY_SWEEP, TRAFFIC_SCHEMES

        self.ctx = ctx
        self.seed = seed
        self.tiny = tiny
        self.slice = TINY_SLICE if tiny else SLICE
        if tiny:
            self.suite = TraceSuiteSpec(
                benchmarks=TINY_BENCHMARKS, seed=seed, params=TINY_PARAMS
            )
        else:
            self.suite = TraceSuiteSpec(seed=seed)
        rng = random.Random(seed)
        self.space = _stratified(
            [scheme for update in (UpdateMode.DIRECT, UpdateMode.FORWARDED)
             for scheme in sweep_schemes(update, 16)],
            rng,
        )
        # in a fixed order: traffic jobs differ in cost by scheme, and a run
        # covers only the first few, so a seed-drawn order would make the
        # seed decide how much work a run times
        self.traffic = [
            (scheme, topology) for scheme in TRAFFIC_SCHEMES for topology in TOPOLOGY_SWEEP
        ]
        self.engine = make_engine(backend="vectorized")
        self.tally = Tally()
        #: per round: host time scaled to the reference host, host time as
        #: measured, CPU time of the server and its workers
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cpus: List[float] = []
        self.rounds: List[List[Job]] = []
        self.server: Optional[Server] = None
        self.traces = None
        self.kernel = None
        self._tamper = False
        self._telemetry_delta = None

    def tamper(self, patches) -> None:
        """Corrupt one row of the first served sweep as it arrives."""
        self._tamper = True

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Suite generation, plus the median of three server-and-pool starts."""
        from repro.api import JobSpec

        measure = self.ctx.clock.measure
        traces_dir = self.ctx.fresh_dir("traces")
        os.environ["REPRO_CACHE_DIR"] = str(traces_dir)
        self.traces, generate_s = measure(lambda: self.suite.build().traces())
        env = self.ctx.program_env(
            REPRO_CACHE_DIR=str(traces_dir),
            REPRO_CHECKPOINT_DIR=str(self.ctx.fresh_dir("journals")),
        )
        warmup = JobSpec.make("sweep", WARMUP_SCHEMES, self.suite)

        def start() -> Server:
            server = Server(self.ctx, env)
            try:
                server.connect()
                server.start_pool(warmup)
            except BaseException:
                server.stop()
                raise
            return server

        starts = []
        for attempt in range(3):
            server, seconds = measure(start)
            starts.append(seconds)
            if attempt < 2:
                server.stop()
        self.server = server
        return generate_s + statistics.median(starts)

    # -- the timed body ----------------------------------------------------

    def _jobs(self, index: int) -> List[Job]:
        from repro.api import JobSpec

        def sweep(k: int) -> Job:
            start = ((SWEEPS_PER_ROUND * index + k) * self.slice) % len(self.space)
            schemes = self.space[start:start + self.slice]
            return Job(f"sweep-{k}", "sweep", JobSpec.make("sweep", schemes, self.suite))

        def forwarding(k: int) -> Job:
            position = (TRAFFIC_PER_ROUND * index + k) % len(self.traffic)
            scheme, topology = self.traffic[position]
            spec = JobSpec.make("traffic", [scheme], self.suite, topology=topology)
            return Job(f"traffic-{k}", "traffic", spec)

        jobs = [sweep(0), forwarding(0), sweep(1), forwarding(1), sweep(2)]
        for original in (0, 1):
            jobs.append(Job(f"again-{jobs[original].label}", jobs[original].kind,
                            jobs[original].spec, again_of=original))
        return jobs

    def run_round(self, index: int, recorder=None) -> float:
        jobs = self._jobs(index)
        finished = [threading.Event() for _ in jobs]
        cursor = [0]
        lock = threading.Lock()
        before = self.server.client.telemetry() if recorder is not None else None

        def drive() -> None:
            while True:
                with lock:
                    if cursor[0] >= len(jobs):
                        return
                    position = cursor[0]
                    cursor[0] += 1
                try:
                    self._run_job(index, jobs, position, finished)
                finally:
                    finished[position].set()

        threads = [threading.Thread(target=drive) for _ in range(2)]
        cpu_started = process_tree_cpu_s(self.server.process.pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOB_TIMEOUT * len(jobs))
        if any(thread.is_alive() for thread in threads):
            raise BenchmarkError("served-mix round did not finish")
        self.cpus.append(process_tree_cpu_s(self.server.process.pid) - cpu_started)
        started = min(job.submitted for job in jobs)
        ended = max(job.finished for job in jobs)
        wall = ended - started
        self.raw_walls.append(wall)
        self.walls.append(self.ctx.clock.scale(wall, started, ended))
        self.rounds.append(jobs)
        for job in jobs:
            op = f"{index}/{job.label}"
            self.tally.record(op, job.output, job.error)
        if recorder is not None:
            after = self.server.client.telemetry()
            self._telemetry_delta = _delta(before, after)
            for position, job in enumerate(jobs):
                for name, start, end in (("service.queue", job.submitted, job.running),
                                         ("service.run", job.running, job.done)):
                    recorder.add(name, "service", start, end, job=job.job_id,
                                 label=job.label, tid=position % 2)
        return wall

    def _run_job(self, index: int, jobs: List[Job], position: int,
                 finished: List[threading.Event]) -> None:
        job = jobs[position]
        if job.again_of is not None:
            # the closed loop resubmits only specs that have finished
            finished[job.again_of].wait(JOB_TIMEOUT)
        client = self.server.client
        try:
            job.submitted = time.perf_counter()
            handle = client.submit(job.spec)
            job.job_id, job.dedup = handle.job_id, handle.dedup
            for event in handle.stream_progress():
                kind = event.get("event")
                if kind == "state" and event.get("state") == "running" and not job.running:
                    job.running = time.perf_counter()
                elif kind in ("done", "failed"):
                    job.done = time.perf_counter()
            result = handle.result(timeout=JOB_TIMEOUT)
            job.finished = time.perf_counter()
            job.running = job.running or job.submitted
            job.done = job.done or job.finished
            if job.kind == "traffic":
                job.output = [[report.to_json() for report in per] for per in result]
            else:
                job.output = result
                if self._tamper and index == 0 and job.label == "sweep-0":
                    result[self._sample(index, job)]["pooled_tp"] += 1
        except Exception as error:  # noqa: BLE001 - a failed operation
            job.error = f"{type(error).__name__}: {error}"
            job.finished = job.done = job.running = job.running or time.perf_counter()

    def _sample(self, index: int, job: Job) -> int:
        """The row of a sweep job the in-process cross-check recomputes."""
        return random.Random(f"{self.seed}/{index}/{job.label}").randrange(len(job.spec.schemes))

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the server and its worker processes."""
        return process_tree_peak_rss_mb(self.server.process.pid)

    # -- checks --------------------------------------------------------------

    def verify(self, expected: Optional[Dict[str, str]]) -> None:
        from repro.core.schemes import parse_scheme
        from repro.harness.experiments import screening_summary

        counters = self.server.client.telemetry().get("counters", {})
        native = counters.get("service.job.kernel.backend.native", 0)
        self.kernel = "native" if native else "python"
        check_kernel(self.kernel, self.tally)
        if expected:
            self.tally.check_expected(expected)
        committed = self._committed_rows() if self.seed == DEFAULT_SEED and not self.tiny else None
        reference: Dict[str, list] = {}

        def in_process(name: str) -> list:
            if name not in reference:
                reference[name] = self.engine.evaluate_batch([parse_scheme(name)], self.traces)[0]
            return reference[name]

        for index, jobs in enumerate(self.rounds):
            for job in jobs:
                op = f"{index}/{job.label}"
                if job.output is None:
                    continue
                if not job.fresh:
                    if job.output != jobs[job.again_of].output:
                        self.tally.fail(op, "resubmission differs from the original result")
                    continue
                if job.kind == "sweep":
                    position = self._sample(index, job)
                    name = job.spec.schemes[position]
                    want = screening_summary(in_process(name))
                    if job.output[position] != want:
                        self.tally.fail(op, f"{name}: served {job.output[position]} != {want}")
                    if committed is not None:
                        self._compare_committed(op, job, committed)
                else:
                    name = job.spec.schemes[0]
                    for report, counts in zip(job.output[0], in_process(name)):
                        quad = [counts.true_positive, counts.false_positive,
                                counts.false_negative, counts.true_negative]
                        if report["counts"] != quad:
                            self.tally.fail(op, f"{name} on {report['trace']}: "
                                                f"{report['counts']} != {quad}")

    @staticmethod
    def _committed_rows() -> dict:
        import json

        rows = {}
        for path in sorted((ROOT / "data" / "results").glob("sweep-*-v3.json")):
            for row in json.loads(path.read_text(encoding="utf-8"))["rows"]:
                rows[(row["scheme"], row["update"])] = row
        return rows

    def _compare_committed(self, op: str, job: Job, committed: dict) -> None:
        from repro.core.schemes import parse_scheme

        for name, row in zip(job.spec.schemes, job.output):
            scheme = parse_scheme(name)
            want = committed.get((scheme.name, scheme.update.value))
            got = {
                "prev": round(row["prev"], 4), "pvp": round(row["pvp"], 4),
                "sens": round(row["sens"], 4), "pooled_tp": row["pooled_tp"],
                "pooled_fp": row["pooled_fp"],
            }
            if want is None or any(want[key] != value for key, value in got.items()):
                self.tally.fail(op, f"{name}: {got} != committed {want}")
                return

    def _latencies(self, kind: str, jobs: List[Job]) -> List[float]:
        return [job.latency for job in jobs if job.fresh and job.kind == kind and not job.error]

    def extra_metrics(self) -> Dict[str, tuple]:
        jobs = [job for round_ in self.rounds for job in round_]
        metrics = {}
        for kind in ("sweep", "traffic"):
            summary = latency_summary(self._latencies(kind, jobs))
            for key, value in summary.items():
                if key != "n":
                    metrics[f"{kind}_job_{key}_s"] = (value, "s")
            metrics[f"{kind}_job_samples"] = (float(summary["n"]), "count")
        completed = sum(1 for job in jobs if not job.error)
        metrics["jobs_per_s"] = (completed / sum(self.walls), "1/s")
        return metrics

    def layer_metrics(self, recorder, telemetry, wall: float) -> dict:
        from tracing import rate

        counters, timers = self._telemetry_delta
        jobs = self.rounds[-1]
        fresh = [job for job in jobs if job.fresh and not job.error]
        # a resubmitted finished spec is answered without running: from the
        # server's in-memory record (dedup "coalesced") or its result cache
        again = [job for job in jobs if not job.fresh and not job.error]

        def job_(name: str) -> float:
            return counters.get(f"service.job.{name}", 0)

        def seconds(name: str) -> float:
            return timers.get(f"service.job.{name}", 0.0)

        batch_s = seconds("engine.parallel.batch_seconds")
        busy = sum(
            value for name, value in timers.items()
            if name.startswith("service.job.engine.parallel.worker.")
        )
        replay_s = seconds("forwarding.simulate_seconds")
        distinct = {
            (job.spec.schemes[0], trace.name)
            for job in fresh if job.kind == "traffic" for trace in self.traces
        }
        run_s = sum(job.done - job.running for job in jobs)
        return {
            "trace.loads": job_("trace.io.loads"),
            "trace.cache_load_s": seconds("trace.io.load_seconds"),
            "core.scheme_events_per_s": rate(job_("engine.parallel.batch_events"), batch_s),
            "engine.batch_s": batch_s,
            "engine.parallel.chunks": job_("engine.parallel.chunks_dispatched"),
            "engine.parallel.worker_busy_s": busy,
            "engine.parallel.worker_idle_frac": max(0.0, 1.0 - rate(busy, 2 * batch_s))
            if batch_s else 0.0,
            "engine.shm.bytes_published": job_("shm.bytes_published"),
            "engine.shm.republish_avoided": job_("shm.republish_avoided"),
            "forwarding.predict_s": max(
                0.0, seconds("engine.parallel.traffic_seconds") - replay_s
            ),
            "forwarding.replay_s": replay_s,
            "forwarding.events": job_("forwarding.events"),
            "forwarding.events_per_s": rate(job_("forwarding.events"), replay_s),
            "forwarding.predict_per_distinct": rate(job_("forwarding.reports"), len(distinct)),
            "service.queue_wait_s": statistics.median(
                [job.running - job.submitted for job in fresh]) if fresh else 0.0,
            "service.run_s": statistics.median(
                [job.done - job.running for job in fresh]) if fresh else 0.0,
            "service.sweep_job_p50_s": latency_summary(self._latencies("sweep", jobs))["p50"],
            "service.traffic_job_p50_s": latency_summary(self._latencies("traffic", jobs))["p50"],
            "service.jobs_per_s": rate(len(jobs), wall),
            "service.cache_hits": counters.get("service.dedup.cache_hits", 0),
            "service.coalesced": counters.get("service.dedup.coalesced", 0),
            "service.cache_hit_latency_s": statistics.median(
                [job.latency for job in again]) if again else 0.0,
            "service.journal_records": job_("journal.records"),
            "harness.other_s": wall - run_s,
            "harness.traced_wall_s": wall,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def _stratified(schemes: list, rng: random.Random) -> List[str]:
    """The design space in a seed-drawn order where every slice is alike.

    Schemes are shuffled within each (prediction function, update mode)
    stratum and the strata interleaved in proportion, so each consecutive
    slice holds about the same mix of cheap bitmap and costly PAs schemes
    at every seed, and a slice's cost does not depend on the draw.
    """
    strata: Dict[tuple, list] = {}
    for scheme in schemes:
        strata.setdefault((scheme.function, scheme.update.value), []).append(scheme.full_name)
    placed = []
    for order, key in enumerate(sorted(strata)):
        members = strata[key]
        rng.shuffle(members)
        offset = rng.random()
        placed.extend(
            ((position + offset) / len(members), order, name)
            for position, name in enumerate(members)
        )
    return [name for _, _, name in sorted(placed)]


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an exited, unreaped process does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _delta(before: dict, after: dict) -> tuple:
    """Counter and timer-second differences between two telemetry snapshots."""
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    old_timers = before.get("timers", {})
    timers = {
        name: timer["seconds"] - old_timers.get(name, {}).get("seconds", 0.0)
        for name, timer in after.get("timers", {}).items()
    }
    return counters, timers
