"""The job registry: dedup, coalescing, execution, and durable state.

One :class:`JobRegistry` is the engine room behind both faces of the
submission API.  ``repro.api.submit`` talks to a process-default in-memory
registry; ``repro-serve`` builds one with a state directory and puts the
socket server in front of it.  Either way the rules are the same:

* **Fingerprint is identity.**  A job's sha256 fingerprint (over its
  canonical spec plus the exact traces it runs on) is its id, its dedup
  key, its journal key, and its result-cache key.
* **Identical in-flight jobs coalesce.**  Submitting a spec whose
  fingerprint is already pending/running returns the *same* record -- one
  computation, every submitter gets the identical bits
  (``service.dedup.coalesced`` counts these).
* **Durable results short-circuit.**  With a state directory, a finished
  job's payload lands in ``results/<fp>.json``; resubmission after any
  amount of downtime is served from disk (``service.dedup.cache_hits``).
* **Every server job checkpoints.**  State-dir jobs journal through
  :func:`repro.harness.runner.open_job_journal`, so a SIGKILLed server
  replays completed schemes bit-identically on restart
  (:meth:`JobRegistry.recover` resubmits manifests without results).
* **The result cache is size-capped.**  ``max_result_bytes`` (or the
  ``REPRO_RESULT_CACHE_BYTES`` environment variable; unset means
  unbounded) bounds ``results/``: after each stored result the
  least-recently-used entries are evicted until the cache fits, never
  touching the entry of any job that is still pending or running.  Cache
  hits refresh recency, so hot fingerprints survive; an evicted result
  merely recomputes on resubmission (fingerprints guarantee the same
  bits).

Jobs execute on a single dedicated thread: the parallel engine underneath
provides the actual concurrency (one long-lived set of workers shared
across jobs -- see ``ParallelEngine(persistent=True)``), and serializing
job bodies keeps journal files, telemetry swaps, the workers' installed
traces and the last suite job's loaded traces (reused while consecutive
jobs name the same suite) single-writer by construction.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.schemes import parse_scheme
from repro.engine import get_default_engine
from repro.forwarding.simulator import ForwardingConfig
from repro.harness.experiments.base import screening_summary
from repro.harness.runner import open_job_journal
from repro.service.handles import (
    DEDUP_CACHED,
    DEDUP_COALESCED,
    DEDUP_NEW,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobStatus,
)
from repro.service.jobs import (
    JOB_SCHEMA,
    InlineTraces,
    JobSpec,
    JobSpecError,
    TraceFileSpec,
    TraceSuiteSpec,
    encode_counts,
    grid_from_spec,
)
from repro.telemetry import StreamingTelemetry, get_telemetry, set_thread_telemetry
from repro.util.persist import atomic_write_json

logger = logging.getLogger(__name__)

#: telemetry namespaces relayed into per-job progress streams
STREAM_PREFIXES = ("plan.", "engine.", "journal.", "kernel.")

#: cap on buffered telemetry events per job (progress/state events are
#: never dropped; past the cap further telemetry events are counted in
#: ``service.stream.dropped`` instead of buffered)
MAX_TELEMETRY_EVENTS = 5000

#: test hook: seconds to sleep after each completed scheme, so kill/resume
#: tests can deterministically catch a job mid-flight
_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY"

#: size cap (bytes) on the durable result cache; unset/empty = unbounded
_CACHE_BYTES_ENV = "REPRO_RESULT_CACHE_BYTES"


def _env_cache_bytes() -> Optional[int]:
    raw = os.environ.get(_CACHE_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        return max(0, int(raw))
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", _CACHE_BYTES_ENV, raw)
        return None


class JobRecord:
    """One job's live state: lifecycle, progress, event log, result payload.

    Thread-safe: the executor thread mutates, any number of handle/server
    threads read.  The event log is append-only so every streamer sees the
    same ordered history regardless of when it attached.
    """

    def __init__(self, spec: JobSpec, job_id: str):
        self.spec = spec
        self.job_id = job_id
        self.state = PENDING
        self.completed = 0
        self.total = 0
        self.telemetry = None  # merged Telemetry snapshot once finished
        self._payload: Optional[dict] = None
        self._error: Optional[BaseException] = None
        self._events: List[dict] = []
        self._telemetry_events = 0
        self._cond = threading.Condition()

    # -- mutation (executor thread) ------------------------------------

    def _publish(self, event: dict) -> None:
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def start(self, total: int) -> None:
        with self._cond:
            self.state = RUNNING
            self.total = total
            self._cond.notify_all()
        self._publish({"event": "state", "state": RUNNING, "total": total})

    def step(self, amount: int = 1) -> None:
        with self._cond:
            self.completed += amount
            completed, total = self.completed, self.total
        self._publish({"event": "progress", "completed": completed, "total": total})

    def telemetry_event(self, metric: str, name: str, value: float) -> None:
        if not name.startswith(STREAM_PREFIXES):
            return
        with self._cond:
            if self._telemetry_events >= MAX_TELEMETRY_EVENTS:
                get_telemetry().count("service.stream.dropped")
                return
            self._telemetry_events += 1
        self._publish(
            {"event": "telemetry", "metric": metric, "name": name, "value": value}
        )

    def finish(self, payload: dict) -> None:
        with self._cond:
            self._payload = payload
            self.state = DONE
            self.completed = self.total
            self._cond.notify_all()
        self._publish({"event": "done", "job_id": self.job_id})

    def fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = error
            self.state = FAILED
            self._cond.notify_all()
        self._publish({"event": "failed", "error": str(error)})

    # -- observation (any thread) --------------------------------------

    def status(self, dedup: str = DEDUP_NEW) -> JobStatus:
        with self._cond:
            return JobStatus(
                job_id=self.job_id,
                kind=self.spec.kind,
                state=self.state,
                completed=self.completed,
                total=self.total,
                error=str(self._error) if self._error is not None else None,
                dedup=dedup,
            )

    def wait(self, timeout: Optional[float] = None) -> dict:
        """Block until terminal; the result payload, or the job's failure."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self.state in TERMINAL_STATES, timeout
            ):
                raise TimeoutError(
                    f"job {self.job_id} still {self.state} after {timeout}s"
                )
            if self.state == FAILED:
                # re-raise the original exception: in-process submitters see
                # exactly what a direct api call would have raised
                raise self._error
            return self._payload

    def events_since(
        self, index: int, timeout: Optional[float] = None
    ) -> Tuple[List[dict], int, bool]:
        """Block for events past ``index``; ``(batch, new_index, finished)``.

        The bridge the socket server uses to pump the event log from a
        worker thread into an asyncio writer without busy-polling.  A
        ``timeout`` expiry returns an empty batch with ``finished=False``.
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: len(self._events) > index
                or self.state in TERMINAL_STATES,
                timeout,
            ):
                return [], index, False
            batch = self._events[index:]
            index += len(batch)
            finished = self.state in TERMINAL_STATES and index == len(self._events)
        return batch, index, finished

    def iter_events(self) -> Iterator[dict]:
        """Ordered replay + live tail of the event log; ends at terminal."""
        index = 0
        while True:
            batch, index, finished = self.events_since(index)
            for event in batch:
                yield event
            if finished:
                return


class JobRegistry:
    """Fingerprint-keyed job store; see the module docstring for the rules.

    ``state_dir=None`` (the ``repro.api`` default) is pure in-memory:
    in-flight coalescing only, records evicted once terminal (the handle
    keeps the record alive; the registry does not grow).  With a
    ``state_dir`` the registry is a durable server core: manifests under
    ``jobs/``, result payloads under ``results/``, checkpoints under
    ``journals/``, per-job telemetry under ``telemetry/``.
    """

    def __init__(self, engine=None, state_dir=None, max_result_bytes=None):
        self._engine = engine
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.max_result_bytes = (
            max_result_bytes if max_result_bytes is not None else _env_cache_bytes()
        )
        if self.state_dir is not None:
            for sub in ("jobs", "results", "journals", "telemetry"):
                (self.state_dir / sub).mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job"
        )
        self._closed = False
        #: the last suite job's ``(TraceSet.fingerprint(), traces)``
        self._suite: Optional[Tuple[str, list]] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        traces: Optional[Sequence] = None,
        engine=None,
    ) -> Tuple[JobRecord, str]:
        """Submit (or join) a job; returns ``(record, dedup-origin)``.

        ``traces`` carries the live trace objects for an
        :class:`InlineTraces` spec (in-process only).  The dedup origin is
        one of ``"new"`` / ``"coalesced"`` / ``"cached"``.
        """
        if isinstance(spec.traces, InlineTraces):
            if self.state_dir is not None:
                raise JobSpecError(
                    "inline traces cannot be served: a restarted server "
                    "could never re-materialize them; submit a TraceSuiteSpec"
                )
            if traces is None:
                raise JobSpecError("inline-trace jobs need the trace objects")
        job_id = spec.fingerprint()
        telemetry = get_telemetry()
        with self._lock:
            if self._closed:
                raise RuntimeError("registry is closed")
            existing = self._records.get(job_id)
            if existing is not None and existing.state != FAILED:
                telemetry.count("service.dedup.coalesced")
                return existing, DEDUP_COALESCED
            cached = self._load_cached_result(job_id)
            if cached is not None:
                record = JobRecord(spec, job_id)
                record.start(total=len(spec.schemes) or 1)
                record.finish(cached)
                self._records[job_id] = record
                telemetry.count("service.dedup.cache_hits")
                return record, DEDUP_CACHED
            record = JobRecord(spec, job_id)
            self._records[job_id] = record
            self._write_manifest(record)
            telemetry.count("service.jobs.submitted")
            self._executor.submit(self._execute, record, traces, engine)
            return record, DEDUP_NEW

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def jobs(self) -> List[JobStatus]:
        with self._lock:
            records = list(self._records.values())
        return [record.status() for record in records]

    def recover(self) -> int:
        """Resubmit every manifest without a result (crashed-server replay).

        Each recovered job reopens its journal and replays finished schemes
        from recorded integers, so the rerun is bit-identical to what the
        killed run would have produced.
        """
        if self.state_dir is None:
            return 0
        recovered = 0
        for manifest_path in sorted((self.state_dir / "jobs").glob("*.json")):
            job_id = manifest_path.stem
            if (self.state_dir / "results" / f"{job_id}.json").exists():
                continue
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                spec = JobSpec.from_json(manifest["spec"])
            except (OSError, ValueError, KeyError, JobSpecError) as error:
                logger.warning(
                    "dropping unreadable job manifest %s: %s", manifest_path, error
                )
                continue
            self.submit(spec)
            recovered += 1
        if recovered:
            get_telemetry().count("service.jobs.recovered", recovered)
        return recovered

    def close(self) -> None:
        """Stop accepting jobs and wait for the in-flight one to finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "JobRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------

    def _write_manifest(self, record: JobRecord) -> None:
        if self.state_dir is None:
            return
        atomic_write_json(
            self.state_dir / "jobs" / f"{record.job_id}.json",
            {"schema": JOB_SCHEMA, "job_id": record.job_id,
             "spec": record.spec.to_json()},
        )

    def _load_cached_result(self, job_id: str) -> Optional[dict]:
        if self.state_dir is None:
            return None
        path = self.state_dir / "results" / f"{job_id}.json"
        if not path.exists():
            return None
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
            if stored.get("schema") != JOB_SCHEMA:
                raise ValueError(f"result schema {stored.get('schema')!r}")
            try:
                # cache hit: refresh mtime so LRU eviction keeps hot entries
                os.utime(path, None)
            except OSError:  # pragma: no cover - recency is best-effort
                pass
            return stored["result"]
        except (OSError, ValueError, KeyError) as error:
            logger.warning("discarding unreadable result %s: %s", path, error)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None

    def _store_result(self, record: JobRecord, payload: dict) -> None:
        if self.state_dir is None:
            return
        atomic_write_json(
            self.state_dir / "results" / f"{record.job_id}.json",
            {"schema": JOB_SCHEMA, "job_id": record.job_id,
             "kind": record.spec.kind, "result": payload},
        )
        if record.telemetry is not None:
            atomic_write_json(
                self.state_dir / "telemetry" / f"{record.job_id}.json",
                {"job_id": record.job_id, "kind": record.spec.kind,
                 "telemetry": record.telemetry.to_json()},
            )
        self._evict_results()

    def _evict_results(self) -> None:
        """Trim ``results/`` to ``max_result_bytes``, oldest-mtime first.

        Entries belonging to jobs that are still pending or running (which
        includes the result stored a moment ago: its record only reaches a
        terminal state afterwards) are never evicted, so a handle that is
        about to be woken always finds its bytes on disk.
        """
        cap = self.max_result_bytes
        if self.state_dir is None or cap is None:
            return
        with self._lock:
            protected = {
                job_id
                for job_id, rec in self._records.items()
                if rec.state not in TERMINAL_STATES
            }
        entries = []
        total = 0
        for path in (self.state_dir / "results").glob("*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deletion
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort()
        telemetry = get_telemetry()
        for _mtime, size, path in entries:
            if total <= cap:
                break
            if path.stem in protected:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletion
                continue
            total -= size
            telemetry.count("service.cache.evictions")
            telemetry.count("service.cache.evicted_bytes", size)
            # the paired telemetry snapshot is useless without its result
            (self.state_dir / "telemetry" / path.name).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Execution (single dedicated thread)
    # ------------------------------------------------------------------

    def _execute(self, record: JobRecord, traces, engine) -> None:
        base = get_telemetry()
        streaming: Optional[StreamingTelemetry] = None
        previous = None
        if self.state_dir is not None:
            # Server mode: scope this thread's telemetry to a streaming
            # sink that relays engine/planner/journal activity into the
            # job's event log.  Thread-scoped, so submit/recover counters
            # on other threads keep landing in the shared sink.
            streaming = StreamingTelemetry(record.telemetry_event)
            previous = set_thread_telemetry(streaming)
        try:
            payload = self._run(record, traces, engine)
        except BaseException as error:  # noqa: BLE001 - job thread boundary
            if streaming is not None:
                set_thread_telemetry(previous)
                base.merge(streaming.prefixed("service.job."))
            with self._lock:
                # failed jobs leave the dedup map: a resubmission retries
                self._records.pop(record.job_id, None)
            record.fail(error)
            base.count("service.jobs.failed")
            return
        if streaming is not None:
            set_thread_telemetry(previous)
            record.telemetry = streaming
            # scoped fold: job activity lands under service.job.* in the
            # server's own sink, distinguishable from server-level counters
            base.merge(streaming.prefixed("service.job."))
        self._store_result(record, payload)
        if self.state_dir is None:
            with self._lock:
                # in-memory mode keeps no history: the handle owns the
                # record; evicting (before finish wakes any waiter) caps
                # registry growth at in-flight jobs
                self._records.pop(record.job_id, None)
        record.finish(payload)
        base.count("service.jobs.completed")

    def _run(self, record: JobRecord, traces, engine) -> dict:
        spec = record.spec
        if spec.hosts:
            # the job pinned a worker fleet: run it on a dedicated
            # socket-transport engine (the result bits are host-independent,
            # which is why ``hosts`` stays out of the fingerprint)
            from repro.engine.parallel import ParallelEngine

            dedicated = ParallelEngine(hosts=spec.hosts)
            get_telemetry().count("service.jobs.multihost")
            try:
                return self._run_resolved(record, traces, dedicated)
            finally:
                dedicated.close()
        engine = (
            engine
            if engine is not None
            else self._engine
            if self._engine is not None
            else get_default_engine()
        )
        return self._run_resolved(record, traces, engine)

    def _run_resolved(self, record: JobRecord, traces, engine) -> dict:
        spec = record.spec
        if spec.kind == "scenario":
            return self._run_scenario(record, engine)
        if isinstance(spec.traces, TraceSuiteSpec):
            trace_objs = self._suite_traces(spec.traces)
        elif isinstance(spec.traces, TraceFileSpec):
            # streamed: the engine consumes the sources chunk-wise (or
            # materializes them itself when it cannot stream)
            trace_objs = spec.traces.resolve()
        else:
            trace_objs = list(traces)
        schemes = [parse_scheme(name) for name in spec.schemes]
        record.start(total=len(schemes))
        journal = self._open_journal(spec, record.job_id, [t.name for t in trace_objs])
        try:
            if spec.kind == "traffic":
                config = ForwardingConfig(
                    topology=spec.topology, model=spec.traffic_model()
                )
                reports = self._journaled_batch(
                    record, schemes, trace_objs, journal,
                    lambda pending, cb: engine.evaluate_traffic(
                        pending, trace_objs, config=config, on_result=cb
                    ),
                )
                return {"reports": [[r.to_json() for r in per] for per in reports]}
            counts = self._journaled_batch(
                record, schemes, trace_objs, journal,
                lambda pending, cb: engine.evaluate_batch(
                    pending, trace_objs,
                    exclude_writer=spec.exclude_writer, on_result=cb,
                ),
            )
            if spec.kind == "sweep":
                return {"rows": [screening_summary(per) for per in counts]}
            return encode_counts(counts)
        finally:
            if journal is not None:
                journal.close()

    def _suite_traces(self, suite: TraceSuiteSpec) -> list:
        """The suite's traces, reused while consecutive jobs name one suite.

        One entry: a job on another suite replaces it.  Only the
        ``repro-job`` thread runs jobs, so the entry needs no lock.
        """
        trace_set = suite.build()
        fingerprint = trace_set.fingerprint()
        if self._suite is None or self._suite[0] != fingerprint:
            self._suite = (fingerprint, trace_set.traces())
        return self._suite[1]

    def _run_scenario(self, record: JobRecord, engine) -> dict:
        from repro.harness.experiments.scenarios import run_grid_cells

        spec = record.spec
        grid = grid_from_spec(spec)
        record.start(total=grid.num_cells() * len(grid.schemes))
        seed_names = [f"seed{seed}" for seed in grid.seeds]
        journal = traffic_journal = None
        if self.state_dir is not None:
            journal = open_job_journal(
                "sweep", self.state_dir / "journals",
                name="scenario", fingerprint=record.job_id,
                trace_names=seed_names,
            )
            traffic_journal = open_job_journal(
                "traffic", self.state_dir / "journals",
                name="scenario-traffic", fingerprint=record.job_id,
                trace_names=seed_names,
            )
        try:
            rows = run_grid_cells(grid, engine, journal, traffic_journal)
        finally:
            for handle in (journal, traffic_journal):
                if handle is not None:
                    handle.close()
        record.step(record.total - record.completed)
        return {"rows": rows}

    def _open_journal(self, spec: JobSpec, job_id: str, trace_names):
        if self.state_dir is None:
            return None
        return open_job_journal(
            spec.kind, self.state_dir / "journals",
            name=spec.kind, fingerprint=job_id, trace_names=trace_names,
        )

    def _journaled_batch(
        self, record: JobRecord, schemes, trace_objs, journal, run_batch
    ) -> List[list]:
        """Replay journaled schemes, evaluate the rest, checkpoint each.

        The same replay discipline as
        :func:`repro.harness.experiments.base.batch_scheme_stats`: recorded
        payloads *are* the result (stored integers / report fields), so a
        resumed job is bit-identical to an uninterrupted one.
        """
        delay = float(os.environ.get(_DELAY_ENV, "0") or "0")
        results: List[Optional[list]] = [None] * len(schemes)
        pending_indices: List[int] = []
        pending: List = []
        for index, scheme in enumerate(schemes):
            recorded = journal.get(scheme.full_name) if journal is not None else None
            if recorded is not None and len(recorded) == len(trace_objs):
                results[index] = recorded
                record.step()
            else:
                pending_indices.append(index)
                pending.append(scheme)
        if pending:

            def on_result(pending_index: int, per_trace: list) -> None:
                if journal is not None:
                    journal.record(pending[pending_index].full_name, per_trace)
                record.step()
                if delay:
                    time.sleep(delay)

            fresh = run_batch(pending, on_result)
            for index, per_trace in zip(pending_indices, fresh):
                results[index] = per_trace
        return results


# ----------------------------------------------------------------------
# Process-default registry (behind ``repro.api.submit``)
# ----------------------------------------------------------------------

_default_registry: Optional[JobRegistry] = None
_default_lock = threading.Lock()


def get_default_registry() -> JobRegistry:
    """The process-wide in-memory registry ``repro.api.submit`` uses."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = JobRegistry()
        return _default_registry


def set_default_registry(registry: Optional[JobRegistry]) -> Optional[JobRegistry]:
    """Swap the process-default registry (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
