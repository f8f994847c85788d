"""Trace generation/caching and sweep checkpointing for the harness.

Generating a benchmark trace means running the full protocol simulation
over a few hundred thousand memory references, so traces are cached as
``.npz`` files keyed by a fingerprint of everything that determines them
(benchmark, seed, node count, cache geometry, scheduler quantum, and the
package's trace-format version).  Delete the cache directory (default
``<repo>/data/traces``, override with ``REPRO_CACHE_DIR``) to force
regeneration.

This module also owns **sweep checkpointing**: the design-space sweeps
evaluate thousands of schemes and used to restart from scratch if the run
was killed.  :class:`SweepJournal` appends each completed scheme's
per-trace confusion counts to a schema-versioned JSONL journal as the
engine reports them (via the ``on_result`` batch callback), and a later
run started with ``repro-bench --resume`` replays the journal instead of
re-evaluating the finished schemes -- the replayed counts are the recorded
integers, so a resumed sweep is bit-identical to an uninterrupted one.
Engines may report schemes in any order (the planner batches by index
group and the parallel backend journals per completed chunk); the journal
is keyed by scheme name, so resume is order-independent by construction.
:class:`CheckpointPolicy` (installed by the CLI, queried by the sweep
experiments) decides whether journals are written, read, or skipped.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.machine import MachineSpec
from repro.memory.cache import CacheConfig
from repro.memory.system import MultiprocessorSystem, SystemConfig
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.io import load_trace, save_trace
from repro.util import usable_cpus
from repro.util.persist import (
    CACHE_SCHEMA,
    CacheCorruptionError,
    atomic_write_json,
    discard_corrupt,
    load_json_checked,
)
from repro.workloads.registry import BENCHMARK_NAMES, make_workload

logger = logging.getLogger("repro.harness.runner")

#: bump when trace semantics change, to invalidate caches
TRACE_SCHEMA = 7

#: bump when the sweep-journal line format changes; old journals are
#: discarded, never misread
JOURNAL_SCHEMA = 1


def default_cache_dir() -> Path:
    """The trace cache directory (created on demand)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "data" / "traces"


def generate_trace(
    benchmark: str,
    num_nodes: int = 16,
    seed: int = 0,
    cache_bytes: Optional[int] = None,
    quantum: int = 4,
    workload_params: Optional[dict] = None,
    machine: Optional[MachineSpec] = None,
):
    """Run one benchmark through the protocol and return (trace, stats).

    ``cache_bytes`` defaults to the workload's suggested (scaled) cache
    size; see EXPERIMENTS.md for the scaling rationale.  When ``machine``
    is given it defines the whole system (node count, cache geometry,
    protocol variant) and the resulting trace carries the spec; the bare
    keyword arguments remain the 16-node paper path.
    """
    workload = make_workload(
        benchmark,
        num_nodes=num_nodes,
        seed=seed,
        machine=machine,
        **(workload_params or {}),
    )
    if machine is not None:
        system = MultiprocessorSystem(machine=machine, trace_name=benchmark)
    else:
        if cache_bytes is None:
            cache_bytes = getattr(workload, "suggested_cache_bytes", 32 * 1024)
        associativity = getattr(workload, "suggested_cache_associativity", 4)
        config = SystemConfig(
            num_nodes=num_nodes,
            cache=CacheConfig(
                size_bytes=cache_bytes, associativity=associativity, line_size=64
            ),
        )
        system = MultiprocessorSystem(config, trace_name=benchmark)
    system.run(workload.accesses(quantum=quantum))
    return system.finalize_trace(), system.stats


class TraceSet:
    """The benchmark suite's traces, generated lazily and cached on disk."""

    def __init__(
        self,
        benchmarks: Optional[List[str]] = None,
        num_nodes: int = 16,
        seed: int = 0,
        quantum: int = 4,
        cache_dir: Optional[Path] = None,
        machine: Optional[MachineSpec] = None,
        workload_params: Optional[Dict[str, dict]] = None,
    ):
        self.benchmarks = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
        self.machine = machine
        self.num_nodes = machine.num_nodes if machine is not None else num_nodes
        self.seed = seed
        self.quantum = quantum
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        #: optional per-benchmark constructor overrides (scenario grids use
        #: these to shrink per-thread work on big machines)
        self.workload_params = dict(workload_params or {})
        self._traces: Dict[str, SharingTrace] = {}

    def _fingerprint(self, benchmark: str) -> str:
        key = (
            f"schema={TRACE_SCHEMA};bench={benchmark};nodes={self.num_nodes};"
            f"seed={self.seed};quantum={self.quantum}"
        )
        # Only non-default machines and explicit workload overrides extend
        # the key: the bare 16-node suite keeps its historical fingerprints,
        # so every pre-existing cache and golden fixture stays valid.
        if self.machine is not None:
            key += f";machine={self.machine.trace_label()}"
        params = self.workload_params.get(benchmark)
        if params:
            encoded = json.dumps(params, separators=(",", ":"), sort_keys=True)
            key += f";params={encoded}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def _cache_path(self, benchmark: str) -> Path:
        return self.cache_dir / f"{benchmark}-{self._fingerprint(benchmark)}.npz"

    def trace(self, benchmark: str) -> SharingTrace:
        """The benchmark's trace: memory, then disk cache, then generation.

        A cached file that is unreadable (truncated download, torn write,
        stale format) is logged, deleted, and regenerated -- corruption is a
        cache miss, never a crash.
        """
        trace = self._cached(benchmark)
        if trace is None:
            trace = self._generate_and_store(benchmark)
        return trace

    def _cached(self, benchmark: str) -> Optional[SharingTrace]:
        """The trace from memory or the disk cache; ``None`` means generate it."""
        telemetry = get_telemetry()
        cached = self._traces.get(benchmark)
        if cached is not None:
            telemetry.count("cache.trace.memory_hits")
            return cached
        path = self._cache_path(benchmark)
        if not path.exists():
            telemetry.count("cache.trace.misses")
            return None
        try:
            trace = load_trace(path)
        except CacheCorruptionError as error:
            discard_corrupt(path, str(error))
            telemetry.count("cache.trace.corrupt_regenerations")
            return None
        telemetry.count("cache.trace.disk_hits")
        self._traces[benchmark] = trace
        return trace

    def _generate_and_store(self, benchmark: str) -> SharingTrace:
        """Regenerate one benchmark's trace and stats sidecar as a pair.

        The trace npz, its stats sidecar, and the in-memory cache always
        move together (each file atomically via tmp + ``os.replace``), so a
        reader can never pair a fresh trace with stale stats or vice versa.
        """
        telemetry = get_telemetry()
        telemetry.count("cache.trace.regenerations")
        with telemetry.timer("cache.trace.generate_seconds"):
            trace, stats = generate_trace(
                benchmark,
                num_nodes=self.num_nodes,
                seed=self.seed,
                quantum=self.quantum,
                machine=self.machine,
                workload_params=self.workload_params.get(benchmark),
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        save_trace(trace, self._cache_path(benchmark))
        summary = {
            "schema": [TRACE_SCHEMA, CACHE_SCHEMA],
            "accesses": stats.reads + stats.writes,
            "reads": stats.reads,
            "writes": stats.writes,
            "read_misses": stats.read_misses,
            "write_misses": stats.write_misses,
            "write_upgrades": stats.write_upgrades,
            "silent_writes": stats.silent_writes,
            "invalidations_sent": stats.invalidations_sent,
            "writebacks": stats.writebacks,
            "replacements": stats.replacements,
            "max_static_stores_per_node": stats.max_static_stores_per_node(),
            "max_predicted_stores_per_node": stats.max_predicted_stores_per_node(),
        }
        atomic_write_json(self._stats_path(benchmark), summary)
        self._traces[benchmark] = trace
        return trace

    def _stats_path(self, benchmark: str) -> Path:
        return self.cache_dir / f"{benchmark}-{self._fingerprint(benchmark)}.stats.json"

    def _load_summary(self, benchmark: str) -> Optional[dict]:
        """The stats sidecar if present and valid, else ``None``."""
        path = self._stats_path(benchmark)
        if not path.exists():
            return None
        try:
            summary = load_json_checked(path)
        except CacheCorruptionError as error:
            discard_corrupt(path, str(error))
            return None
        if summary.get("schema") != [TRACE_SCHEMA, CACHE_SCHEMA]:
            discard_corrupt(
                path,
                f"stats schema {summary.get('schema')!r} != "
                f"{[TRACE_SCHEMA, CACHE_SCHEMA]!r}",
            )
            return None
        return summary

    def protocol_summary(self, benchmark: str) -> dict:
        """Protocol statistics recorded when the trace was generated.

        If the sidecar is missing, corrupt, or schema-stale, the trace and
        stats are regenerated *together* (dropping any in-memory trace), so
        the summary always describes the trace :meth:`trace` returns.
        """
        summary = self._load_summary(benchmark)
        if summary is None:
            logger.warning(
                "stats sidecar for %s missing or invalid; regenerating trace "
                "and stats as a pair",
                benchmark,
            )
            self._traces.pop(benchmark, None)
            self._generate_and_store(benchmark)
            summary = self._load_summary(benchmark)
            if summary is None:  # pragma: no cover - regeneration just wrote it
                raise CacheCorruptionError(
                    f"stats sidecar for {benchmark} unreadable after regeneration"
                )
        return summary

    def traces(self) -> List[SharingTrace]:
        """All benchmark traces, in suite order.

        Each trace is looked up as :meth:`trace` looks it up.  When more than
        one is missing and more than one CPU is usable, the missing traces
        are generated concurrently (:class:`_SuiteGeneration`); whatever
        that leaves is generated here, in suite order.
        """
        missing: List[str] = []
        for name in self.benchmarks:
            if name not in missing and self._cached(name) is None:
                missing.append(name)
        workers = min(len(missing), usable_cpus()) - 1
        if workers > 0:
            _SuiteGeneration(self, missing).run(workers)
        for name in missing:
            if name not in self._traces:
                self._generate_and_store(name)
        return [self._traces[name] for name in self.benchmarks]

    def fingerprint(self) -> str:
        """A stable id for this trace set (used to key derived result caches)."""
        parts = ";".join(
            f"{name}:{self._fingerprint(name)}" for name in self.benchmarks
        )
        return hashlib.sha256(parts.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Concurrent suite generation
# ----------------------------------------------------------------------


class _SuiteGeneration:
    """Generate a suite's missing traces here and in spawned workers.

    The benchmarks share no state, so each is generated in whichever
    process takes it.  This process (slot 0) and each worker (slots 1..n)
    take the next index of ``names`` from one shared cursor, so benchmarks
    start in suite order, and ``claims`` records which slot took each.  A
    worker runs the same :meth:`TraceSet._generate_and_store` and sends each
    trace back with the telemetry it recorded; this process keeps the trace
    and merges the telemetry, so the counts equal the serial loop's.

    Once the cursor runs out, a worker owing no trace is stopped at once,
    even one still starting up, and this process waits only for the rest.
    Whatever no process delivered (a dead worker's benchmark, or one a
    worker failed on) is left to the serial loop in :meth:`TraceSet.traces`,
    which runs after every worker has stopped and raises the error the
    serial path would raise.

    Workers are spawned, not forked: the service reaches ``traces()`` from a
    job thread, and forking a process that has threads is unsafe.
    """

    #: seconds between liveness checks while this process waits for the
    #: cursor's lock, which a worker killed while holding it never releases
    LOCK_POLL_S = 0.1

    def __init__(self, trace_set: TraceSet, names: List[str]):
        import multiprocessing  # here, not at import time: only a cold suite needs it

        self.ctx = multiprocessing.get_context("spawn")
        self.trace_set = trace_set
        self.names = names
        self.cursor = None
        self.claims = None
        #: slot -> (process, the read end of its result pipe)
        self.workers: Dict[int, tuple] = {}

    def run(self, workers: int) -> None:
        try:
            self._start(workers)
            if not self.workers:
                return
            limit = len(self.names)
            while True:
                index = self._claim()
                if index is None:
                    break
                try:
                    self.trace_set._generate_and_store(self.names[index])
                except Exception:  # noqa: BLE001 - the serial loop raises it again
                    # An earlier benchmark a worker holds may fail too: the
                    # serial loop regenerates this one after it, so the
                    # error raised is the one suite order meets first.
                    limit = index
                    break
            self._collect(limit)
        finally:
            for slot in list(self.workers):
                self._stop(slot)

    def _start(self, count: int) -> None:
        """Start up to ``count`` workers; a failure to start one is logged."""
        worker_set = copy.copy(self.trace_set)
        worker_set._traces = {}  # a worker sends its traces back and keeps none
        try:
            self.cursor = self.ctx.Value("i", 0)
            self.claims = self.ctx.Array("i", [-1] * len(self.names), lock=False)
            for slot in range(1, count + 1):
                reader, writer = self.ctx.Pipe(duplex=False)
                with writer:  # the worker holds the write end from here on
                    process = self.ctx.Process(
                        target=_generation_worker,
                        args=(worker_set, self.names, self.cursor, self.claims, slot, writer),
                        name=f"trace-generation-{slot}",
                        daemon=True,
                    )
                    try:
                        process.start()
                    except BaseException:
                        reader.close()
                        raise
                self.workers[slot] = (process, reader)
        except Exception as error:  # noqa: BLE001 - generation goes on without it
            logger.warning(
                "could not start a trace generation worker (%s: %s); going on with %d",
                type(error).__name__,
                error,
                len(self.workers),
            )

    def _claim(self) -> Optional[int]:
        lock = self.cursor.get_lock()
        while not lock.acquire(timeout=self.LOCK_POLL_S):
            if not all(process.is_alive() for process, _ in self.workers.values()):
                return None  # a worker may have died holding the lock
        try:
            return _take_next(self.cursor, self.claims, 0)
        finally:
            lock.release()

    def _collect(self, limit: int) -> None:
        """Receive the workers' traces below ``limit``, stopping idle workers."""
        from multiprocessing.connection import wait

        telemetry = get_telemetry()
        while True:
            owed = {
                self.claims[index]
                for index in range(limit)
                if self.names[index] not in self.trace_set._traces
            }
            for slot in [slot for slot in self.workers if slot not in owed]:
                self._stop(slot)
            if not self.workers:
                return
            # A worker's sentinel as well as its pipe: a process forked by
            # another thread may hold the pipe's write end and withhold EOF.
            handles = {}
            for slot, (process, reader) in self.workers.items():
                handles[reader] = handles[process.sentinel] = slot
            for slot in {handles[handle] for handle in wait(list(handles))}:
                reader = self.workers[slot][1]
                try:
                    if not reader.poll():
                        raise EOFError  # exited with nothing more to send
                    index, trace, recorded = reader.recv()
                except (EOFError, OSError):
                    logger.warning(
                        "trace generation worker %d ended (exit code %s) owing a "
                        "trace; generating it here",
                        slot,
                        self._stop(slot),
                    )
                    continue
                telemetry.merge(recorded)
                telemetry.count("cache.trace.worker_regenerations")
                self.trace_set._traces[self.names[index]] = trace

    def _stop(self, slot: int) -> Optional[int]:
        """Stop and reap one worker; returns its exit code."""
        process, reader = self.workers.pop(slot)
        process.terminate()
        process.join()
        code = process.exitcode
        process.close()
        reader.close()
        return code


def _take_next(cursor, claims, slot: int) -> Optional[int]:
    """Advance the shared cursor (its lock held) and record who took the index."""
    index = cursor.value
    if index >= len(claims):
        return None
    cursor.value = index + 1
    claims[index] = slot
    return index


def _generation_worker(
    trace_set: TraceSet, names: List[str], cursor, claims, slot: int, results
) -> None:
    """A spawned worker of :class:`_SuiteGeneration`: claim, generate, send."""
    import queue
    import signal
    import threading

    from repro.telemetry import Telemetry, set_telemetry

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the calling process stops its workers
    # A trace outgrows the pipe, and the calling process reads only once its
    # own share is done, so a thread sends while this one generates.
    outbox: "queue.SimpleQueue" = queue.SimpleQueue()
    sender = threading.Thread(target=_send_each, args=(outbox, results))
    sender.start()
    try:
        while sender.is_alive():
            with cursor.get_lock():
                index = _take_next(cursor, claims, slot)
            if index is None:
                return
            recorded = Telemetry()
            set_telemetry(recorded)
            try:
                trace = trace_set._generate_and_store(names[index])
            except Exception:  # noqa: BLE001 - the caller's serial loop raises it
                return
            outbox.put((index, trace, recorded))
    finally:
        outbox.put(None)
        sender.join()
        results.close()


def _send_each(outbox, results) -> None:
    try:
        for message in iter(outbox.get, None):
            results.send(message)
    except OSError:
        pass  # the calling process has gone; the worker's loop sees this thread end


def default_trace_set() -> TraceSet:
    """The suite at default scale -- what all paper experiments run on."""
    return TraceSet()


class FileTraceSet:
    """A suite of on-disk ``.rtrace`` files with the :class:`TraceSet` surface.

    What sweep experiments receive when the user points them at imported
    trace files (``--trace-file``): ``benchmarks`` / :meth:`trace` /
    :meth:`traces` / :meth:`fingerprint` behave like :class:`TraceSet`, but
    each entry is a streaming
    :class:`~repro.trace.interchange.FileTraceSource` -- engines consume it
    chunk-wise and peak memory stays one window, not one trace.  Names
    come from the file headers; duplicates are disambiguated by suffix so
    per-benchmark result tables stay well-keyed.
    """

    def __init__(self, paths: Sequence[Union[str, os.PathLike]]):
        from repro.trace.interchange import FileTraceSource

        if not paths:
            raise ValueError("FileTraceSet needs at least one .rtrace path")
        self._sources = []
        names: List[str] = []
        for path in paths:
            source = FileTraceSource(path)
            name = source.name
            if name in names:
                name = f"{name}#{names.count(name) + 1}"
            names.append(source.name)
            self._sources.append((name, source))
        self.benchmarks = [name for name, _source in self._sources]
        self.num_nodes = self._sources[0][1].num_nodes
        self.machine = self._sources[0][1].machine

    def trace(self, benchmark: str):
        for name, source in self._sources:
            if name == benchmark:
                return source
        raise KeyError(f"no trace named {benchmark!r} in this file set")

    def traces(self) -> list:
        return [source for _name, source in self._sources]

    def fingerprint(self) -> str:
        """Content-addressed suite id (stable across file moves/renames)."""
        parts = ";".join(
            f"{name}:{source.fingerprint()}" for name, source in self._sources
        )
        return hashlib.sha256(parts.encode("utf-8")).hexdigest()[:16]

    def protocol_summary(self, benchmark: str) -> dict:
        raise ValueError(
            "protocol statistics are recorded when a trace is generated; an "
            f"imported .rtrace file carries none (requested {benchmark!r}). "
            "Run the experiment on a generated suite instead."
        )


# ----------------------------------------------------------------------
# Sweep checkpoint journal
# ----------------------------------------------------------------------


def default_checkpoint_dir() -> Path:
    """Where sweep journals live (``REPRO_CHECKPOINT_DIR`` overrides)."""
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "data" / "checkpoints"


@dataclass(frozen=True)
class CheckpointPolicy:
    """How sweep experiments use checkpoint journals.

    Attributes:
        enabled: write a journal while sweeping (``--no-journal`` clears it).
        resume: replay an existing compatible journal instead of starting
            fresh (``--resume``); without it a stale journal is discarded.
        directory: journal directory (default :func:`default_checkpoint_dir`).
    """

    enabled: bool = True
    resume: bool = False
    directory: Optional[Path] = None

    def journal_dir(self) -> Path:
        return self.directory if self.directory is not None else default_checkpoint_dir()


_CHECKPOINT_POLICY = CheckpointPolicy()


def get_checkpoint_policy() -> CheckpointPolicy:
    """The process-wide checkpoint policy sweeps consult."""
    return _CHECKPOINT_POLICY


def set_checkpoint_policy(policy: CheckpointPolicy) -> CheckpointPolicy:
    """Install a new policy; returns the previous one for restoration."""
    global _CHECKPOINT_POLICY
    previous = _CHECKPOINT_POLICY
    _CHECKPOINT_POLICY = policy
    return previous


class SweepJournal:
    """Append-only JSONL checkpoint of completed sweep evaluations.

    Line 1 is a header binding the journal to one exact computation:
    journal schema, sweep name, trace-set fingerprint, and the benchmark
    suite order.  Every following line is one completed scheme::

        {"scheme": "<full name>", "counts": [[tp, fp, fn, tn], ...]}

    with one count quadruple per benchmark, in suite order.  Appends are
    flushed per record, so a killed process loses at most the scheme it was
    mid-evaluating; a torn final line (the kill landed mid-write) is
    silently dropped on replay.  A journal whose header does not match the
    requested computation is discarded -- resuming can change wall-clock,
    never results.

    Subclasses journal other per-scheme payloads by overriding :data:`KIND`
    and the :meth:`_encode_payload` / :meth:`_decode_payload` pair
    (:class:`TrafficJournal` checkpoints traffic reports this way); the
    header discipline, torn-tail handling, and resume semantics are shared.
    """

    #: header tag binding a journal file to one payload format
    KIND = "sweep-journal"

    def __init__(
        self,
        path: Path,
        *,
        name: str,
        fingerprint: str,
        trace_names: Sequence[str],
        resume: bool = False,
    ):
        self.path = Path(path)
        self.name = name
        self.fingerprint = fingerprint
        self.trace_names = list(trace_names)
        self._completed: Dict[str, list] = {}
        self._handle = None
        if resume and self.path.exists():
            self._completed = self._replay()
        elif self.path.exists():
            logger.info(
                "discarding existing sweep journal %s (resume not requested)",
                self.path,
            )
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(self._header())
        telemetry = get_telemetry()
        if self._completed:
            telemetry.count("journal.resumed_schemes", len(self._completed))

    def _header(self) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "kind": self.KIND,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "traces": self.trace_names,
        }

    def _encode_payload(self, payload: list) -> dict:
        """Payload hook: one completed scheme's per-trace data as JSON fields."""
        return {
            "counts": [
                [c.true_positive, c.false_positive, c.false_negative, c.true_negative]
                for c in payload
            ]
        }

    def _decode_payload(self, record: dict) -> list:
        """Payload hook: invert :meth:`_encode_payload`.

        Must raise ``ValueError`` / ``KeyError`` / ``TypeError`` on any
        malformed record -- that is how the replay loop detects a torn tail.
        """
        return [
            ConfusionCounts(
                true_positive=tp,
                false_positive=fp,
                false_negative=fn,
                true_negative=tn,
            )
            for tp, fp, fn, tn in record["counts"]
        ]

    def _replay(self) -> Dict[str, list]:
        """Parse an existing journal; incompatible or corrupt -> start over.

        Only a *verified* header admits records; any undecodable line after
        it ends the replay (a torn tail from the killed writer), keeping
        every record before it.
        """
        telemetry = get_telemetry()
        completed: Dict[str, list] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            discard_corrupt(self.path, f"unreadable sweep journal: {error}")
            telemetry.count("journal.discards")
            return {}
        if not lines:
            self.path.unlink()
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if header != self._header():
            discard_corrupt(
                self.path,
                f"sweep journal header {header!r} does not match this sweep",
            )
            telemetry.count("journal.discards")
            return {}
        for line in lines[1:]:
            try:
                record = json.loads(line)
                scheme = record["scheme"]
                payload = self._decode_payload(record)
            except (ValueError, KeyError, TypeError):
                logger.warning(
                    "sweep journal %s has a torn trailing record; dropping it",
                    self.path,
                )
                telemetry.count("journal.torn_records")
                break
            if len(payload) != len(self.trace_names):
                telemetry.count("journal.torn_records")
                break
            completed[scheme] = payload
        return completed

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()

    def get(self, scheme_name: str) -> Optional[list]:
        """The journaled per-trace payload for a scheme, if completed."""
        return self._completed.get(scheme_name)

    def __len__(self) -> int:
        return len(self._completed)

    def record(self, scheme_name: str, payload: Sequence) -> None:
        """Append one completed scheme's per-trace payload (flushed)."""
        line = {"scheme": scheme_name}
        line.update(self._encode_payload(list(payload)))
        self._write_line(line)
        self._completed[scheme_name] = list(payload)
        get_telemetry().count("journal.records")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def discard(self) -> None:
        """Close and delete the journal (the sweep finished and was cached)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_sweep_journal(
    name: str, fingerprint: str, trace_names: Sequence[str]
) -> Optional[SweepJournal]:
    """A journal for one sweep under the installed policy (None = disabled)."""
    policy = get_checkpoint_policy()
    if not policy.enabled:
        return None
    path = policy.journal_dir() / f"{name}-{fingerprint}.jsonl"
    return SweepJournal(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=policy.resume,
    )


class TrafficJournal(SweepJournal):
    """Checkpoint journal for traffic sweeps: one TrafficReport per trace.

    Same header/torn-tail/resume discipline as :class:`SweepJournal`; each
    record line is ``{"scheme": ..., "reports": [TrafficReport.to_json()]}``
    so a resumed sweep rehydrates bit-identical reports without re-running
    the simulator.
    """

    KIND = "traffic-journal"

    def _encode_payload(self, payload: list) -> dict:
        return {"reports": [report.to_json() for report in payload]}

    def _decode_payload(self, record: dict) -> list:
        from repro.metrics.traffic import TrafficReport

        reports = record["reports"]
        if not isinstance(reports, list):
            raise TypeError("reports must be a list")
        return [TrafficReport.from_json(entry) for entry in reports]


def open_job_journal(
    kind: str,
    directory: Path,
    *,
    name: str,
    fingerprint: str,
    trace_names: Sequence[str],
) -> SweepJournal:
    """A journal for one *service job*, always opened in resume mode.

    The sweep service checkpoints every job it runs -- not just CLI sweeps
    -- so a killed server replays finished work on restart.  Unlike
    :func:`open_sweep_journal`, this bypasses the process-wide
    :class:`CheckpointPolicy`: the service owns its state directory and its
    jobs are always resumable (that is the restart contract), so policy
    plumbing would only add a way to break it.  ``kind`` selects the
    payload format: ``"traffic"`` journals :class:`TrafficJournal` report
    records, anything else the confusion-count :class:`SweepJournal`.

    The journal file is keyed by ``fingerprint`` (the job fingerprint,
    which already binds the exact trace set, schemes, and parameters), so
    two different jobs can never share -- or clobber -- a checkpoint file.
    """
    journal_cls = TrafficJournal if kind == "traffic" else SweepJournal
    path = Path(directory) / f"{name}-{fingerprint}.jsonl"
    return journal_cls(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=True,
    )


def open_traffic_journal(
    name: str, fingerprint: str, trace_names: Sequence[str]
) -> Optional[TrafficJournal]:
    """A journal for one traffic sweep (None when journaling is disabled).

    The journal class is resolved through the module global at call time so
    tests can substitute a fault-injecting subclass.
    """
    policy = get_checkpoint_policy()
    if not policy.enabled:
        return None
    path = policy.journal_dir() / f"{name}-{fingerprint}.jsonl"
    return TrafficJournal(
        path,
        name=name,
        fingerprint=fingerprint,
        trace_names=trace_names,
        resume=policy.resume,
    )
