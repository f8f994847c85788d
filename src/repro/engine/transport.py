"""The worker protocol behind the parallel engine: transports and chunks.

The parallel backend's control plane is a demand-driven loop: cut a chunk
of plan-ordered schemes, hand it to an idle worker, fold the completed
results (and the worker's telemetry snapshot) back into the batch.  What
*kind* of worker sits on the other side -- a forked process on this
machine, or a ``repro-worker`` process on another host -- is a transport
choice, not a scheduling choice.  This module owns that seam:

* the **worker side**: :func:`install_traces` pins a batch's trace suite
  (and kernel backend) in the executing process, and :func:`run_chunk`
  scores one chunk against it.  Both the ``multiprocessing`` pool workers
  and the remote ``repro-worker`` loop call exactly these functions, so
  the per-chunk semantics -- plan-grouped evaluation, flat JSON-able
  result payloads, per-chunk telemetry snapshots -- cannot drift between
  transports;
* the **coordinator side**: :class:`WorkTransport` is the interface the
  engine's stealing loop drives (``submit`` / ``next_completed`` /
  ``capacity``), with :class:`MultiprocessingTransport` wrapping the
  historical :class:`~concurrent.futures.ProcessPoolExecutor` pool and
  :class:`repro.engine.remote.SocketTransport` speaking the same chunk
  protocol over TCP to remote hosts.

Chunk payloads are JSON-flat by construction (count quadruples, traffic
report dicts) so the same encoding crosses a pickle boundary and a socket
unchanged; ``decode`` back to result objects happens once, in the parent.
Transports are bit-identical by contract: they move work and bytes, never
math.  The conformance point is the transport-equivalence suite in
``tests/engine/test_transport_equivalence.py`` and the golden fixtures.
"""

from __future__ import annotations

import logging
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.kernel_backends import resolve_kernel_backend, set_kernel_backend
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import Scheme
from repro.forwarding.simulator import simulate_traffic_streamed
from repro.metrics.traffic import TrafficModel
from repro.telemetry import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    set_thread_telemetry,
)
from repro.trace.events import SharingTrace
from repro.trace.shm import attach_trace, publish_traces, shm_available, shm_enabled
from repro.trace.source import as_source

logger = logging.getLogger("repro.engine.transport")

#: chunks kept in flight per worker; 2 means a worker always has the next
#: chunk queued while computing the current one
INFLIGHT_PER_WORKER = 2

#: the chunk kinds the worker protocol understands
CHUNK_KINDS = ("evaluate", "traffic")


# ----------------------------------------------------------------------
# Worker side: installed traces + chunk execution
# ----------------------------------------------------------------------

# Worker-process state, installed once per trace suite by install_traces:
# the trace sources, and the shared-memory mappings backing any of them.
_WORKER_TRACES: List = []
_WORKER_SEGMENTS: List = []


def install_traces(payload: dict) -> None:
    """Install a batch's traces (and kernel choice) in this process.

    Every worker, pooled or remote, installs through this function.
    ``payload["traces"]`` holds one ref per trace, in one of three forms::

        {"fingerprint": ..., "path": ...}                    an .rtrace file
        {"fingerprint": ..., "segment": ..., "nbytes": ...}  a shared-memory image
        {"fingerprint": ..., "image": <bytes>}               the image itself

    A file installs as a :class:`~repro.trace.interchange.FileTraceSource`
    that streams and CRC-checks the file on every pass (shared-filesystem
    assumption); an image is parsed and checked once, here, and then served
    as zero-copy chunk views.  Every form is refused unless the trace's
    content fingerprint is the ref's -- for a file that is its footer, for
    an image the footer after recomputing it from the content -- so a
    swapped, stale or damaged trace can never install.
    ``payload["kernel"]`` pins the kernel backend the *coordinator*
    resolved, so every worker evaluates on the same per-event loop and a
    heterogeneous pool can never change results (an unavailable pinned
    backend degrades to pure Python bit-identically, by the registry
    contract).

    As the pool initializer this runs in a worker forked from whichever
    thread first submitted; that thread's telemetry override (a served
    job's sink) is cleared here, so chunk code records into the per-chunk
    sink :func:`run_chunk` installs.
    """
    global _WORKER_TRACES, _WORKER_SEGMENTS
    from repro.trace.interchange import FileTraceSource, ImageTraceSource

    set_thread_telemetry(None)
    kernel = payload.get("kernel")
    if kernel is not None:
        set_kernel_backend(kernel)
    sources = []
    segments = []
    for ref in payload["traces"]:
        if "segment" in ref:
            attached = attach_trace(ref)
            segments.append(attached)
            source = attached.source
        elif "path" in ref:
            source = FileTraceSource(ref["path"])
        else:
            source = ImageTraceSource(ref["image"])
        if source.fingerprint() != ref["fingerprint"]:
            raise ValueError(
                f"trace {source.name!r} fingerprint mismatch: "
                f"{source.fingerprint()} != {ref['fingerprint']}"
            )
        sources.append(source)
    _WORKER_TRACES = sources
    _WORKER_SEGMENTS = segments


def run_chunk(
    kind: str,
    schemes: List[Scheme],
    args: dict,
    with_telemetry: bool = False,
    prefix: Optional[str] = None,
) -> Tuple[List[list], float, int, Optional[dict]]:
    """Worker task: score one chunk of schemes against the installed traces.

    ``kind`` selects the work shape -- ``"evaluate"`` (confusion counts;
    ``args["exclude_writer"]``) or ``"traffic"`` (forwarding replay;
    ``args["topology"]`` and ``args["model"]`` as a cost triple).  Returns
    ``(payloads, elapsed, events, snapshot)``: one JSON-flat payload list
    per scheme (a count quadruple or a ``TrafficReport.to_json`` dict per
    trace), the chunk's wall-clock and event count (always -- they drive
    the coordinator's adaptive chunk sizing even with telemetry off), and,
    when requested, a fresh per-chunk telemetry snapshot keyed under
    ``prefix`` (default ``engine.parallel.worker.<pid>``) for the
    coordinator to merge -- per-chunk rather than per-worker so folding
    cumulative state twice is impossible.
    """
    if kind not in CHUNK_KINDS:
        raise ValueError(f"unknown chunk kind {kind!r}; known: {list(CHUNK_KINDS)}")
    started = time.perf_counter()
    telemetry = Telemetry() if with_telemetry else None
    previous = set_telemetry(telemetry) if with_telemetry else None
    try:
        if kind == "evaluate":
            payloads = _evaluate_payloads(schemes, bool(args.get("exclude_writer", True)))
        else:
            payloads = _traffic_payloads(
                schemes, args["topology"], [float(part) for part in args["model"]]
            )
    finally:
        if with_telemetry:
            set_telemetry(previous)
    events = len(schemes) * sum(len(trace) for trace in _WORKER_TRACES)
    elapsed = time.perf_counter() - started
    if not with_telemetry:
        return payloads, elapsed, events, None
    if prefix is None:
        prefix = f"engine.parallel.worker.{os.getpid()}"
    telemetry.count(f"{prefix}.chunks")
    telemetry.count(f"{prefix}.schemes", len(schemes))
    telemetry.count(f"{prefix}.events", events)
    telemetry.timer_add(f"{prefix}.seconds", elapsed)
    if _WORKER_SEGMENTS:
        telemetry.count(f"{prefix}.shm_attached_traces", len(_WORKER_SEGMENTS))
    return payloads, elapsed, events, telemetry.to_json()


def _evaluate_payloads(schemes: List[Scheme], exclude_writer: bool) -> List[list]:
    # Chunks are cut inside index-group boundaries, so this mini plan is
    # normally a single index group sharing one key stream and one group
    # pass per update mode.
    per_scheme = evaluate_plan(
        SweepPlan(schemes), _WORKER_TRACES, exclude_writer=exclude_writer
    )
    return [
        [
            [
                counts.true_positive,
                counts.false_positive,
                counts.false_negative,
                counts.true_negative,
            ]
            for counts in per_trace
        ]
        for per_trace in per_scheme
    ]


def _traffic_payloads(
    schemes: List[Scheme], topology: str, model: List[float]
) -> List[list]:
    traffic_model = TrafficModel(*model)
    return [
        [
            simulate_traffic_streamed(
                scheme, trace, topology=topology, model=traffic_model
            ).to_json()
            for trace in _WORKER_TRACES
        ]
        for scheme in schemes
    ]


# ----------------------------------------------------------------------
# Coordinator side: the transport interface
# ----------------------------------------------------------------------


@dataclass
class ChunkResult:
    """One completed chunk, as every transport reports it."""

    chunk_id: int
    payloads: List[list]
    elapsed: float
    events: int
    snapshot: Optional[dict]


class WorkTransport(ABC):
    """Where chunks execute: the engine's stealing loop drives this.

    A transport is built bound to one exact trace suite (identified by
    ``key``, the tuple of content fingerprints its workers hold) and a
    worker count.  The contract:

    * :meth:`submit` hands one chunk to some idle worker; the transport
      owns worker selection and, where it can (sockets), re-dispatching a
      dead or hung worker's outstanding chunks to survivors.  A submitted
      chunk therefore completes exactly once or the transport raises --
      the engine's serial fallback owns total-failure correctness.
    * :meth:`next_completed` blocks until at least one chunk finishes and
      returns the batch (completion order, not submission order).
    * :meth:`capacity` is how many chunks may be in flight at once; the
      engine never submits past it.

    Transports move work and bytes, never math: every implementation must
    be bit-identical, which the transport-equivalence and golden suites
    enforce.
    """

    #: short identifier used in diagnostics and telemetry
    name: str = "abstract"

    #: tuple of trace content fingerprints the workers hold
    key: Tuple[str, ...] = ()

    #: live worker count (transports may lose workers mid-batch)
    workers: int = 0

    @abstractmethod
    def submit(
        self,
        chunk_id: int,
        kind: str,
        schemes: Sequence[Scheme],
        args: dict,
        with_telemetry: bool,
    ) -> None:
        """Dispatch one chunk; must not block on chunk execution."""

    @abstractmethod
    def next_completed(self) -> List[ChunkResult]:
        """Block until at least one submitted chunk completes."""

    def capacity(self) -> int:
        return max(1, self.workers) * INFLIGHT_PER_WORKER

    def reusable_for(self, key: Tuple[str, ...], workers: int) -> bool:
        """Whether a retained transport can serve a new batch as-is."""
        return self.key == key and self.workers >= workers

    def on_reuse(self, telemetry, num_traces: int) -> None:
        """Telemetry hook when a persistent engine reuses this transport."""

    def record_telemetry(self, telemetry) -> None:
        """Fold transport-level counters into the run telemetry."""

    @abstractmethod
    def close(self, cancel: bool = False) -> None:
        """Tear the transport down (idempotent)."""


def trace_refs(traces: Sequence, key: Tuple[str, ...]) -> Iterator[dict]:
    """One :func:`install_traces` ref per trace: a file-backed source by
    path, anything else as its ``.rtrace`` image bytes.

    ``key`` is the suite's :func:`transport_key`, whose entries are the
    refs' fingerprints.  A generator: each image is encoded when its ref
    is taken.
    """
    from repro.trace.interchange import FileTraceSource, trace_image

    for trace, fingerprint in zip(traces, key):
        if isinstance(trace, FileTraceSource):
            yield {"fingerprint": fingerprint, "path": trace.path}
        else:
            yield {"fingerprint": fingerprint, "image": trace_image(trace)}


def prepare_mp_payload(traces: Sequence, key: Tuple[str, ...]):
    """Choose how the pool's traces travel: paths, shm images, or bytes.

    Returns ``(published_or_None, initializer_payload)``.  File-backed
    sources travel as their paths.  Every other trace's image goes into a
    shared-memory segment when ``REPRO_SHM`` allows it -- published before
    the next is encoded, so one image is resident at a time; when it does
    not, or publishing fails (quota, missing /dev/shm -- counted under
    ``shm.fallbacks``, never an error), the image bytes ride in the
    initializer arguments instead.
    """
    # Resolve the kernel backend in the coordinator (compiling/self-checking
    # the native library here, once) and pin the choice in every worker.
    kernel = resolve_kernel_backend().name
    if shm_enabled() and shm_available():
        try:
            published = publish_traces(trace_refs(traces, key))
        except (OSError, RuntimeError) as error:
            logger.warning(
                "shared-memory trace transport unavailable (%s: %s); "
                "sending trace images as bytes",
                type(error).__name__,
                error,
            )
            get_telemetry().count("shm.fallbacks")
        else:
            return published, {"traces": published.descriptors, "kernel": kernel}
    return None, {"traces": list(trace_refs(traces, key)), "kernel": kernel}


class MultiprocessingTransport(WorkTransport):
    """The in-machine transport: a process pool plus shm trace images.

    Owns the :class:`ProcessPoolExecutor` (whose workers were initialized
    with the transport payload via :func:`install_traces`) and the
    published shared-memory segments backing it.  Worker death surfaces as
    a ``BrokenProcessPool`` out of :meth:`next_completed` -- the engine's
    serial fallback handles it, exactly as before the transport seam
    existed.
    """

    name = "multiprocessing"

    def __init__(
        self,
        traces: Sequence[SharingTrace],
        key: Tuple[str, ...],
        workers: int,
        executor=None,
    ):
        self.key = key
        self.workers = workers
        self.published, payload = prepare_mp_payload(traces, key)
        make_pool = executor if executor is not None else ProcessPoolExecutor
        self.pool = make_pool(
            max_workers=workers,
            initializer=install_traces,
            initargs=(payload,),
        )
        self._inflight: Dict[object, int] = {}

    @property
    def shm_active(self) -> bool:
        return self.published is not None and any(
            "segment" in ref for ref in self.published.descriptors
        )

    def submit(self, chunk_id, kind, schemes, args, with_telemetry) -> None:
        future = self.pool.submit(
            run_chunk, kind, list(schemes), args, with_telemetry
        )
        self._inflight[future] = chunk_id

    def next_completed(self) -> List[ChunkResult]:
        done, _ = wait(self._inflight.keys(), return_when=FIRST_COMPLETED)
        completed = []
        for future in done:
            chunk_id = self._inflight.pop(future)
            payloads, elapsed, events, snapshot = future.result()
            completed.append(
                ChunkResult(chunk_id, payloads, elapsed, events, snapshot)
            )
        return completed

    def reusable_for(self, key, workers) -> bool:
        return self.pool is not None and super().reusable_for(key, workers)

    def on_reuse(self, telemetry, num_traces: int) -> None:
        telemetry.count("engine.parallel.pool_reuses")
        if self.shm_active:
            telemetry.count("shm.republish_avoided", num_traces)

    def record_telemetry(self, telemetry) -> None:
        telemetry.gauge(
            "engine.parallel.transport_shm", 1.0 if self.shm_active else 0.0
        )

    def close(self, cancel: bool = False) -> None:
        """Shut the pool down and unlink the shared segments (idempotent)."""
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=cancel)
            self.pool = None
        if self.published is not None:
            self.published.close()
            self.published = None


def transport_key(traces: Sequence) -> Tuple[str, ...]:
    """The trace-content identity a transport is bound to: each trace's
    :func:`~repro.trace.source.stream_fingerprint` (a file's footer)."""
    return tuple(as_source(trace).fingerprint() for trace in traces)
