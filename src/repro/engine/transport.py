"""The worker side of the parallel engine's chunk protocol.

The parallel backend's control plane is a demand-driven loop: cut a chunk
of plan-ordered schemes, hand it to an idle worker, fold the completed
results (and the worker's telemetry snapshot) back into the batch.  Every
worker -- one forked on this machine for ``jobs=N``, or a ``repro-worker``
process on another host -- is driven by the same
:class:`repro.engine.remote.SocketTransport` and executes through this
module:

* :func:`install_traces` pins a batch's trace suite (and kernel backend)
  in the worker process;
* :func:`run_chunk` scores one chunk against it, returning plan-grouped
  results as flat JSON-able payloads plus a per-chunk telemetry snapshot;
* :func:`trace_refs` and :func:`transport_key` are the coordinator's half
  of an install: one ref per trace, and the fingerprint tuple a transport
  is bound to.

Chunk payloads are JSON-flat by construction (count quadruples, traffic
report dicts), and ``decode`` back to result objects happens once, in the
coordinator.  Transports move work and bytes, never math: the conformance
points are ``tests/engine/test_transport_equivalence.py`` and the golden
fixtures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.kernel_backends import set_kernel_backend
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import Scheme
from repro.forwarding.simulator import simulate_traffic_streamed
from repro.metrics.traffic import TrafficModel
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.source import as_source

#: chunks kept in flight per worker; 2 means a worker always has the next
#: chunk queued while computing the current one
INFLIGHT_PER_WORKER = 2

#: the chunk kinds the worker protocol understands
CHUNK_KINDS = ("evaluate", "traffic")


# Worker-process state: the trace sources install_traces pinned.
_WORKER_TRACES: List = []


def install_traces(payload: dict) -> None:
    """Install a batch's traces (and kernel choice) in this process.

    Every worker installs through this function.  ``payload["traces"]``
    holds one ref per trace, in one of two forms::

        {"fingerprint": ..., "path": ...}        an .rtrace file
        {"fingerprint": ..., "image": <bytes>}   the image itself

    A file installs as a :class:`~repro.trace.interchange.FileTraceSource`
    that streams and CRC-checks the file on every pass (shared-filesystem
    assumption); an image is parsed and checked once, here, and then served
    as zero-copy chunk views.  Either form is refused unless the trace's
    content fingerprint is the ref's -- for a file that is its footer, for
    an image the footer after recomputing it from the content -- so a
    swapped, stale or damaged trace can never install.
    ``payload["kernel"]`` pins the kernel backend the *coordinator*
    resolved, so every worker evaluates on the same per-event loop and a
    heterogeneous fleet can never change results (an unavailable pinned
    backend degrades to pure Python bit-identically, by the registry
    contract).
    """
    global _WORKER_TRACES
    from repro.trace.interchange import FileTraceSource, ImageTraceSource

    kernel = payload.get("kernel")
    if kernel is not None:
        set_kernel_backend(kernel)
    sources = []
    for ref in payload["traces"]:
        if "path" in ref:
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


@dataclass
class ChunkResult:
    """One completed chunk, as the transport reports it."""

    chunk_id: int
    payloads: List[list]
    elapsed: float
    events: int
    snapshot: Optional[dict]


def trace_refs(traces: Sequence, key: Tuple[str, ...]) -> List[dict]:
    """One :func:`install_traces` ref per trace: a file-backed source by
    path, anything else as its ``.rtrace`` image bytes.

    ``key`` is the suite's :func:`transport_key`, whose entries are the
    refs' fingerprints.
    """
    from repro.trace.interchange import FileTraceSource, trace_image

    return [
        {"fingerprint": fingerprint, "path": trace.path}
        if isinstance(trace, FileTraceSource)
        else {"fingerprint": fingerprint, "image": trace_image(trace)}
        for trace, fingerprint in zip(traces, key)
    ]


def transport_key(traces: Sequence) -> Tuple[str, ...]:
    """The trace-content identity a transport is bound to: each trace's
    :func:`~repro.trace.source.stream_fingerprint` (a file's footer)."""
    return tuple(as_source(trace).fingerprint() for trace in traces)
