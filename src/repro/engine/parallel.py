"""Parallel engine backend: adaptive chunk scheduling over socket workers.

The design-space sweeps evaluate thousands of schemes against the same
handful of traces, which is embarrassingly parallel across *schemes*.  This
backend cuts the batch into plan-ordered chunks and drives them through
the :class:`~repro.engine.remote.SocketTransport` -- over ``jobs`` workers
forked on this machine, or over the ``repro-worker`` processes that
``hosts=`` names on other machines.  Either way one control plane runs:

* **Fingerprint-verified trace transport** -- every trace reaches a
  worker as one ``.rtrace`` image: a file-backed source as its path,
  anything else as image bytes in the install message.  Workers refuse
  any trace whose content fingerprint is not the coordinator's.  Local and
  host workers are bit-identical and frozen against the golden
  fixtures.
* **Plan-group work stealing** -- the batch is first permuted into
  :class:`~repro.core.plan.SweepPlan` order and chunks are cut inside
  index-group boundaries, so every chunk a worker steals shares one
  IndexSpec: the worker evaluates it through
  :func:`~repro.core.plan.evaluate_plan`, keeping the planner's shared
  key streams and group passes effective across the process boundary.  Dispatch stays demand-driven: the parent
  keeps a small number of chunks in flight and cuts the next chunk when a
  worker finishes one ("stealing" from the shared remainder).  Chunk size
  starts small and is continuously resized from the observed schemes/sec
  so each chunk lands near :data:`TARGET_CHUNK_SECONDS`: cheap bitmap
  schemes travel in big chunks (amortizing dispatch), expensive
  deep-history or PAs schemes travel in small ones (so a straggler chunk
  cannot serialize the tail of a sweep), and oversized plan groups split
  across chunks without double-evaluating a scheme.  An explicit
  ``chunk_size`` pins the size (used by tests for determinism) while
  keeping the demand-driven queue and the segment clamps.  Results and
  ``on_result`` callbacks are mapped back to the caller's scheme order, so
  journaling (and ``--resume``) stay per scheme and bit-identical.
* **Graceful degradation** -- the transport *re-steals* a dead or hung
  worker's chunks onto the survivors; a transport that fails outright
  (workers cannot fork, every worker lost) degrades to the in-process
  vectorized backend after a logged warning.  A genuine evaluation bug
  still surfaces, from the serial rerun.
* **Worker telemetry merged at the parent** -- when telemetry is enabled,
  each chunk records its shard shape and wall-clock into a fresh
  per-chunk :class:`~repro.telemetry.core.Telemetry` (keyed under
  ``engine.parallel.worker.<pid>.*`` locally,
  ``engine.remote.worker.<host>.*`` on hosts) and ships the snapshot
  home with its results; the parent folds all snapshots into the run
  telemetry.  Because merging is associative and per-chunk objects start
  empty, fold order does not matter and nothing is double-counted.  The
  scheduler's own decisions surface under ``engine.parallel.steal.*`` and
  the transport's under ``engine.remote.*``.

Workers return bare count quadruples rather than ``ConfusionCounts``
objects to keep result payloads flat and cheap on every transport.
"""

from __future__ import annotations

import logging
import math
import os
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import SweepPlan
from repro.core.schemes import Scheme
from repro.engine.backends import VectorizedEngine
from repro.engine.base import EvaluationEngine, ResultCallback, TrafficCallback
from repro.engine.remote import SocketTransport, parse_hosts
from repro.engine.transport import INFLIGHT_PER_WORKER, transport_key
from repro.forwarding.simulator import ForwardingConfig
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import TrafficReport
from repro.telemetry import Telemetry, get_telemetry
from repro.trace.events import SharingTrace

logger = logging.getLogger("repro.engine.parallel")

#: batches smaller than this run serially -- starting workers costs more
#: than the evaluation itself.
MIN_BATCH_FOR_POOL = 4

#: the adaptive scheduler sizes chunks so one chunk costs about this much
#: wall-clock: long enough to amortize dispatch, short enough that the
#: final chunks of a sweep drain evenly across workers.
TARGET_CHUNK_SECONDS = 0.25

#: first chunks are small probes; real sizing waits for observed throughput
INITIAL_CHUNK = 2

#: hard ceiling on any adaptive chunk (keeps checkpoint granularity sane)
MAX_CHUNK = 512


def default_jobs() -> int:
    """Worker count when none is configured: every core."""
    return os.cpu_count() or 1


class _ChunkScheduler:
    """Demand-driven chunk cutter with throughput-adaptive sizing.

    Holds the undispatched remainder of a scheme batch; workers (via the
    parent's completion loop) *steal* the next chunk when they go idle.
    Completed-chunk observations feed an exponentially-weighted schemes/sec
    estimate, and each new chunk is sized so its predicted wall-clock is
    about :data:`TARGET_CHUNK_SECONDS`.  With ``fixed_size`` the size is
    pinned (deterministic chunking for tests / comparison baselines) but
    dispatch stays demand-driven.

    ``boundaries`` (sorted cumulative segment ends, e.g.
    :meth:`SweepPlan.batch_boundaries` over the plan-ordered batch) makes
    the cutting *segment-aware*: a chunk never straddles a boundary, so
    every chunk a worker steals shares one IndexSpec and the worker's
    group passes run at full width.  Oversized segments still
    split into multiple chunks -- size-aware stealing, not one-segment-one-
    worker -- and crossing would merely cost locality, never correctness.
    """

    #: EWMA smoothing for the observed schemes/sec (higher = more reactive)
    ALPHA = 0.5

    def __init__(
        self,
        total: int,
        fixed_size: Optional[int],
        jobs: int,
        boundaries: Optional[Sequence[int]] = None,
    ):
        self.total = total
        self.jobs = max(1, jobs)
        self.fixed_size = max(1, fixed_size) if fixed_size is not None else None
        self.boundaries = sorted(boundaries) if boundaries else None
        self.next_index = 0
        self.chunks_cut = 0
        self.resizes = 0
        self.segment_clamps = 0
        self.last_size = 0
        self.schemes_per_sec: Optional[float] = None
        self.events_per_sec: Optional[float] = None

    @property
    def remaining(self) -> int:
        return self.total - self.next_index

    def has_pending(self) -> bool:
        return self.remaining > 0

    def _adaptive_size(self) -> int:
        if self.schemes_per_sec is None:
            # No observation yet: probe small, but never smaller than the
            # even-shard floor would make sensible for tiny batches.
            return min(INITIAL_CHUNK, max(1, self.remaining))
        size = max(1, int(round(self.schemes_per_sec * TARGET_CHUNK_SECONDS)))
        # Never cut a chunk bigger than an even split of what is left
        # across the workers: the tail must stay balanced even if the
        # throughput estimate is stale.
        tail_cap = max(1, math.ceil(self.remaining / self.jobs))
        return min(size, tail_cap, MAX_CHUNK)

    def next_chunk(self) -> Tuple[int, int]:
        """Cut the next ``(start, size)`` chunk off the remainder."""
        if not self.has_pending():
            raise IndexError("no schemes left to schedule")
        size = self.fixed_size if self.fixed_size is not None else self._adaptive_size()
        size = min(size, self.remaining)
        if self.boundaries is not None:
            # first boundary strictly past the chunk start ends its segment
            cursor = bisect_right(self.boundaries, self.next_index)
            if cursor < len(self.boundaries):
                segment_end = self.boundaries[cursor]
                if size > segment_end - self.next_index:
                    size = segment_end - self.next_index
                    self.segment_clamps += 1
        if self.last_size and size != self.last_size:
            self.resizes += 1
        self.last_size = size
        start = self.next_index
        self.next_index += size
        self.chunks_cut += 1
        return start, size

    def observe(self, num_schemes: int, elapsed: float, events: int) -> None:
        """Fold one completed chunk's wall-clock into the throughput EWMA."""
        if elapsed <= 0 or num_schemes <= 0:
            return
        rate = num_schemes / elapsed
        event_rate = events / elapsed
        if self.schemes_per_sec is None:
            self.schemes_per_sec = rate
            self.events_per_sec = event_rate
        else:
            self.schemes_per_sec += self.ALPHA * (rate - self.schemes_per_sec)
            self.events_per_sec += self.ALPHA * (event_rate - self.events_per_sec)

    def record_telemetry(self, telemetry) -> None:
        telemetry.count("engine.parallel.steal.chunks", self.chunks_cut)
        telemetry.count("engine.parallel.steal.resizes", self.resizes)
        telemetry.count("engine.parallel.steal.segment_clamps", self.segment_clamps)
        telemetry.gauge("engine.parallel.steal.final_chunk_size", self.last_size)
        telemetry.gauge(
            "engine.parallel.steal.target_seconds",
            0.0 if self.fixed_size is not None else TARGET_CHUNK_SECONDS,
        )
        if self.schemes_per_sec is not None:
            telemetry.gauge(
                "engine.parallel.steal.schemes_per_sec", self.schemes_per_sec
            )
        if self.events_per_sec is not None:
            telemetry.gauge(
                "engine.parallel.steal.events_per_sec", self.events_per_sec
            )


class ParallelEngine(EvaluationEngine):
    """Shard scheme batches across worker processes (local or remote).

    Single-scheme calls run in-process on the vectorized backend (there is
    nothing to shard); only batch evaluation fans out.

    Args:
        jobs: local worker processes to fork (default: every core).
            Ignored when ``hosts`` is given -- the worker count is then
            however many hosts answer.
        chunk_size: pin the scheme-chunk size instead of adapting it from
            observed throughput (mainly for tests and A/B baselines).
        persistent: keep the transport (its workers and their installed
            traces) alive between batch calls.  Consecutive batches over
            the same traces reuse the warm transport instead of re-forking
            or reconnecting workers and re-installing traces (counted
            under ``engine.parallel.pool_reuses`` locally,
            ``engine.remote.transport_reuses`` for hosts); a batch over
            *different* traces, or after a local worker was lost, tears the
            old transport down and builds a fresh one.  The owner must
            call :meth:`close` (or use the engine as a context manager)
            when done -- this is what the sweep service runs, one
            transport shared across every job.
        hosts: ``host:port`` addresses of running ``repro-worker``
            processes (sequence or comma-separated string) to use instead
            of local workers.
        chunk_timeout: seconds before an unanswered chunk declares its
            worker hung (default ``REPRO_REMOTE_TIMEOUT`` or 300).
    """

    name = "parallel"
    # Sources pass through to the workers: file-backed ones travel as
    # their paths (workers stream them), any other as its .rtrace image,
    # and the serial fallback streams in-process.
    supports_streams = True

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        persistent: bool = False,
        hosts: Optional[Sequence[str]] = None,
        chunk_timeout: Optional[float] = None,
    ):
        self.jobs = max(1, int(jobs)) if jobs is not None else default_jobs()
        self.chunk_size = chunk_size
        self.persistent = persistent
        self.hosts = parse_hosts(hosts)
        self.chunk_timeout = chunk_timeout
        self._transport: Optional[SocketTransport] = None
        self._serial = VectorizedEngine()

    def close(self) -> None:
        """Release the retained transport and its workers (idempotent)."""
        if self._transport is not None:
            transport, self._transport = self._transport, None
            transport.close()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard for retained workers
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def _evaluate_one(
        self, scheme: Scheme, trace: SharingTrace, exclude_writer: bool
    ) -> ConfusionCounts:
        # Recorded under engine.parallel.* by the base class: this engine
        # was asked, even though the work runs in-process.
        return self._serial._evaluate_one(scheme, trace, exclude_writer)

    def _serial_batch(self, schemes: Sequence[Scheme]) -> bool:
        """Whether a batch should skip the transport entirely."""
        if len(schemes) < MIN_BATCH_FOR_POOL:
            return True
        return self.jobs <= 1 and not self.hosts

    def _evaluate_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[SharingTrace],
        *,
        exclude_writer: bool,
        on_result: Optional[ResultCallback],
    ) -> List[List[ConfusionCounts]]:
        if self._serial_batch(schemes):
            return self._serial._evaluate_batch(
                schemes, traces, exclude_writer=exclude_writer, on_result=on_result
            )
        telemetry = get_telemetry()
        try:
            return self._run_pooled(
                schemes,
                traces,
                "evaluate",
                {"exclude_writer": exclude_writer},
                _decode_counts,
                on_result,
            )
        except Exception as error:  # noqa: BLE001 - any transport failure degrades
            logger.warning(
                "parallel backend failed (%s: %s); falling back to serial "
                "vectorized evaluation",
                type(error).__name__,
                error,
            )
            telemetry.count("engine.parallel.fallbacks")
            return self._serial._evaluate_batch(
                schemes, traces, exclude_writer=exclude_writer, on_result=on_result
            )

    def _acquire_transport(
        self, traces: Sequence[SharingTrace], workers: int
    ) -> SocketTransport:
        """A transport whose workers hold ``traces`` -- reused when possible.

        In persistent mode a retained transport whose trace fingerprints
        match, and whose workers are all still alive (any, for hosts), is
        returned as-is: the workers keep their installed traces (and warm
        key caches), and nothing is re-shipped.  Otherwise (or for a
        non-persistent engine) a fresh transport is built; the stale one is
        torn down first so at most one is ever alive per engine.
        """
        telemetry = get_telemetry()
        key = transport_key(traces)
        if self._transport is not None:
            transport = self._transport
            if transport.reusable_for(key, workers):
                if telemetry.enabled:
                    transport.on_reuse(telemetry)
                return transport
            self._transport = None
            transport.close()
        transport = SocketTransport(
            traces,
            key,
            hosts=self.hosts,
            jobs=workers,
            chunk_timeout=self.chunk_timeout,
        )
        if self.persistent:
            self._transport = transport
        return transport

    def _release_transport(
        self, transport: SocketTransport, broken: bool = False
    ) -> None:
        """Give a transport back after a batch.

        Persistent engines retain a healthy transport for the next batch;
        a ``broken`` transport (the pooled run raised) is always
        discarded, so the serial fallback never leaves a half-dead worker
        set behind.
        """
        if self.persistent and not broken:
            return
        if self._transport is transport:
            self._transport = None
        transport.close()

    def _run_pooled(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[SharingTrace],
        kind: str,
        args: dict,
        decode,
        on_result,
    ) -> List[list]:
        """Demand-driven execution of one chunk kind over a transport.

        The shared control plane of every pooled batch shape: transport
        acquisition, plan-ordered segment-aware chunk scheduling,
        completion-order result decoding, and telemetry folding.  Schemes
        are permuted into :class:`SweepPlan` order before chunking so every
        chunk shares one IndexSpec; results and ``on_result``
        indices are mapped back through the permutation, so callers (and
        the sweep journal, which checkpoints per scheme) see only the
        original order.  ``kind``/``args`` name a worker task per
        :func:`repro.engine.transport.run_chunk`; ``decode`` rehydrates one
        scheme's flat payload into the caller's result objects.
        """
        telemetry = get_telemetry()
        schemes = list(schemes)
        plan = SweepPlan(schemes)
        if telemetry.enabled:
            plan.record_telemetry(telemetry)
        plan_order = plan.order()
        ordered_schemes = [schemes[position] for position in plan_order]
        # A persistent transport is sized for the engine, not the batch: the
        # next batch may be bigger, and idle workers cost nothing between jobs.
        workers = self.jobs if self.persistent else min(self.jobs, len(schemes))
        results: List[Optional[list]] = [None] * len(schemes)
        transport = self._acquire_transport(traces, workers)
        try:
            scheduler = _ChunkScheduler(
                len(schemes),
                self.chunk_size,
                max(1, transport.workers),
                boundaries=plan.batch_boundaries(),
            )
            pending: Dict[int, Tuple[int, int]] = {}
            next_chunk_id = 0
            while scheduler.has_pending() or pending:
                capacity = min(
                    transport.capacity(), len(schemes) * INFLIGHT_PER_WORKER
                )
                while scheduler.has_pending() and len(pending) < capacity:
                    start, size = scheduler.next_chunk()
                    chunk_id = next_chunk_id
                    next_chunk_id += 1
                    transport.submit(
                        chunk_id,
                        kind,
                        ordered_schemes[start : start + size],
                        args,
                        telemetry.enabled,
                    )
                    pending[chunk_id] = (start, size)
                    if telemetry.enabled:
                        telemetry.count("engine.parallel.chunks_dispatched")
                for chunk in transport.next_completed():
                    start, size = pending.pop(chunk.chunk_id)
                    scheduler.observe(size, chunk.elapsed, chunk.events)
                    if chunk.snapshot is not None:
                        telemetry.merge(Telemetry.from_json(chunk.snapshot))
                    for offset, per_trace in enumerate(chunk.payloads):
                        decoded = decode(per_trace)
                        position = plan_order[start + offset]
                        results[position] = decoded
                        if on_result is not None:
                            on_result(position, decoded)
            if telemetry.enabled:
                scheduler.record_telemetry(telemetry)
                telemetry.gauge("engine.parallel.workers", transport.workers)
                transport.record_telemetry(telemetry)
        except BaseException:
            self._release_transport(transport, broken=True)
            raise
        else:
            self._release_transport(transport)
        assert all(entry is not None for entry in results)
        return results  # type: ignore[return-value]

    def _evaluate_traffic_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[SharingTrace],
        *,
        config: ForwardingConfig,
        on_result: Optional[TrafficCallback],
    ) -> List[List[TrafficReport]]:
        if self._serial_batch(schemes):
            return super()._evaluate_traffic_batch(
                schemes, traces, config=config, on_result=on_result
            )
        telemetry = get_telemetry()
        try:
            return self._run_pooled(
                schemes,
                traces,
                "traffic",
                {
                    "topology": config.topology,
                    "model": [
                        config.model.request_cost,
                        config.model.data_cost,
                        config.model.hop_cost,
                    ],
                },
                _decode_traffic,
                on_result,
            )
        except Exception as error:  # noqa: BLE001 - any transport failure degrades
            logger.warning(
                "parallel traffic backend failed (%s: %s); falling back to "
                "serial in-process simulation",
                type(error).__name__,
                error,
            )
            telemetry.count("engine.parallel.fallbacks")
            return super()._evaluate_traffic_batch(
                schemes, traces, config=config, on_result=on_result
            )


def _decode_counts(per_trace: Sequence[Sequence[int]]) -> List[ConfusionCounts]:
    return [
        ConfusionCounts(
            true_positive=tp,
            false_positive=fp,
            false_negative=fn,
            true_negative=tn,
        )
        for tp, fp, fn, tn in per_trace
    ]


def _decode_traffic(per_trace: Sequence[dict]) -> List[TrafficReport]:
    return [TrafficReport.from_json(entry) for entry in per_trace]
