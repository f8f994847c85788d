"""Spans recorded from outside the program, and the wrappers that make them.

A traced run wraps public functions of each program layer at the names
their callers look them up (``repro.core.plan.compute_keys`` as well as
``repro.core.vectorized.compute_keys``), records one span per call, and
removes every wrapper afterwards so untraced runs measure unwrapped code.

A span has a name ``<layer>.<what>``, a start, an end and a parent.  A
layer's self time is the duration of its spans minus the part covered by
their child spans; spans whose layer is ``None`` (the round, each
experiment, an experiment's compute step) only delimit work and leave
their self time to ``harness.other_s``.  Spans stay in memory and are
written at the end as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: accesses pulled from a workload generator per simulated batch
_ACCESS_BATCH = 65536


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "args", "tid")

    def __init__(self, name, layer, start, parent, args, tid):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.args = args
        self.tid = tid


class Recorder:
    """In-memory span and counter store for one traced round."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: distinct (scheme, trace) pairs a traffic prediction ran for
        self.predicted: set = set()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: Optional[str], **args) -> Span:
        stack = self._stack()
        span = Span(
            name, layer, time.perf_counter(), stack[-1] if stack else None, args,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add(self, name: str, layer: Optional[str], start: float, end: float,
            **args) -> Span:
        """Record a span measured elsewhere (e.g. a served job's phases)."""
        tid = args.pop("tid", 0)
        span = Span(name, layer, start, None, args, tid)
        span.end = end
        self.spans.append(span)
        return span

    def span(self, name: str, layer: Optional[str], **args):
        return _SpanContext(self, name, layer, args)

    # -- derived views ---------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus child coverage)."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + (span.end - span.start)
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = (span.end - span.start) - child_time.get(id(span), 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, over every span that names a layer."""
        layer_of = {span.name: span.layer for span in self.spans}
        layers: Dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = layer_of[name]
            if layer is not None:
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def durations(self, name: str) -> List[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def write_chrome(self, path: Path, pid: int) -> None:
        """Chrome trace-event JSON (opens in chrome://tracing or Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for span in sorted(self.spans, key=lambda item: item.start):
            args = {key: str(value) for key, value in span.args.items()}
            if span.parent is not None:
                args["parent"] = span.parent.name
            events.append({
                "name": span.name,
                "cat": span.layer or "harness.other",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": pid,
                "tid": span.tid,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        os.replace(tmp, path)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_layer", "_args", "_span")

    def __init__(self, recorder, name, layer, args):
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._args = args

    def __enter__(self) -> Span:
        self._span = self._recorder.begin(self._name, self._layer, **self._args)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._recorder.end(self._span)


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------


class Patches:
    """A set of attribute replacements that can be undone and verified."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []
        #: targets the program no longer has (a refactor moved them); their
        #: spans are simply absent, so the traced run still completes
        self.missing: List[str] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in namespace:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = namespace[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def leftovers(self) -> List[str]:
        """Names still wrapped after :meth:`remove` (should be empty)."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]


def _timed(recorder: Recorder, name: str, layer: str,
           after: Optional[Callable] = None) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            recorder.counts[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def install_program_wrappers(recorder: Recorder) -> Patches:
    """Wrap every layer entry point the in-process workloads reach."""
    import repro.core.kernel_backends as kernel_backends
    import repro.core.plan as plan
    import repro.core.vectorized as vectorized
    import repro.core.windowed as windowed
    import repro.engine.backends as backends
    import repro.engine.base as engine_base
    import repro.harness.experiments.figures as figures
    import repro.harness.experiments.scenarios as scenarios
    import repro.harness.experiments.sweeps as sweeps
    import repro.harness.experiments.tables as tables
    import repro.harness.experiments.traffic as traffic
    import repro.harness.extensions as extensions
    import repro.harness.runner as runner
    import repro.memory.system as memory_system
    import repro.trace.interchange as interchange

    patches = Patches()
    counts = recorder.counts

    # workloads / memory: split generate_trace into pulling accesses from
    # the workload generator and feeding them through the protocol
    def count_events(args, kwargs, result):
        counts["memory.sharing_events"] += len(result[0])

    patches.replace(runner, "generate_trace",
                    _timed(recorder, "memory.generate_trace", "memory", count_events))

    def batched_run(original):
        @functools.wraps(original)
        def run(self, accesses):
            iterator = iter(accesses)
            while True:
                with recorder.span("workloads.generate", "workloads"):
                    batch = list(itertools.islice(iterator, _ACCESS_BATCH))
                if not batch:
                    return
                counts["workloads.accesses"] += len(batch)
                with recorder.span("memory.simulate", "memory"):
                    original(self, batch)

        return run

    patches.replace(memory_system.MultiprocessorSystem, "run", batched_run)

    # trace: the resident cache and .rtrace chunk decoding
    patches.replace(runner, "load_trace", _timed(recorder, "trace.cache_load", "trace"))
    patches.replace(runner, "save_trace", _timed(recorder, "trace.cache_save", "trace"))

    def timed_chunks(original):
        @functools.wraps(original)
        def chunks(self, *args, **kwargs):
            iterator = original(self, *args, **kwargs)

            def generate():
                while True:
                    with recorder.span("trace.chunk_read", "trace"):
                        try:
                            chunk = next(iterator)
                        except StopIteration:
                            return
                    counts["trace.chunks_read"] += 1
                    yield chunk

            return generate()

        return chunks

    patches.replace(interchange.FileTraceSource, "chunks", timed_chunks)

    # core: keys, the planner and the streamed sweep, kernels, scoring
    for module in (vectorized, plan, windowed):
        patches.replace(module, "compute_keys", _timed(recorder, "core.keys", "core"))
    patches.replace(backends, "evaluate_plan", _timed(recorder, "core.plan", "core"))
    patches.replace(backends, "evaluate_batch_streamed",
                    _timed(recorder, "core.windowed", "core"))

    def count_native(args, kwargs, result):
        backend = kernel_backends.resolve_kernel_backend()
        if backend.name != "python" and backend.supports(args[0]):
            counts["core.kernel_native_calls"] += 1

    kernel = _timed(recorder, "core.kernel", "core", count_native)
    patches.replace(plan, "kernel_evaluate", kernel)
    patches.replace(vectorized, "kernel_evaluate", kernel)
    patches.replace(vectorized, "kernel_predict", kernel)
    # streamed per-event schemes carry the pure-Python kernel table
    patches.replace(windowed._KernelSchemeState, "feed", _timed(recorder, "core.kernel", "core"))
    for module in (vectorized, windowed, kernel_backends):
        patches.replace(module, "score_predictions", _timed(recorder, "core.score", "core"))

    # engine
    patches.replace(engine_base.EvaluationEngine, "evaluate_batch",
                    _timed(recorder, "engine.batch", "engine"))
    patches.replace(engine_base.EvaluationEngine, "evaluate",
                    _timed(recorder, "engine.evaluate", "engine"))

    # forwarding: simulate_traffic predicts, then replays; with the replay
    # (and key computation) as child spans, its self time is the prediction
    def note_distinct(args, kwargs, result):
        recorder.predicted.add((args[1].full_name, args[2].name))

    patches.replace(engine_base.EvaluationEngine, "simulate_traffic",
                    _timed(recorder, "forwarding.predict", "forwarding", note_distinct))
    patches.replace(engine_base, "replay_traffic",
                    _timed(recorder, "forwarding.replay", "forwarding"))

    # harness: the result cache (its compute step is not the cache's time)
    # and the sweep journal
    def traced_cache(original):
        @functools.wraps(original)
        def cached_result(name, fingerprint, compute, *args, **kwargs):
            def traced_compute():
                with recorder.span(f"compute.{name}", None):
                    return compute()

            with recorder.span("harness.result_cache", "harness"):
                return original(name, fingerprint, traced_compute, *args, **kwargs)

        return cached_result

    for module in (sweeps, tables, figures, traffic, scenarios, extensions):
        patches.replace(module, "cached_result", traced_cache)
    patches.replace(runner.SweepJournal, "record",
                    _timed(recorder, "harness.journal", "harness"))
    return patches


def in_process_layer_metrics(recorder: Recorder, telemetry, wall_s: float) -> dict:
    """Per-layer metrics of an in-process traced round.

    ``telemetry`` is the program's own :class:`~repro.telemetry.Telemetry`
    sink installed for the round; its counters supply what the spans cannot
    see (key-cache hits, trace passes, scored scheme-events).
    """
    own = recorder.self_times()
    counts = recorder.counts
    counters = telemetry.counters
    keys_hits = counters.get("plan.key_cache.hits", 0)
    keys_misses = counters.get("plan.key_cache.misses", 0)
    kernel_calls = counts["core.kernel"]
    batch_seconds = sum(recorder.durations("engine.batch"))
    scheme_events = sum(
        amount for name, amount in counters.items()
        if name.startswith("engine.") and name.endswith(".batch_events")
    )
    predictions = counts["forwarding.predict"]
    memory_s = own.get("memory.generate_trace", 0.0) + own.get("memory.simulate", 0.0)
    return {
        "workloads.accesses": counts["workloads.accesses"],
        "workloads.generate_s": own.get("workloads.generate", 0.0),
        "memory.simulate_s": memory_s,
        "memory.accesses_per_s": rate(counts["workloads.accesses"], memory_s),
        "memory.sharing_events": counts["memory.sharing_events"],
        "trace.loads": counts["trace.cache_load"],
        "trace.cache_load_s": own.get("trace.cache_load", 0.0),
        "trace.cache_save_s": own.get("trace.cache_save", 0.0),
        "trace.chunks_read": counts["trace.chunks_read"],
        "trace.chunk_read_s": own.get("trace.chunk_read", 0.0),
        "core.keys_s": own.get("core.keys", 0.0),
        "core.key_streams": counts["core.keys"],
        "core.key_cache_hit_ratio": rate(keys_hits, keys_hits + keys_misses),
        "core.trace_passes": counters.get("plan.trace_passes", 0),
        "core.plan_self_s": own.get("core.plan", 0.0),
        "core.windowed_self_s": own.get("core.windowed", 0.0),
        "core.kernel_s": own.get("core.kernel", 0.0),
        "core.kernel_calls": kernel_calls,
        "core.kernel_native_ratio": rate(counts["core.kernel_native_calls"], kernel_calls),
        "core.score_s": own.get("core.score", 0.0),
        "core.scheme_events_per_s": rate(scheme_events, batch_seconds),
        "engine.batch_s": own.get("engine.batch", 0.0) + own.get("engine.evaluate", 0.0),
        "forwarding.predict_s": own.get("forwarding.predict", 0.0),
        "forwarding.replay_s": own.get("forwarding.replay", 0.0),
        "forwarding.events": counters.get("forwarding.events", 0),
        "forwarding.events_per_s": rate(
            counters.get("forwarding.events", 0), own.get("forwarding.replay", 0.0)
        ),
        "forwarding.predict_per_distinct": rate(predictions, len(recorder.predicted)),
        "harness.result_cache_s": own.get("harness.result_cache", 0.0),
        "harness.journal_s": own.get("harness.journal", 0.0),
        "harness.journal_records": counts["harness.journal"],
        "harness.other_s": wall_s - sum(recorder.layer_self().values()),
        "harness.traced_wall_s": wall_s,
    }


def rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0
