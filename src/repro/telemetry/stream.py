"""Streaming telemetry: a sink that reports every update as it lands.

The service layer streams per-job progress to remote clients while the job
is still running.  The engine and planner already record everything worth
streaming (``plan.*`` batch progress, ``engine.parallel.*`` chunk
completions, ``engine.remote.*`` worker losses, ``journal.*``
checkpoints) --
:class:`StreamingTelemetry` turns those records into push events instead of
inventing a parallel progress protocol.

Every mutation -- a direct ``count``/``timer_add``/``gauge`` or one arriving
via ``merge`` (how parallel-worker snapshots land in the parent) -- invokes
the ``emit`` callback with ``(kind, name, value)`` where ``value`` is the
*post-update* total.  The callback must be cheap and must not raise;
callers that fan events out to slow consumers (sockets) should enqueue and
return.  Snapshots, merging, and serialization behave exactly like the base
class, so a ``StreamingTelemetry`` can sit anywhere a ``Telemetry`` does.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.core import Telemetry

#: event callback signature: ``emit(kind, name, value)`` with kind one of
#: ``"counter"`` / ``"timer"`` / ``"gauge"`` and value the new total
EmitCallback = Callable[[str, str, float], None]


class StreamingTelemetry(Telemetry):
    """A :class:`Telemetry` that pushes each update to a callback."""

    __slots__ = ("emit",)

    def __init__(self, emit: EmitCallback):
        super().__init__()
        self.emit = emit

    def count(self, name: str, amount: int = 1) -> None:
        super().count(name, amount)
        self.emit("counter", name, self.counters[name])

    def timer_add(self, name: str, seconds: float, calls: int = 1) -> None:
        super().timer_add(name, seconds, calls)
        self.emit("timer", name, self.timers[name][0])

    def gauge(self, name: str, value: float) -> None:
        super().gauge(name, value)
        self.emit("gauge", name, self.gauges[name])

    def merge(self, other: Telemetry) -> Telemetry:
        # Route through the recording methods (the base class mutates the
        # maps directly) so merged worker snapshots stream like local writes.
        for name, amount in other.counters.items():
            self.count(name, amount)
        for name, (seconds, calls) in other.timers.items():
            self.timer_add(name, seconds, calls)
        for name, value in other.gauges.items():
            self.gauge(name, value)
        return self
