"""Sharing traces: the interface between substrate and predictors.

A sharing trace is the sequence of *prediction events* a run produces: one
event per store that performed a coherence action (write miss or upgrade),
annotated with everything predictors may index on (pid, pc, dir, addr) and
with the ground truth the evaluators need (the epoch's eventual reader set,
the reader set invalidated at the event, and the index of the event that
closes the epoch).

Traces come in two working forms: resident :class:`SharingTrace` arrays,
and streaming :class:`~repro.trace.source.TraceSource` chunk iterators
(the ``.rtrace`` interchange file on disk, via
:class:`~repro.trace.interchange.FileTraceSource`).  Both flow through
the same engines; ``repro-trace import`` converts foreign trace formats.
"""

from repro.trace.events import SharingEvent, SharingTrace
from repro.trace.io import TraceFormatError, load_trace, save_trace
from repro.trace.source import (
    ResidentTraceSource,
    TraceChunk,
    TraceSource,
    as_source,
    stream_fingerprint,
)
from repro.trace.shm import (
    attach_trace,
    publish_traces,
    shm_available,
    shm_enabled,
)
from repro.trace.stats import TraceStats, compute_trace_stats

#: interchange exports resolved lazily (PEP 562) so ``python -m
#: repro.trace.interchange`` never double-imports the module via the package
_INTERCHANGE_EXPORTS = (
    "FileTraceSource",
    "TraceReader",
    "TraceWriter",
    "write_source",
)


def __getattr__(name: str):
    if name in _INTERCHANGE_EXPORTS:
        from repro.trace import interchange

        return getattr(interchange, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SharingEvent",
    "SharingTrace",
    "FileTraceSource",
    "ResidentTraceSource",
    "TraceChunk",
    "TraceFormatError",
    "TraceReader",
    "TraceSource",
    "TraceWriter",
    "as_source",
    "stream_fingerprint",
    "write_source",
    "load_trace",
    "save_trace",
    "TraceStats",
    "compute_trace_stats",
    "attach_trace",
    "publish_traces",
    "shm_available",
    "shm_enabled",
]
