"""Chunked prediction streams: one scheme's predictions, window by window.

Every evaluation reads a trace as a sequence of
:class:`~repro.trace.source.TraceChunk` windows
(:func:`~repro.trace.source.trace_chunks`): a streamed ``.rtrace`` in its
own chunks, a resident trace as exactly one zero-copy chunk.
:func:`predict_stream` feeds those windows to one resumable kernel-backend
stream (:func:`repro.core.kernel_backends.kernel_stream`) -- the compiled
native loop's flat arrays or the pure-Python oracle's table -- which
carries every piece of predictor state between windows.  A
multi-gigabyte ``.rtrace`` therefore predicts at O(chunk + carried state)
memory, and every chunking of a trace yields **bit-identical**
predictions: the registry's conformance contract (native == python bit
for bit, at any chunking) is what keeps results identical under either
``REPRO_KERNEL`` setting.
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union

import numpy as np

from repro.core.kernel_backends import PythonKernelStream, kernel_stream
from repro.core.schemes import Scheme
from repro.core.vectorized import compute_keys
from repro.trace.events import SharingTrace
from repro.trace.source import TraceChunk, TraceSource, trace_chunks

#: the pure-Python backend's per-event stream, under the name the
#: benchmark's traced runs wrap (``perfbench/tracing.py``); evaluation
#: reaches it through :func:`repro.core.kernel_backends.kernel_stream`
_KernelSchemeState = PythonKernelStream


def predict_stream(
    scheme: Scheme,
    source: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
) -> Iterator[Tuple[TraceChunk, np.ndarray]]:
    """Yield ``(chunk, predictions)`` pairs for one scheme over a trace.

    Concatenating the prediction windows is bit-identical to any other
    chunking's; a resident trace yields one window.  This is what the
    traffic replayer consumes -- on a streamed source, predictions never
    exist at full trace length.
    """
    layout = source.layout
    stream = kernel_stream(scheme, source.num_nodes)
    for chunk in trace_chunks(source):
        predictions = stream.feed(chunk, compute_keys(scheme.index, chunk))
        if exclude_writer:
            predictions = predictions & ~layout.writer_bits(chunk.writer)
        yield chunk, predictions
