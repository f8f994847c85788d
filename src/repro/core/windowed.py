"""Chunked scheme evaluation: the bitmap-history pass over event windows.

Every evaluation reads a trace as a sequence of
:class:`~repro.trace.source.TraceChunk` windows
(:func:`~repro.trace.source.trace_chunks`): a streamed ``.rtrace`` in its
own chunks, a resident trace as exactly one zero-copy chunk.  This module
runs the bitmap-history math of :mod:`repro.core.vectorized` per chunk,
carrying exactly the state a bitmap-history predictor needs between
windows, so a multi-gigabyte ``.rtrace`` evaluates at O(chunk + carried
state) memory and every chunking of a trace yields **bit-identical**
results (asserted over the golden fixtures by
``tests/engine/test_stream_equivalence.py``).

Carried-history construction
----------------------------

For a chunk covering absolute events ``[s, e)`` (length ``L``) and a
pass window ``W`` (the batch-max history depth), local feedback and
prediction times are expressed as ``absolute - s + W``, which leaves the
band ``[0, W)`` free *below* every real event.  Into that band we inject
each key's carried history -- its up-to-``W`` most recent feedback
values from previous chunks, the *k*-th most recent at time ``W-1-k``.
Then one sort + ``searchsorted`` + gather over (carried + local) feedback
recovers each prediction's history window exactly, because

* slot *k* of the gather is the *(k+1)*-th most recent feedback, and the
  most recent ``min(W, true count)`` values are all present;
* ``available`` (carried, capped at ``W``, plus locally delivered) agrees
  with the true count on every comparison the reductions make
  (``> slot`` for ``slot < W``, ``== 0``, ``>= 2``): if the true count
  exceeds ``W``, both sides exceed every threshold; below ``W`` they are
  equal.  (Chunk-size invariance is property-tested in
  ``tests/core/test_plan.py``.)

After the pass, each key's new carried history is read off the sorted
feedback (the per-key tail of carried + locally delivered values), so
the state is self-renewing.  FORWARDED deliveries whose closing event
falls beyond the chunk wait in a pending queue keyed by absolute
delivery time; entries whose epoch never closes (``close == len``) are
simply never released.  On the source's final chunk there is no next
chunk to carry state into, so the renewal and the queueing are skipped --
a one-chunk resident trace costs one pass and nothing more.

Per-event families (PAs counters, confidence-gated functions) carry
their state in a kernel-backend stream
(:func:`repro.core.kernel_backends.kernel_stream`) -- the compiled native
loop's flat arrays or the pure-Python oracle's table -- fed chunk by
chunk; the registry's conformance contract (native == python bit for bit,
at any chunking) is what keeps results identical under either
``REPRO_KERNEL`` setting.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.core.kernel_backends import PythonKernelStream, kernel_stream
from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import (
    _BITMAP_FUNCTIONS,
    _bitmap_window,
    _reduce_bitmap,
    compute_keys,
)
from repro.trace.events import SharingTrace
from repro.trace.source import TraceChunk, TraceSource, trace_chunks
from repro.util.bitmaps import BitmapLayout

#: the pure-Python backend's per-event stream, under the name the
#: benchmark's traced runs wrap (``perfbench/tracing.py``); evaluation
#: reaches it through :func:`repro.core.kernel_backends.kernel_stream`
_KernelSchemeState = PythonKernelStream


class _WindowView:
    """One chunk's gathered history, as :func:`_reduce_bitmap` reads it."""

    __slots__ = ("length", "layout", "available", "gathered")

    def __init__(self, length, layout, available, gathered):
        self.length = length
        self.layout = layout
        self.available = available
        self.gathered = gathered


class StreamedBitmapGroup:
    """Carried state for all bitmap schemes sharing one (index, mode).

    One feedback sort + gather per chunk at the group's maximum window
    serves every depth in the group (smaller windows reduce over a slot
    prefix).  State between chunks is ``(keys, counts, values)`` -- for
    each key with history, its up-to-``window`` most recent feedback
    bitmaps -- plus, for FORWARDED, the pending not-yet-closed deliveries.
    """

    def __init__(self, mode: UpdateMode, layout: BitmapLayout, window: int):
        self.mode = mode
        self.layout = layout
        self.window = window
        # carried per-key history: sorted unique keys, per-key feedback
        # counts saturated at `window`, and values[slot, key_pos] = the
        # (slot+1)-th most recent feedback bitmap for that key
        self._keys = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._values = layout.gather_zeros(window, 0)
        # FORWARDED deliveries waiting for their closing event (absolute
        # delivery times); epochs that never close (time == len) simply
        # stay queued
        self._pending_keys = np.zeros(0, dtype=np.int64)
        self._pending_times = np.zeros(0, dtype=np.int64)
        self._pending_values = layout.zeros(0)

    def _local_feedback(
        self, chunk: TraceChunk, keys: np.ndarray, final: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        """This chunk's feedback stream in local time (absolute - s + W)."""
        window = self.window
        end = chunk.end
        if self.mode is UpdateMode.DIRECT:
            selector = chunk.has_inval
            return (
                keys[selector],
                chunk.inval[selector],
                np.nonzero(selector)[0] + window,
                "right",
            )
        if self.mode is UpdateMode.ORDERED:
            return (
                keys,
                chunk.truth,
                np.arange(window, window + len(chunk), dtype=np.int64),
                "left",
            )
        if self.mode is not UpdateMode.FORWARDED:  # pragma: no cover
            raise AssertionError(f"unhandled update mode {self.mode}")
        # FORWARDED: epochs opened in this chunk that close within it
        # deliver locally; ones closing later queue as pending.  Queued
        # epochs from earlier chunks whose close falls in [start, end)
        # are released now.
        shift = window - chunk.start
        closes = chunk.close
        local = closes < end
        parts_keys = [keys[local]]
        parts_values = [chunk.truth[local]]
        parts_times = [closes[local] + shift]
        due = self._pending_times < end
        if due.any():
            parts_keys.append(self._pending_keys[due])
            parts_values.append(self._pending_values[due])
            parts_times.append(self._pending_times[due] + shift)
            keep = ~due
            self._pending_keys = self._pending_keys[keep]
            self._pending_times = self._pending_times[keep]
            self._pending_values = self._pending_values[keep]
        queued = ~local
        if not final and queued.any():
            self._pending_keys = np.concatenate(
                [self._pending_keys, keys[queued]]
            )
            self._pending_times = np.concatenate(
                [self._pending_times, closes[queued]]
            )
            self._pending_values = np.concatenate(
                [self._pending_values, chunk.truth[queued]]
            )
        if len(parts_keys) == 1:
            return parts_keys[0], parts_values[0], parts_times[0], "right"
        return (
            np.concatenate(parts_keys),
            np.concatenate(parts_values),
            np.concatenate(parts_times),
            "right",
        )

    def feed(
        self, chunk: TraceChunk, keys: np.ndarray, final: bool = False
    ) -> _WindowView:
        """One windowed pass: gather each event's history, renew the carry.

        ``final`` marks the source's last chunk: nothing is carried past it.
        """
        layout = self.layout
        window = self.window
        length = len(chunk)
        fb_keys, fb_values, fb_times, side = self._local_feedback(chunk, keys, final)

        # inject carried history below the chunk's time band: the k-th
        # most recent carried value for a key sits at time window-1-k,
        # strictly before every local time (>= window)
        inject_keys: List[np.ndarray] = [fb_keys]
        inject_values: List[np.ndarray] = [fb_values]
        inject_times: List[np.ndarray] = [fb_times]
        for slot in range(window):
            held = self._counts > slot
            if not held.any():
                break
            inject_keys.append(self._keys[held])
            inject_values.append(self._values[slot][held])
            inject_times.append(
                np.full(int(held.sum()), window - 1 - slot, dtype=np.int64)
            )
        if len(inject_keys) > 1:
            fb_keys = np.concatenate(inject_keys)
            fb_values = np.concatenate(inject_values)
            fb_times = np.concatenate(inject_times)

        # composite (key, time) order: times span [0, L + W), so L + W + 1
        # separates keys into disjoint composite ranges
        stride = np.int64(length + window + 1)
        fb_composite = fb_keys * stride + fb_times
        order = np.argsort(fb_composite, kind="stable")
        fb_composite = fb_composite[order]
        fb_values = fb_values[order].astype(layout.dtype, copy=False)

        use_composite = keys * stride + np.arange(window, window + length, dtype=np.int64)
        positions = np.searchsorted(fb_composite, use_composite, side=side)
        group_starts = np.searchsorted(fb_composite, keys * stride, side="left")

        available = positions - group_starts
        gathered = layout.gather_zeros(window, length)
        for slot in range(1, window + 1):
            indices = positions - slot
            in_window = indices >= group_starts
            gathered[slot - 1, in_window] = fb_values[indices[in_window]]

        if not final:
            self._renew(fb_keys[order], fb_values)
        return _WindowView(length, layout, available, gathered)

    def _renew(self, sorted_keys: np.ndarray, sorted_values: np.ndarray) -> None:
        """Carry each key's newest ``window`` values of the sorted stream."""
        window = self.window
        unique_keys, starts = np.unique(sorted_keys, return_index=True)
        ends = np.concatenate(
            [starts[1:], np.asarray([len(sorted_keys)], dtype=starts.dtype)]
        ) if len(starts) else starts
        new_values = self.layout.gather_zeros(window, len(unique_keys))
        for slot in range(window):
            tail = ends - 1 - slot
            held = tail >= starts
            if not held.any():
                break
            new_values[slot, held] = sorted_values[tail[held]]
        self._keys = unique_keys
        self._counts = np.minimum(ends - starts, window)
        self._values = new_values


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
    num_nodes = source.num_nodes
    total = len(source)
    if scheme.function in _BITMAP_FUNCTIONS:
        window = _bitmap_window(scheme)
        group = StreamedBitmapGroup(scheme.update, layout, window)

        def predict(chunk, keys):
            view = group.feed(chunk, keys, final=chunk.end == total)
            return _reduce_bitmap(scheme.function, window, view, num_nodes)

    else:
        predict = kernel_stream(scheme, num_nodes).feed
    for chunk in trace_chunks(source):
        predictions = predict(chunk, compute_keys(scheme.index, chunk))
        if exclude_writer:
            predictions = predictions & ~layout.writer_bits(chunk.writer)
        yield chunk, predictions
