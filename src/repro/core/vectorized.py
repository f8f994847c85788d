"""Fast trace evaluation: numpy passes instead of a per-event interpreter.

The design-space sweeps of paper Section 5.4 evaluate thousands of schemes
over every benchmark trace, so the per-scheme cost must be a handful of
vectorized passes.  The key observation is that for bitmap-history functions
(last/union/intersection/overlap-last) the history an entry holds at event
*i* is simply the last ``depth`` feedback values delivered to ``key[i]``
before the prediction -- and every update mode reduces to a different
*(delivery time, feedback value)* labelling of the same event stream:

==========  =======================  ==================  ==================
mode        feedback source          value               delivery time
==========  =======================  ==================  ==================
DIRECT      events with ``has_inval``  ``inval[j]``        ``j`` (inclusive)
FORWARDED   events with ``close<E``    ``truth[j]``        ``close[j]`` (inclusive)
ORDERED     all events                 ``truth[j]``        ``j`` (exclusive)
==========  =======================  ==================  ==================

"Inclusive" means a feedback delivered *at* event *i* is visible to event
*i*'s own prediction (direct update happens at the consulting event;
forwarded feedback is processed by the directory before the closing event
predicts); "exclusive" means it becomes visible only to later predictions.
Delivery times are unique within a mode (an event closes at most one epoch),
so one ``searchsorted`` over a composite ``(key, time)`` ordering recovers
each prediction's history window exactly.

The pass that turns this labelling into predictions -- the feedback sort,
``searchsorted`` and history gather -- is
:class:`repro.core.windowed.StreamedBitmapGroup`, which runs it chunk by
chunk with each key's recent history carried between chunks; a resident
trace is simply one chunk.  This module keeps the pieces of math around it
that every evaluation shares:

* :func:`compute_keys` depends only on the :class:`IndexSpec`, so every
  scheme in an index group reads the same key stream;
* :func:`_reduce_bitmap` folds one prediction function over a gathered
  history window; one gather at a batch's maximum window serves every
  depth and function in the batch;
* :func:`_score` is the scorer every bitmap prediction column goes
  through.

PAs entries carry counter state that depends on the full feedback sequence,
not a window, so they (and arbitrary
:class:`~repro.core.functions.PredictionFunction` objects -- the
confidence-gated extensions) run the per-event loop through the kernel
backend registry (:mod:`repro.core.kernel_backends`): the compiled
``native`` backend when one is available, else the pure-Python
:class:`~repro.core.kernel.PredictorKernel` -- bit-identically, per the
registry contract.  Either way the update-timing state machine is shared
with the reference evaluator by construction.

:func:`predict_scheme_fast` and :func:`evaluate_scheme_fast` are the
one-scheme, one-trace entry points into the single evaluation path
(:func:`repro.core.windowed.predict_stream` and
:func:`repro.core.plan.evaluate_plan`); ``evaluate_scheme_fast`` is
property-tested against the reference evaluator in
``tests/core/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import score_predictions
from repro.core.schemes import Scheme
from repro.metrics.confusion import ConfusionCounts
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource

_BITMAP_FUNCTIONS = ("last", "union", "inter", "overlap")


def predict_scheme_fast(
    scheme: Scheme,
    trace: SharingTrace,
    exclude_writer: bool = True,
) -> np.ndarray:
    """The per-event prediction bitmaps ``scheme`` emits over ``trace``.

    One forwarding bitmap per event, in the trace's
    :class:`~repro.util.bitmaps.BitmapLayout` representation (``uint32``
    for paper-sized machines) -- the fast-path counterpart of
    :func:`repro.core.evaluator.predict_scheme`, and the array
    :func:`repro.forwarding.replay_traffic` consumes.  The resident trace
    is the one chunk of :func:`repro.core.windowed.predict_stream`.
    """
    # imported here: windowed builds on this module's math
    from repro.core.windowed import predict_stream

    if len(trace) == 0:
        return trace.layout.zeros(0)
    [(_, predictions)] = predict_stream(scheme, trace, exclude_writer)
    return predictions


def evaluate_scheme_fast(
    scheme: Scheme,
    trace: Union[SharingTrace, TraceSource],
    exclude_writer: bool = True,
    counts: Optional[ConfusionCounts] = None,
) -> ConfusionCounts:
    """Drop-in fast replacement for :func:`repro.core.evaluator.evaluate_scheme`.

    A one-scheme :func:`repro.core.plan.evaluate_plan`, so ``trace`` may
    also be a streamed source; the counts are merged into ``counts`` when
    one is given.
    """
    # imported here: the planner builds on this module's math
    from repro.core.plan import SweepPlan, evaluate_plan

    [[result]] = evaluate_plan(
        SweepPlan([scheme]), [trace], exclude_writer=exclude_writer
    )
    if counts is None:
        return result
    counts.merge(result)
    return counts


# ----------------------------------------------------------------------
# Key streams (shared per IndexSpec)
# ----------------------------------------------------------------------


def compute_keys(spec: IndexSpec, trace: SharingTrace) -> np.ndarray:
    """Vectorized mirror of :meth:`IndexSpec.key` over the whole trace.

    Takes the :class:`IndexSpec` rather than a scheme: the key stream is a
    property of the index group, which is exactly what lets the sweep
    planner compute it once and share it across every scheme in the group.
    """
    num_nodes = trace.num_nodes
    node_bits = spec.node_bits(num_nodes)
    node_mask = (1 << node_bits) - 1
    keys = np.zeros(len(trace), dtype=np.int64)
    if spec.use_pid:
        keys = (keys << node_bits) | (trace.writer & node_mask)
    if spec.pc_bits:
        keys = (keys << spec.pc_bits) | (trace.pc & ((1 << spec.pc_bits) - 1))
    if spec.use_dir:
        keys = (keys << node_bits) | (trace.home & node_mask)
    if spec.addr_bits:
        keys = (keys << spec.addr_bits) | (trace.block & ((1 << spec.addr_bits) - 1))
    return keys


# ----------------------------------------------------------------------
# Bitmap-history schemes
# ----------------------------------------------------------------------


def _bitmap_window(scheme: Scheme) -> int:
    """History slots a bitmap scheme actually reads.

    Overlap-last keeps two bitmaps regardless of nominal depth.
    """
    return 2 if scheme.function == "overlap" else scheme.depth


def _reduce_bitmap(function: str, window: int, shared, num_nodes: int) -> np.ndarray:
    """Fold one scheme's prediction function over a shared bitmap pass.

    ``shared`` is a :class:`repro.core.windowed.StreamedBitmapGroup` pass
    over one chunk: slot *s* of ``shared.gathered`` is each event's
    *(s+1)*-th most recent feedback (zero outside the window) and
    ``shared.available`` the feedback count its entry has seen.
    ``window`` is the scheme's own slot count and may be smaller than the
    pass's gather width (the planner gathers once at the batch maximum).
    """
    length = shared.length
    layout = shared.layout
    available = shared.available
    gathered = shared.gathered
    if function in ("union", "last"):
        predictions = layout.zeros(length)
        for slot in range(window):
            predictions |= gathered[slot]
    elif function == "inter":
        predictions = layout.full(length)
        for slot in range(window):
            active = available > slot
            predictions[active] &= gathered[slot, active]
        predictions[available == 0] = 0
    else:  # overlap-last
        newest = gathered[0]
        previous = gathered[1]
        overlaps = layout.any_set(newest & previous)
        predictions = layout.select(
            available >= 2,
            layout.select(overlaps, newest, layout.zeros(length)),
            newest,  # 0 or 1 bitmaps stored: predict what is there (0 if none)
        )
    return predictions


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


def _merge_quad(counts: ConfusionCounts, quad: Tuple[int, int, int, int]) -> None:
    """Fold a ``(tp, fp, fn, tn)`` quad into a counts accumulator."""
    counts.true_positive += quad[0]
    counts.false_positive += quad[1]
    counts.false_negative += quad[2]
    counts.true_negative += quad[3]


def _score(predictions: np.ndarray, trace: SharingTrace, counts: ConfusionCounts) -> None:
    """Score an already-masked prediction column (delegates to the one
    normative scorer in :mod:`repro.core.kernel_backends`)."""
    _merge_quad(counts, score_predictions(predictions, trace, exclude_writer=False))
