"""Fast trace evaluation: one-scheme entry points and shared key streams.

The design-space sweeps of paper Section 5.4 evaluate thousands of schemes
over every benchmark trace, so nothing may run an interpreter loop per
(scheme, event).  The evaluation itself is the planner's
(:func:`repro.core.plan.evaluate_plan`): one kernel-backend group stream
per (index group, update mode), which on the compiled ``native`` backend
runs and scores every member of the group in one C call per chunk, and
otherwise runs the pure-Python :class:`~repro.core.kernel.PredictorKernel`
oracle -- bit-identically, per the registry contract in
:mod:`repro.core.kernel_backends`.  Either way the update-timing state
machine is shared with the reference evaluator by construction.

This module keeps what the evaluation paths share:

* :func:`compute_keys` depends only on the :class:`IndexSpec`, so every
  scheme in an index group reads the same key stream;
* :func:`predict_scheme_fast` and :func:`evaluate_scheme_fast` are the
  one-scheme, one-trace entry points into the single evaluation path
  (:func:`repro.core.windowed.predict_stream` and
  :func:`repro.core.plan.evaluate_plan`); ``evaluate_scheme_fast`` is
  property-tested against the reference evaluator in
  ``tests/core/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.indexing import IndexSpec
from repro.core.schemes import Scheme
from repro.metrics.confusion import ConfusionCounts
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource


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
    # imported here: windowed builds on this module's key streams
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
    # imported here: the planner builds on this module's key streams
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
