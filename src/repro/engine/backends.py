"""Serial engine backends: the reference interpreter and the numpy engine.

Both are thin adapters over the core evaluators; they exist so the rest of
the system can be written against :class:`~repro.engine.base.EvaluationEngine`
and swap execution strategies by name.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.evaluator import evaluate_scheme, predict_scheme
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import Scheme
from repro.core.vectorized import evaluate_scheme_fast
from repro.engine.base import EvaluationEngine, ResultCallback, TraceLike
from repro.forwarding.simulator import ForwardingConfig, replay_traffic
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import TrafficReport
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace


class ReferenceEngine(EvaluationEngine):
    """The sequential, obviously-correct evaluator.

    Orders of magnitude slower than the vectorized backend; useful as the
    semantic oracle in parity tests and for debugging new schemes.
    """

    name = "reference"

    def _kernel_backend_name(self) -> str:
        # The reference evaluator is the pure-Python oracle by definition:
        # it never routes through the kernel-backend registry, whatever
        # REPRO_KERNEL says, so parity tests against it always compare a
        # fast path to the normative loop.
        return "python"

    def _evaluate_one(
        self, scheme: Scheme, trace: SharingTrace, exclude_writer: bool
    ) -> ConfusionCounts:
        return evaluate_scheme(scheme, trace, exclude_writer=exclude_writer)

    def _simulate_one(
        self, scheme: Scheme, trace: SharingTrace, config: ForwardingConfig
    ) -> TrafficReport:
        # The reference engine's traffic reports are derived from its own
        # prediction path, so the differential tests cross-check the two
        # predictor implementations end to end, not just their scoring.
        return replay_traffic(
            trace,
            predict_scheme(scheme, trace),
            scheme=scheme.full_name,
            topology=config.topology,
            model=config.model,
        )


class VectorizedEngine(EvaluationEngine):
    """The fast numpy evaluator -- the default single-process backend.

    Batches run through the sweep planner (:mod:`repro.core.plan`): schemes
    are grouped by index spec, so key streams are computed once per group
    and each (group, update mode) runs as one kernel pass rather than one
    per scheme.  Planning is pure scheduling -- results are bit-identical to
    per-scheme evaluation and ``on_result`` still fires once per scheme.

    This is the streaming backend: the planner reads a
    :class:`~repro.trace.source.TraceSource` chunk by chunk (never
    materialized) and a resident trace as one chunk, with bit-identical
    results either way.
    """

    name = "vectorized"
    supports_streams = True

    def _evaluate_one(
        self, scheme: Scheme, trace: TraceLike, exclude_writer: bool
    ) -> ConfusionCounts:
        return evaluate_scheme_fast(scheme, trace, exclude_writer=exclude_writer)

    def _evaluate_batch(
        self,
        schemes: Sequence[Scheme],
        traces: Sequence[TraceLike],
        *,
        exclude_writer: bool,
        on_result: Optional[ResultCallback],
    ) -> List[List[ConfusionCounts]]:
        plan = SweepPlan(schemes)
        telemetry = get_telemetry()
        if telemetry.enabled:
            plan.record_telemetry(telemetry)
        return evaluate_plan(
            plan, traces, exclude_writer=exclude_writer, on_result=on_result
        )
