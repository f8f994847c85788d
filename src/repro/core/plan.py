"""The sweep planner and the one scheme evaluator.

A design-space sweep evaluates hundreds of schemes that differ only along
one axis at a time, so most of the per-scheme work is redundant:

* every scheme with the same :class:`IndexSpec` (including its pc/addr
  truncation -- truncation is part of the spec) reads a byte-identical key
  stream, so :func:`repro.core.vectorized.compute_keys` needs to run once
  per *(trace chunk, index group)*, not once per scheme;
* every bitmap-family scheme sharing ``(IndexSpec, update mode)`` folds the
  same sorted feedback stream, so the sort + ``searchsorted`` + history
  gather (:class:`~repro.core.windowed.StreamedBitmapGroup`) runs once per
  chunk at the group's maximum window, and each scheme contributes only
  its cheap per-depth reduction.

:class:`SweepPlan` makes that sharing explicit and deterministic: it groups
a scheme list by ``IndexSpec`` (first-appearance order), sub-groups each
index group by prediction-function family (``bitmap`` / ``pas`` /
``sequential``), and records each scheme's original position so results --
and the per-scheme ``on_result`` checkpoint callbacks that sweep journaling
depends on -- are always reported against the caller's order.

:func:`evaluate_plan` is the only scheme evaluator: every engine, worker
and one-scheme entry point goes through it, for resident traces and
streamed sources alike.  Its loop runs index group -> trace -> chunk
(:func:`~repro.trace.source.trace_chunks`; a resident trace is one
zero-copy chunk), so one group's carried state is live at a time, a
streamed source is read once per index group, and ``on_result`` fires as
each group finishes the suite.

Grouping is pure scheduling: :func:`evaluate_plan` is bit-identical to
evaluating each scheme independently (frozen against the golden fixtures on
every backend), so planner changes can never move a published number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import kernel_stream
from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import (
    _BITMAP_FUNCTIONS,
    _bitmap_window,
    _merge_quad,
    _reduce_bitmap,
    _score,
    compute_keys,
)
from repro.core.windowed import StreamedBitmapGroup
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource, trace_chunks

#: family names, in deterministic batch order within an index group
FAMILY_BITMAP = "bitmap"
FAMILY_PAS = "pas"
FAMILY_SEQUENTIAL = "sequential"


def scheme_family(scheme: Scheme) -> str:
    """The shared-pass family a scheme's prediction function belongs to."""
    if scheme.function in _BITMAP_FUNCTIONS:
        return FAMILY_BITMAP
    if scheme.function == "pas":
        return FAMILY_PAS
    return FAMILY_SEQUENTIAL


@dataclass(frozen=True)
class PlanMember:
    """One scheme and its position in the caller's original batch order."""

    position: int
    scheme: Scheme


@dataclass(frozen=True)
class FamilyBatch:
    """Schemes of one family within one index group.

    A bitmap batch is scored with one shared
    :class:`~repro.core.windowed.StreamedBitmapGroup` pass per update mode
    present; pas/sequential batches still run one kernel stream per scheme
    but share the group's key stream.
    """

    family: str
    members: Tuple[PlanMember, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IndexGroup:
    """All schemes sharing one :class:`IndexSpec` (hence one key stream)."""

    spec: IndexSpec
    batches: Tuple[FamilyBatch, ...]

    def __len__(self) -> int:
        return sum(len(batch) for batch in self.batches)

    @property
    def members(self) -> List[PlanMember]:
        """Every member, in batch order."""
        return [member for batch in self.batches for member in batch.members]


class SweepPlan:
    """A deterministic shared-pass execution plan for a scheme batch.

    Construction is pure bookkeeping (no trace access); the same scheme
    list always yields the same plan.  Iterate ``plan.groups`` for the
    grouped view, or :meth:`order` / :meth:`batch_boundaries` for the flat
    plan-ordered permutation the parallel scheduler chunks over.
    """

    def __init__(self, schemes: Sequence[Scheme]) -> None:
        self.schemes: List[Scheme] = list(schemes)
        by_spec: Dict[IndexSpec, Dict[str, List[PlanMember]]] = {}
        for position, scheme in enumerate(self.schemes):
            families = by_spec.setdefault(scheme.index, {})
            families.setdefault(scheme_family(scheme), []).append(
                PlanMember(position, scheme)
            )
        self.groups: Tuple[IndexGroup, ...] = tuple(
            IndexGroup(
                spec=spec,
                batches=tuple(
                    FamilyBatch(family, tuple(members))
                    for family, members in families.items()
                ),
            )
            for spec, families in by_spec.items()
        )

    @property
    def num_schemes(self) -> int:
        return len(self.schemes)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def order(self) -> List[int]:
        """Original positions in plan order (a permutation of ``range(n)``)."""
        return [member.position for group in self.groups for member in group.members]

    def batch_boundaries(self) -> List[int]:
        """Cumulative batch end offsets in plan order; last == num_schemes.

        Chunks cut strictly inside these boundaries contain schemes of one
        ``(IndexSpec, family)``, so a worker evaluating the chunk shares its
        key stream and bitmap passes at full efficiency.

        Runs of *adjacent singleton batches* are merged into one segment: a
        one-scheme batch has no pass sharing to protect, so clamping chunks
        to its boundary (as the parallel scheduler does) would only shrink
        every chunk of a many-unique-index sweep to a single scheme.  A
        chunk spanning merged singletons evaluates each scheme standalone,
        exactly as the un-merged plan would have -- grouping remains pure
        scheduling, never semantics.
        """
        raw: List[int] = []
        total = 0
        for group in self.groups:
            for batch in group.batches:
                total += len(batch)
                raw.append(total)
        boundaries: List[int] = []
        previous = 0
        singleton_run_end: Optional[int] = None
        for boundary in raw:
            if boundary - previous == 1:
                singleton_run_end = boundary
            else:
                if singleton_run_end is not None:
                    boundaries.append(singleton_run_end)
                    singleton_run_end = None
                boundaries.append(boundary)
            previous = boundary
        if singleton_run_end is not None:
            boundaries.append(singleton_run_end)
        return boundaries

    def record_telemetry(self, telemetry) -> None:
        """Surface the plan's shape under ``plan.*`` (batch-level, once)."""
        telemetry.count("plan.batches")
        telemetry.count("plan.schemes", self.num_schemes)
        telemetry.count("plan.index_groups", self.num_groups)
        if self.groups:
            telemetry.gauge(
                "plan.group_size", max(len(group) for group in self.groups)
            )


def _evaluate_group(
    group: IndexGroup,
    trace: Union[SharingTrace, TraceSource],
    exclude_writer: bool,
) -> List[ConfusionCounts]:
    """Counts for every member of one index group over one trace.

    One read of the trace's chunks: keys once per chunk, one bitmap pass per
    update mode present (at that mode's largest window), one kernel-backend
    stream per per-event scheme.  ``plan.trace_passes`` counts those passes
    -- the saving relative to one pass per scheme is the planner's point.
    Counts are returned in ``group.members`` order.
    """
    members = [member.scheme for member in group.members]
    counts = [ConfusionCounts() for _ in members]
    total = len(trace)
    if total == 0:
        return counts
    layout = trace.layout
    num_nodes = trace.num_nodes
    by_mode: Dict[UpdateMode, List[int]] = {}
    kernels = []
    for offset, scheme in enumerate(members):
        if scheme.function in _BITMAP_FUNCTIONS:
            by_mode.setdefault(scheme.update, []).append(offset)
        else:
            kernels.append((offset, kernel_stream(scheme, num_nodes)))
    passes = [
        (
            StreamedBitmapGroup(
                mode, layout, max(_bitmap_window(members[offset]) for offset in offsets)
            ),
            offsets,
        )
        for mode, offsets in by_mode.items()
    ]
    get_telemetry().count("plan.trace_passes", len(passes) + len(kernels))

    for chunk in trace_chunks(trace):
        keys = compute_keys(group.spec, chunk)
        final = chunk.end == total
        writer_mask = (
            ~layout.writer_bits(chunk.writer) if exclude_writer and passes else None
        )
        for shared, offsets in passes:
            view = shared.feed(chunk, keys, final)
            for offset in offsets:
                scheme = members[offset]
                predictions = _reduce_bitmap(
                    scheme.function, _bitmap_window(scheme), view, num_nodes
                )
                if writer_mask is not None:
                    predictions = predictions & writer_mask
                _score(predictions, chunk, counts[offset])
        for offset, stream in kernels:
            _merge_quad(counts[offset], stream.evaluate(chunk, keys, exclude_writer))
    return counts


def evaluate_plan(
    plan: SweepPlan,
    traces: Sequence[Union[SharingTrace, TraceSource]],
    *,
    exclude_writer: bool = True,
    on_result: Optional[Callable[[int, List[ConfusionCounts]], None]] = None,
) -> List[List[ConfusionCounts]]:
    """Execute a plan: per-trace confusion counts for every scheme.

    ``traces`` may mix resident traces and streamed sources.  Returns the
    same shape, in the same caller order, as
    ``EvaluationEngine.evaluate_batch`` -- one list per scheme, one
    :class:`ConfusionCounts` per trace -- and fires ``on_result`` once per
    scheme as its index group finishes the suite (group-ordered, so
    possibly out of the caller's order; journaling already handles that).
    """
    results: List[Optional[List[ConfusionCounts]]] = [None] * plan.num_schemes
    for group in plan.groups:
        per_trace = [_evaluate_group(group, trace, exclude_writer) for trace in traces]
        for offset, member in enumerate(group.members):
            counts = [column[offset] for column in per_trace]
            results[member.position] = counts
            if on_result is not None:
                on_result(member.position, counts)
    assert all(entry is not None for entry in results)
    return results  # type: ignore[return-value]
