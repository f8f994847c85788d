"""The sweep planner and the one scheme evaluator.

A design-space sweep evaluates hundreds of schemes that differ only along
one axis at a time, so most of the per-scheme work is redundant: every
scheme with the same :class:`IndexSpec` (including its pc/addr truncation
-- truncation is part of the spec) reads a byte-identical key stream.
:func:`repro.core.vectorized.compute_keys` therefore runs once per
*(trace chunk, index group)*, and the kernel backend evaluates each
(index group, update mode) with one group stream
(:func:`~repro.core.kernel_backends.kernel_group_stream`): on the native
backend, one C call per chunk runs every member -- bitmap-history, PAs
and confidence-gated alike -- on state shared across the group, and
scores it in the same loop.

:class:`SweepPlan` makes that sharing explicit and deterministic: it groups
a scheme list by ``IndexSpec`` (first-appearance order) and records each
scheme's original position so results -- and the per-scheme
``on_result`` checkpoint callbacks that sweep journaling depends on --
are always reported against the caller's order.

:func:`evaluate_plan` is the only scheme evaluator: every engine, worker
and one-scheme entry point goes through it, for resident traces and
streamed sources alike.  Its loop runs index group -> trace -> chunk
(:func:`~repro.trace.source.trace_chunks`; a resident trace is one
zero-copy chunk), so one group's carried state is live at a time, a
streamed source is read once per index group, and ``on_result`` fires as
each group finishes the suite.

Within one call, no member runs twice on the same key partition of a
trace.  Each (index group, trace) key stream is numbered by first
appearance (the resolved kernel backend's ``first_appearance_ids``: one
compiled hash pass on the native kernel, numpy on the pure-Python one;
the sorted ``np.unique`` ranking of the former ``_DenseIds`` is gone).
The numbering is the canonical form of the partition the keys induce,
and every predictor entry starts from the same state, so a member's quad
depends on its keys only through that partition: pc and addr widths past
a trace's range, or ``dir`` beside an address that fixes the home, repeat
a partition another group already ran.  A memo private to the call
(:class:`_PartitionMemo`) keyed by (trace position, partition, function,
depth, update mode) answers those members, counted under
``plan.partition_hits``; only the missing ones run, in one group stream
per update mode fed the same ids, and forwarded update numbers each
trace's blocks once per call.  The memo applies to a trace that arrives as
one chunk (every resident trace); a multi-chunk source runs every member,
its streams numbering keys across chunks themselves.

Grouping and the memo are pure scheduling: :func:`evaluate_plan` is
bit-identical to evaluating each scheme independently (frozen against the
golden fixtures on every backend), so planner changes can never move a
published number.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.indexing import IndexSpec
from repro.core.kernel_backends import kernel_group_stream, resolve_kernel_backend
from repro.core.schemes import Scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import compute_keys
from repro.metrics.confusion import ConfusionCounts
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import TraceSource, trace_chunks

Quad = Tuple[int, int, int, int]

#: a member's (function, depth, update mode)
MemberKey = Tuple[str, int, UpdateMode]


@dataclass(frozen=True)
class PlanMember:
    """One scheme and its position in the caller's original batch order."""

    position: int
    scheme: Scheme


@dataclass(frozen=True)
class IndexGroup:
    """All schemes sharing one :class:`IndexSpec` (hence one key stream),
    in caller order."""

    spec: IndexSpec
    members: Tuple[PlanMember, ...]

    def __len__(self) -> int:
        return len(self.members)


class SweepPlan:
    """A deterministic shared-pass execution plan for a scheme batch.

    Construction is pure bookkeeping (no trace access); the same scheme
    list always yields the same plan.  Iterate ``plan.groups`` for the
    grouped view, or :meth:`order` / :meth:`batch_boundaries` for the flat
    plan-ordered permutation the parallel scheduler chunks over.
    """

    def __init__(self, schemes: Sequence[Scheme]) -> None:
        self.schemes: List[Scheme] = list(schemes)
        by_spec: Dict[IndexSpec, List[PlanMember]] = {}
        for position, scheme in enumerate(self.schemes):
            by_spec.setdefault(scheme.index, []).append(PlanMember(position, scheme))
        self.groups: Tuple[IndexGroup, ...] = tuple(
            IndexGroup(spec, tuple(members)) for spec, members in by_spec.items()
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
        """Cumulative index-group end offsets in plan order; last == num_schemes.

        Chunks cut strictly inside these boundaries contain schemes of one
        ``IndexSpec``, so a worker evaluating the chunk shares its key
        stream and group pass at full efficiency.

        Runs of *adjacent one-scheme groups* are merged into one segment: a
        one-scheme group has no pass sharing to protect, so clamping chunks
        to its boundary (as the parallel scheduler does) would only shrink
        every chunk of a many-unique-index sweep to a single scheme.  A
        chunk spanning merged groups evaluates each scheme standalone,
        exactly as the un-merged plan would have -- grouping remains pure
        scheduling, never semantics.
        """
        boundaries: List[int] = []
        total = 0
        previous = 0
        for group in self.groups:
            if previous == 1 and len(group) == 1:
                boundaries.pop()  # extend the run of one-scheme groups
            total += len(group)
            boundaries.append(total)
            previous = len(group)
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


def _merge_quad(counts: ConfusionCounts, quad: Quad) -> None:
    """Fold a ``(tp, fp, fn, tn)`` quad into a counts accumulator."""
    counts.true_positive += quad[0]
    counts.false_positive += quad[1]
    counts.false_negative += quad[2]
    counts.true_negative += quad[3]


def _member_key(scheme: Scheme) -> MemberKey:
    """What a member's quad depends on besides its trace and its key
    partition."""
    return (scheme.function, scheme.depth, scheme.update)


def _partition_digest(ids: np.ndarray) -> bytes:
    """A 128-bit digest of a numbered key stream; equal digests only name
    a candidate repeat, which the memo then confirms exactly."""
    return hashlib.sha256(ids).digest()[:16]


@dataclass
class _Partition:
    """One distinct key partition of one trace: the index spec it was first
    met under, and every member quad computed on it so far."""

    spec: IndexSpec
    quads: Dict[MemberKey, Quad] = field(default_factory=dict)


class _PartitionMemo:
    """The member quads one :func:`evaluate_plan` call has computed, by
    (trace position, key partition, function, depth, update mode).

    Every predictor entry starts from the same state, so a member's quad
    depends on its keys only through the partition they induce, whose
    canonical form is the first-appearance numbering of the keys.  A
    repeat is found by the numbering's digest and confirmed by numbering
    the first spec's keys on the same chunk again and comparing the
    arrays, so no numbering outlives its group and a digest collision can
    never answer a member wrongly.
    """

    def __init__(self, exclude_writer: bool) -> None:
        self.exclude_writer = exclude_writer
        self._number = resolve_kernel_backend().first_appearance_ids
        self._partitions: Dict[Tuple[int, bytes], List[_Partition]] = {}
        #: per trace position: its blocks numbered once, for forwarded update
        self._blocks: Dict[int, np.ndarray] = {}

    def _partition(self, position: int, spec: IndexSpec, chunk, ids) -> _Partition:
        candidates = self._partitions.setdefault((position, _partition_digest(ids)), [])
        for partition in candidates:
            seen = self._number(compute_keys(partition.spec, chunk))
            if np.array_equal(seen, ids):
                return partition
        partition = _Partition(spec)
        candidates.append(partition)
        return partition

    def _block_ids(self, position: int, chunk) -> np.ndarray:
        if position not in self._blocks:
            self._blocks[position] = self._number(chunk.block)
        return self._blocks[position]

    def quads(
        self, position: int, spec: IndexSpec, chunk, members: Sequence[Scheme]
    ) -> List[Quad]:
        """Every member's quad over a trace that is the one ``chunk``.

        Members the memo lacks run in one group stream per update mode, fed
        the same ids; the rest count under ``plan.partition_hits``.
        """
        ids = self._number(compute_keys(spec, chunk))
        known = self._partition(position, spec, chunk, ids).quads
        missing: Dict[UpdateMode, Dict[MemberKey, Scheme]] = {}
        for scheme in members:
            key = _member_key(scheme)
            if key not in known:
                missing.setdefault(scheme.update, {}).setdefault(key, scheme)
        telemetry = get_telemetry()
        telemetry.count("plan.trace_passes", len(missing))
        telemetry.count(
            "plan.partition_hits",
            len(members) - sum(len(by_key) for by_key in missing.values()),
        )
        for mode, by_key in missing.items():
            stream = kernel_group_stream(list(by_key.values()), chunk.num_nodes)
            blocks = (
                self._block_ids(position, chunk)
                if mode is UpdateMode.FORWARDED
                else None
            )
            quads = stream.evaluate_ids(chunk, ids, blocks, self.exclude_writer)
            known.update(zip(by_key, quads))
        return [known[_member_key(scheme)] for scheme in members]


def _evaluate_group(
    group: IndexGroup,
    position: int,
    trace: Union[SharingTrace, TraceSource],
    memo: _PartitionMemo,
) -> List[ConfusionCounts]:
    """Counts for every member of one index group over one trace.

    A trace that arrives as one chunk goes through the memo.  Any other is
    read once: keys once per chunk, one group stream per update mode
    present, each running every member of that mode and numbering the keys
    itself.  ``plan.trace_passes`` counts the group streams run -- the
    saving relative to one pass per scheme is the planner's point.
    Counts are returned in ``group.members`` order.
    """
    members = [member.scheme for member in group.members]
    counts = [ConfusionCounts() for _ in members]
    if len(trace) == 0:
        return counts
    chunks = iter(trace_chunks(trace))
    first = next(chunks)
    if len(first) == len(trace):
        for total, quad in zip(counts, memo.quads(position, group.spec, first, members)):
            _merge_quad(total, quad)
        return counts
    by_mode: Dict[UpdateMode, List[int]] = {}
    for offset, scheme in enumerate(members):
        by_mode.setdefault(scheme.update, []).append(offset)
    streams = [
        (kernel_group_stream([members[offset] for offset in offsets], trace.num_nodes),
         offsets)
        for offsets in by_mode.values()
    ]
    get_telemetry().count("plan.trace_passes", len(streams))
    for chunk in itertools.chain([first], chunks):
        keys = compute_keys(group.spec, chunk)
        for stream, offsets in streams:
            quads = stream.evaluate(chunk, keys, memo.exclude_writer)
            for offset, quad in zip(offsets, quads):
                _merge_quad(counts[offset], quad)
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
    memo = _PartitionMemo(exclude_writer)
    for group in plan.groups:
        per_trace = [
            _evaluate_group(group, position, trace, memo)
            for position, trace in enumerate(traces)
        ]
        for offset, member in enumerate(group.members):
            counts = [column[offset] for column in per_trace]
            results[member.position] = counts
            if on_result is not None:
                on_result(member.position, counts)
    assert all(entry is not None for entry in results)
    return results  # type: ignore[return-value]
