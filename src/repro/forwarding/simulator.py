"""The end-to-end forwarding-traffic simulator.

:func:`replay_traffic` replays one sharing trace at epoch granularity for
two protocols -- the baseline invalidate/request run and the
prediction-driven forwarding run -- and tallies every coherence message
into a :class:`~repro.metrics.traffic.TrafficReport`.  The per-event
message model (all legs skipped when source == destination, i.e. the
transaction is node-local):

* **write transaction** (both runs): request ``writer -> home`` plus a
  data grant ``home -> writer``.
* **epoch close** (both runs, identical by construction): invalidation
  ``home -> copy`` and ack ``copy -> home`` for every legitimate copy of
  the previous epoch; staged-but-unread forwards expire silently.
* **demand read** by reader *r* (every true reader in the baseline; only
  uncovered readers in the forwarding run): request ``r -> home``, an
  intervention ``home -> owner`` *only when the home is not the owner*
  (charging it when the writer is already the block's home double-counts
  the directory-to-owner hop), and a data response ``owner -> r``.
* **forward** (forwarding run only): one pushed data message
  ``writer -> p`` per predicted reader *p*; tallied as ``forwards`` when
  *p* really reads this epoch (a true positive) and ``useless_forwards``
  otherwise -- so the useless-forward count *is* the evaluator's FP count.

Latency: each message costs its payload (:meth:`TrafficModel.payload_cost`)
plus ``hop_cost`` times the topology distance between its endpoints.  A
consumed forward hides the reader's whole demand-read latency, credited to
``latency_hidden`` (per node and in aggregate).

The two runs share one directory view: an epoch's legitimate copies are
its writer and its true readers in either run (a staged forward that
nobody reads expires without traffic), so the copies an event invalidates
are the same in both.  The replay is numpy passes over a whole chunk of
events.  A stable sort on block finds each event's previous epoch within
the chunk, and a per-block carry of the last epoch's ``(owner, holders)``
links chunks.  Every message total is counted per node position (loops
run over nodes and bitmap words, never over events or set bits).  The
ledger is kept as integers: messages per class, and per run the hops its
messages cross (per node, too, for the reads that consumed forwards hid).
:meth:`TrafficReplayState.finish` prices each latency once, as
``request_messages * request_cost + data_messages * data_cost + hops *
hop_cost``.  A trace fed in any number of chunks therefore gives exactly
the report of one whole feed, under any cost model; with integer-valued
costs (the default model) every latency is exact.

Everything is derived from the same prediction arrays the evaluation
engines score, so the report's confusion quad is bit-identical to the
golden-fixture counts (``tests/golden/test_traffic_differential.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.forwarding.topology import Topology, make_topology
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import (
    DATA_CLASSES,
    MESSAGE_CLASSES,
    TrafficModel,
    TrafficReport,
)
from repro.telemetry import get_telemetry
from repro.trace.events import SharingTrace
from repro.util.bitmaps import bitmap_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schemes import Scheme
    from repro.machine import MachineSpec
    from repro.trace.source import TraceSource


@dataclass(frozen=True)
class ForwardingConfig:
    """The simulator's knobs: network shape and message cost model."""

    topology: str = "mesh"
    model: TrafficModel = field(default_factory=TrafficModel)

    @classmethod
    def for_machine(
        cls, machine: "MachineSpec", model: TrafficModel = None
    ) -> "ForwardingConfig":
        """The simulator configuration for one scenario cell's machine."""
        return cls(
            topology=machine.topology,
            model=model if model is not None else TrafficModel(),
        )


#: the default 16-node configuration (a 4x4 mesh, paper machine size)
DEFAULT_FORWARDING_CONFIG = ForwardingConfig()


def demand_read_cost(
    reader: int,
    writer: int,
    home: int,
    topology: Topology,
    model: TrafficModel,
) -> "tuple[int, float]":
    """Messages and latency of one demand read in the three-leg protocol.

    The intervention leg exists only when the home is not the owner; a
    local leg (source == destination) is free.  Returns ``(messages,
    latency)``.
    """
    messages = 1
    latency = model.data_cost + model.hop_cost * topology.hops(writer, reader)
    if reader != home:
        messages += 1
        latency += model.request_cost + model.hop_cost * topology.hops(reader, home)
    if home != writer:
        messages += 1
        latency += model.request_cost + model.hop_cost * topology.hops(home, writer)
    return messages, latency


_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _word_rows(column, n_words: int) -> np.ndarray:
    """A bitmap column as word-major ``(n_words, events)`` ``uint64`` rows.

    ``column`` is 1-D (one bitmap per event, up to 64 nodes) or a packed
    ``(events, n_words)`` array; a 1-D column fills the first word.
    """
    column = np.asarray(column)
    if column.ndim == 2:
        return np.ascontiguousarray(column.T, dtype=np.uint64)
    rows = np.zeros((n_words, len(column)), dtype=np.uint64)
    rows[0] = column.astype(np.uint64)
    return rows


def _prediction_rows(predictions, n_words: int) -> np.ndarray:
    """Raw forwarding bitmaps (an array, or a sequence of ints) as word rows."""
    values = predictions
    if not isinstance(values, np.ndarray):
        try:
            values = np.asarray(values, dtype=np.uint64)
        except OverflowError:  # ints wider than 64 bits (packed machines)
            values = np.asarray(values, dtype=object)
    if values.dtype == object:
        # split the Python ints one word at a time
        return np.array(
            [(values >> (_WORD_BITS * word)) & _WORD_MASK for word in range(n_words)],
            dtype=np.uint64,
        )
    return _word_rows(values, n_words)


def _row_int(row: np.ndarray) -> int:
    """One event's word row as a Python int."""
    return sum(int(word) << (_WORD_BITS * index) for index, word in enumerate(row.tolist()))


class TrafficReplayState:
    """The replay's cross-chunk state, feedable one event window at a time.

    The confusion quad, the integer message ledger (messages per class and
    hop sums for both runs; per node, the consumed forwards' saved
    request-cost messages, data messages and hops) and the per-block carry
    of each block's last epoch live on the instance.  :meth:`feed` replays
    one window as numpy passes and :meth:`finish` prices the ledger into a
    :class:`TrafficReport`.  Every tally is an integer sum, so feeding a
    trace as N chunks gives exactly the report of feeding it whole, under
    any cost model.  :func:`replay_traffic` is this state fed one
    whole-trace window of precomputed predictions;
    :func:`simulate_traffic_streamed` feeds it the prediction windows of
    :func:`repro.core.windowed.predict_stream`.
    """

    def __init__(self, num_nodes: int, topology: Topology, model: TrafficModel):
        if topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology is for {topology.num_nodes} nodes, trace for {num_nodes}"
            )
        self.num_nodes = num_nodes
        self.topology = topology
        self.model = model
        self.layout = bitmap_layout(num_nodes)
        self.mask = self.layout.mask_words[:, None]
        self.hops = np.array(topology.matrix, dtype=np.int64)
        self.counts = ConfusionCounts()
        self.base_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.fwd_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.base_hops = 0
        self.fwd_hops = 0
        #: per node, over the demand reads its consumed forwards replaced:
        #: request-cost messages (== messages saved), data messages, hops
        self.saved_per_node = np.zeros(num_nodes, dtype=np.int64)
        self.consumed_per_node = np.zeros(num_nodes, dtype=np.int64)
        self.hidden_hops_per_node = np.zeros(num_nodes, dtype=np.int64)
        # each block's last epoch so far, sorted by block: its owner and
        # its holders (the owner plus the epoch's true readers)
        self.blocks = np.zeros(0, dtype=np.int64)
        self.owners = np.zeros(0, dtype=np.int64)
        self.holders = np.zeros((self.layout.n_words, 0), dtype=np.uint64)
        self.events = 0

    def feed(self, chunk, predictions: Sequence[int]) -> None:
        """Replay one event window (a trace chunk or a whole trace).

        ``chunk`` is anything with the trace column surface --
        ``writer``/``home``/``block``/``truth``/``inval``/``has_inval``
        columns in its machine width's layout -- so both
        :class:`~repro.trace.source.TraceChunk` and a whole
        :class:`SharingTrace` qualify.  ``predictions`` holds one raw
        forwarding bitmap per event in the window: a 1-D array, a packed
        ``(events, n_words)`` array, or a sequence of ints.

        Raises ``ValueError`` for the first event whose ``has_inval`` or
        ``inval`` contradicts the epochs replayed before it.
        """
        length = len(chunk.writer)
        if len(predictions) != length:
            raise ValueError(f"got {len(predictions)} predictions for {length} events")
        if not length:
            return
        n_words = self.layout.n_words
        writer = np.asarray(chunk.writer, dtype=np.int64)
        home = np.asarray(chunk.home, dtype=np.int64)
        truth = _word_rows(chunk.truth, n_words)
        writer_bit = _word_rows(self.layout.writer_bits(writer), n_words)
        # Forwarding to the writer is meaningless (it holds the line), so
        # its bit is masked out of the prediction; like the evaluation
        # engines, the bit still counts as a decision (a guaranteed true
        # negative), keeping this quad bit-identical to theirs.
        predicted = _prediction_rows(predictions, n_words) & self.mask & ~writer_bit
        invalidated = self._close_epochs(chunk, writer, writer_bit, truth)
        self.events += length

        reads, consumed, forwards, closes = self._node_tallies(
            writer, home, truth, predicted, invalidated
        )
        read_count, read_home, read_remote, read_hops = reads.sum(axis=1).tolist()
        hit_count, hit_home, hit_remote, hit_hops = consumed.sum(axis=1).tolist()
        pushed_count, pushed_hops = forwards.sum(axis=1).tolist()
        close_count, close_home, close_hops = closes.sum(axis=1).tolist()
        # write transaction: request writer -> home + data grant home -> writer
        writes = int(np.count_nonzero(writer != home))
        write_hops = int(self.hops[writer, home].sum() + self.hops[home, writer].sum())

        true_positive = hit_count
        false_positive = pushed_count - hit_count
        false_negative = read_count - hit_count
        counts = self.counts
        counts.true_positive += true_positive
        counts.false_positive += false_positive
        counts.false_negative += false_negative
        counts.true_negative += (
            length * self.num_nodes - true_positive - false_positive - false_negative
        )

        base_msgs, fwd_msgs = self.base_msgs, self.fwd_msgs
        base_msgs["requests"] += writes + read_count - read_home
        base_msgs["interventions"] += read_remote
        base_msgs["responses"] += writes + read_count
        fwd_msgs["requests"] += writes + (read_count - read_home) - (hit_count - hit_home)
        fwd_msgs["interventions"] += read_remote - hit_remote
        fwd_msgs["responses"] += writes + read_count - hit_count
        fwd_msgs["forwards"] += true_positive
        fwd_msgs["useless_forwards"] += false_positive
        for messages in (base_msgs, fwd_msgs):
            messages["invalidations"] += close_count - close_home
            messages["acks"] += close_count - close_home
        self.base_hops += write_hops + close_hops + read_hops
        self.fwd_hops += write_hops + close_hops + read_hops - hit_hops + pushed_hops
        # a consumed forward saves its read's request and intervention legs
        self.saved_per_node += consumed[0] - consumed[1] + consumed[2]
        self.consumed_per_node += consumed[0]
        self.hidden_hops_per_node += consumed[3]

    def _node_tallies(self, writer, home, truth, predicted, invalidated):
        """Tally the chunk per node position, over the events whose bitmap
        holds that node.

        Returns four ``(fields, num_nodes)`` arrays: over the true readers
        and over the readers a forward covered, ``(events, events homed at
        the node, events with a remote owner, hops of the demand read's
        legs)``; over the forwards, ``(events, hops)``; over the
        invalidated copies, ``(events, events homed at the node, hops of
        the invalidation and its ack)``.  The topology's zero diagonal makes
        a node-local leg cost 0 hops, so only the message counts need the
        home and owner conditions.
        """
        hops = self.hops
        remote = writer != home
        intervention_hops = hops[home, writer]

        def read_tally(events, reader, to_reader, from_reader):
            # request reader -> home, intervention home -> owner, data owner -> reader
            homes = home[events]
            return (
                len(events),
                np.count_nonzero(homes == reader),
                np.count_nonzero(remote[events]),
                to_reader[writer[events]].sum()
                + from_reader[homes].sum()
                + intervention_hops[events].sum(),
            )

        reads = np.zeros((4, self.num_nodes), dtype=np.int64)
        consumed = np.zeros((4, self.num_nodes), dtype=np.int64)
        forwards = np.zeros((2, self.num_nodes), dtype=np.int64)
        closes = np.zeros((3, self.num_nodes), dtype=np.int64)
        # the nodes each bitmap holds anywhere in the chunk (others tally 0)
        in_truth, in_predicted, in_closed = (
            _row_int(np.bitwise_or.reduce(rows, axis=1))
            for rows in (truth, predicted, invalidated)
        )
        for node in range(self.num_nodes):
            word = node // _WORD_BITS
            bit = np.uint64(1 << (node % _WORD_BITS))
            to_node = hops[:, node]
            from_node = hops[node]
            if in_truth >> node & 1:
                readers = np.flatnonzero((truth[word] & bit) != 0)
                reads[:, node] = read_tally(readers, node, to_node, from_node)
                if in_predicted >> node & 1:
                    covered = readers[(predicted[word][readers] & bit) != 0]
                    consumed[:, node] = read_tally(covered, node, to_node, from_node)
            if in_predicted >> node & 1:
                pushed = np.flatnonzero((predicted[word] & bit) != 0)
                forwards[:, node] = len(pushed), to_node[writer[pushed]].sum()
            if in_closed >> node & 1:
                # invalidation home -> copy, ack copy -> home
                homes = home[np.flatnonzero((invalidated[word] & bit) != 0)]
                closes[:, node] = (
                    len(homes),
                    np.count_nonzero(homes == node),
                    to_node[homes].sum() + from_node[homes].sum(),
                )
        return reads, consumed, forwards, closes

    def _close_epochs(self, chunk, writer, writer_bit, truth) -> np.ndarray:
        """Each event's invalidation set: the copies of the epoch it closes.

        Checks the trace's epoch linkage (the readers the directory saw must
        be what the closing event invalidates) and carries each block's
        last epoch into the next chunk.  Returns word rows of the previous
        epoch's holders minus the new writer.
        """
        block = np.asarray(chunk.block, dtype=np.int64)
        holders = writer_bit | truth
        order = np.argsort(block, kind="stable")
        ordered = block[order]
        opens = np.ones(len(block), dtype=bool)
        opens[1:] = ordered[1:] != ordered[:-1]
        # each event's previous event on its block within the chunk
        previous = np.empty(len(block), dtype=np.int64)
        previous[order[1:]] = order[:-1]
        firsts = order[opens]
        previous[firsts] = 0
        owner = writer[previous]
        prior = holders[:, previous]
        # a block's first event in the chunk takes the carried epoch, if any
        blocks = ordered[opens]
        at = np.searchsorted(self.blocks, blocks)
        carried = at < len(self.blocks)
        carried[carried] = self.blocks[at[carried]] == blocks[carried]
        owner[firsts[carried]] = self.owners[at[carried]]
        prior[:, firsts[carried]] = self.holders[:, at[carried]]
        prior[:, firsts[~carried]] = 0
        seen = np.ones(len(block), dtype=bool)
        seen[firsts[~carried]] = False

        n_words = self.layout.n_words
        readers_seen = prior & ~_word_rows(self.layout.writer_bits(owner), n_words)
        inval = _word_rows(chunk.inval, n_words)
        has_inval = np.asarray(chunk.has_inval, dtype=bool)
        bad = has_inval & ~(seen & (readers_seen == inval).all(axis=0))
        if bad.any():
            index = int(np.argmax(bad))
            if not seen[index]:
                raise ValueError(
                    f"event on block {int(block[index])} closes an epoch the "
                    "replay never saw"
                )
            raise ValueError(
                f"block {int(block[index])}: directory saw readers "
                f"{_row_int(readers_seen[:, index]):#x} but the closing event "
                f"invalidates {_row_int(inval[:, index]):#x}"
            )

        lasts = order[np.append(opens[1:], True)]
        self.owners[at[carried]] = writer[lasts[carried]]
        self.holders[:, at[carried]] = holders[:, lasts[carried]]
        fresh = ~carried
        self.blocks = np.insert(self.blocks, at[fresh], blocks[fresh])
        self.owners = np.insert(self.owners, at[fresh], writer[lasts[fresh]])
        self.holders = np.insert(
            self.holders, at[fresh], holders[:, lasts[fresh]], axis=1
        )
        return prior & ~writer_bit

    def _latency(self, request_messages: int, data_messages: int, hops: int) -> float:
        model = self.model
        return float(
            request_messages * model.request_cost
            + data_messages * model.data_cost
            + hops * model.hop_cost
        )

    def _run_latency(self, messages: dict, hops: int) -> float:
        data = sum(messages[name] for name in DATA_CLASSES)
        return self._latency(sum(messages.values()) - data, data, hops)

    def finish(self, scheme: str = "", trace_name: str = "") -> TrafficReport:
        """Assemble the report over everything fed so far."""
        saved = self.saved_per_node.tolist()
        consumed = self.consumed_per_node.tolist()
        hidden_hops = self.hidden_hops_per_node.tolist()
        return TrafficReport(
            scheme=scheme,
            trace=trace_name,
            num_nodes=self.num_nodes,
            topology=self.topology.name,
            model=self.model,
            true_positive=self.counts.true_positive,
            false_positive=self.counts.false_positive,
            false_negative=self.counts.false_negative,
            true_negative=self.counts.true_negative,
            baseline_messages=dict(self.base_msgs),
            forwarding_messages=dict(self.fwd_msgs),
            baseline_latency=self._run_latency(self.base_msgs, self.base_hops),
            forwarding_latency=self._run_latency(self.fwd_msgs, self.fwd_hops),
            messages_saved=sum(saved),
            latency_hidden=self._latency(sum(saved), sum(consumed), sum(hidden_hops)),
            per_node_messages_saved=tuple(saved),
            per_node_latency_hidden=tuple(
                self._latency(*node) for node in zip(saved, consumed, hidden_hops)
            ),
        )


def _report_telemetry(
    report: TrafficReport,
    events: int,
    started: float,
    replay_seconds: float,
    predict_seconds: Optional[float] = None,
) -> None:
    """Count one report; ``forwarding.simulate_seconds`` spans the whole
    call, of which the replay and any prediction are timed apart."""
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.count("forwarding.reports")
        telemetry.count("forwarding.events", events)
        telemetry.count("forwarding.messages_saved", report.messages_saved)
        telemetry.count("forwarding.useless_forwards", report.useless_forwards)
        telemetry.timer_add(
            "forwarding.simulate_seconds", time.perf_counter() - started
        )
        telemetry.timer_add("forwarding.replay_seconds", replay_seconds)
        if predict_seconds is not None:
            telemetry.timer_add("forwarding.predict_seconds", predict_seconds)


def replay_traffic(
    trace: SharingTrace,
    predictions: Sequence[int],
    scheme: str = "",
    topology: Union[str, Topology] = "mesh",
    model: TrafficModel = TrafficModel(),
) -> TrafficReport:
    """Simulate baseline and forwarding runs of one trace; return the report.

    ``predictions`` holds one forwarding bitmap per event -- whatever the
    predictor emitted (any residual writer bit is masked off, matching the
    evaluators' ``exclude_writer`` convention).
    """
    started = time.perf_counter()
    num_nodes = trace.num_nodes
    if not isinstance(topology, Topology):
        topology = make_topology(topology, num_nodes)
    if len(predictions) != len(trace):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(trace)} events"
        )
    replay_started = time.perf_counter()
    state = TrafficReplayState(num_nodes, topology, model)
    state.feed(trace, predictions)
    report = state.finish(scheme=scheme, trace_name=trace.name)
    replay_seconds = time.perf_counter() - replay_started
    _report_telemetry(report, len(trace), started, replay_seconds)
    return report


def simulate_traffic_streamed(
    scheme: "Scheme",
    source: "Union[SharingTrace, TraceSource]",
    topology: Union[str, Topology] = "mesh",
    model: TrafficModel = TrafficModel(),
) -> TrafficReport:
    """Predict and replay one scheme over a trace, window by window.

    Couples :func:`repro.core.windowed.predict_stream` (a resident trace is
    one window; a streamed source never has a full-length prediction
    column) to :class:`TrafficReplayState`.  Both halves are
    chunk-order-invariant, so the report is bit-identical to
    ``replay_traffic(trace, predict_scheme_fast(...))`` on the materialized
    trace.
    """
    # Imported here, not at module top: core.windowed is the heavy
    # vectorized-evaluator layer, and forwarding must stay importable
    # without it (the engines import both packages).
    from repro.core.windowed import predict_stream

    started = time.perf_counter()
    if not isinstance(topology, Topology):
        topology = make_topology(topology, source.num_nodes)
    state = TrafficReplayState(source.num_nodes, topology, model)
    windows = predict_stream(scheme, source, exclude_writer=True)
    predict_seconds = replay_seconds = 0.0
    while True:
        window_started = time.perf_counter()
        window = next(windows, None)
        fed = time.perf_counter()
        predict_seconds += fed - window_started
        if window is None:
            break
        state.feed(*window)
        replay_seconds += time.perf_counter() - fed
    finish_started = time.perf_counter()
    report = state.finish(scheme=scheme.full_name, trace_name=source.name)
    replay_seconds += time.perf_counter() - finish_started
    _report_telemetry(report, state.events, started, replay_seconds, predict_seconds)
    return report
