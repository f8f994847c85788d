"""The per-event replay loop the numpy replay replaced, kept as an oracle.

:class:`LoopReplayState` is the earlier ``TrafficReplayState`` verbatim: it
drives two :class:`~repro.memory.protocol.EpochProtocol` replicas event by
event, walks set bits one at a time and accumulates float latencies in
event order.  The differential tests feed it and
:class:`repro.forwarding.simulator.TrafficReplayState` the same events and
predictions and compare the reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.forwarding.topology import Topology
from repro.memory.protocol import EpochProtocol
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.traffic import MESSAGE_CLASSES, TrafficModel, TrafficReport
from repro.util.bitmaps import bitmap_mask, iter_set_bits


class LoopReplayState:
    """The replay loop's cross-event state, feedable one event window at a time."""

    def __init__(self, num_nodes: int, topology: Topology, model: TrafficModel):
        if topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology is for {topology.num_nodes} nodes, trace for {num_nodes}"
            )
        self.num_nodes = num_nodes
        self.topology = topology
        self.model = model
        self.mask = bitmap_mask(num_nodes)
        self.baseline = EpochProtocol(num_nodes)
        self.forwarding = EpochProtocol(num_nodes)
        self.counts = ConfusionCounts()
        self.base_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.fwd_msgs = dict.fromkeys(MESSAGE_CLASSES, 0)
        self.base_latency = 0.0
        self.fwd_latency = 0.0
        self.saved_per_node = [0] * num_nodes
        self.hidden_per_node = [0.0] * num_nodes
        self.events = 0

    def feed(self, chunk, predictions: Sequence[int]) -> None:
        writers = chunk.writer.tolist()
        homes = chunk.home.tolist()
        blocks = chunk.block.tolist()
        truths = chunk.truth_ints()
        invals = chunk.inval_ints()
        has_invals = chunk.has_inval.tolist()
        if len(predictions) != len(writers):
            raise ValueError(
                f"got {len(predictions)} predictions for {len(writers)} events"
            )
        # Packed prediction columns (>64-node machines) arrive as 2-D word
        # arrays from the evaluators; flatten them to Python ints up front
        # so the replay loop is width-agnostic.
        if isinstance(predictions, np.ndarray) and predictions.ndim > 1:
            predictions = chunk.layout.to_int_list(predictions)
        self.events += len(writers)

        mask = self.mask
        hops = self.topology.matrix
        request_cost = self.model.request_cost
        data_cost = self.model.data_cost
        hop_cost = self.model.hop_cost
        baseline = self.baseline
        forwarding = self.forwarding
        counts = self.counts
        base_msgs = self.base_msgs
        fwd_msgs = self.fwd_msgs
        base_latency = self.base_latency
        fwd_latency = self.fwd_latency
        saved_per_node = self.saved_per_node
        hidden_per_node = self.hidden_per_node

        for position in range(len(writers)):
            writer = writers[position]
            home = homes[position]
            block = blocks[position]
            truth = truths[position]
            inval = invals[position]
            has_inval = has_invals[position]
            # Forwarding to the writer is meaningless (it holds the line), so
            # its bit is masked out of the prediction; like the evaluation
            # engines, the bit still counts as a decision (a guaranteed true
            # negative), keeping this quad bit-identical to theirs.
            predicted = int(predictions[position]) & mask & ~(1 << writer)
            counts.record(predicted, truth, mask)

            base_transition = baseline.apply_event(
                writer, block, truth, 0, inval, has_inval
            )
            forwarding.apply_event(writer, block, truth, predicted, inval, has_inval)

            # Write transaction: request + data grant, in both runs.
            if writer != home:
                cost = (
                    request_cost
                    + data_cost
                    + hop_cost * (hops[writer][home] + hops[home][writer])
                )
                base_msgs["requests"] += 1
                base_msgs["responses"] += 1
                fwd_msgs["requests"] += 1
                fwd_msgs["responses"] += 1
                base_latency += cost
                fwd_latency += cost

            # Epoch close: identical in both runs (staged copies expire free).
            home_row = hops[home]
            for copy in iter_set_bits(base_transition.invalidated):
                if copy == home:
                    continue
                cost = 2 * request_cost + hop_cost * (home_row[copy] + hops[copy][home])
                base_msgs["invalidations"] += 1
                base_msgs["acks"] += 1
                fwd_msgs["invalidations"] += 1
                fwd_msgs["acks"] += 1
                base_latency += cost
                fwd_latency += cost

            # Demand reads: the baseline serves every true reader; the
            # forwarding run only those the predictor missed.  A consumed
            # forward saves the whole three-leg read and hides its latency.
            writer_row = hops[writer]
            for reader in iter_set_bits(truth):
                messages = 1
                latency = data_cost + hop_cost * writer_row[reader]
                if reader != home:
                    messages += 1
                    latency += request_cost + hop_cost * hops[reader][home]
                if home != writer:
                    messages += 1
                    latency += request_cost + hop_cost * home_row[writer]
                base_msgs["requests"] += reader != home
                base_msgs["interventions"] += home != writer
                base_msgs["responses"] += 1
                base_latency += latency
                if (predicted >> reader) & 1:
                    saved_per_node[reader] += messages - 1
                    hidden_per_node[reader] += latency
                else:
                    fwd_msgs["requests"] += reader != home
                    fwd_msgs["interventions"] += home != writer
                    fwd_msgs["responses"] += 1
                    fwd_latency += latency

            # Forwards: one pushed data message per predicted reader.
            for target in iter_set_bits(predicted):
                if (truth >> target) & 1:
                    fwd_msgs["forwards"] += 1
                else:
                    fwd_msgs["useless_forwards"] += 1
                fwd_latency += data_cost + hop_cost * writer_row[target]

        self.base_latency = base_latency
        self.fwd_latency = fwd_latency

    def finish(self, scheme: str = "", trace_name: str = "") -> TrafficReport:
        """Assemble the report over everything fed so far."""
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
            baseline_messages=self.base_msgs,
            forwarding_messages=self.fwd_msgs,
            baseline_latency=self.base_latency,
            forwarding_latency=self.fwd_latency,
            messages_saved=sum(self.saved_per_node),
            latency_hidden=sum(self.hidden_per_node),
            per_node_messages_saved=tuple(self.saved_per_node),
            per_node_latency_hidden=tuple(self.hidden_per_node),
        )
