"""Unit tests for the forwarding-traffic simulator's message accounting.

Hand-written micro-traces with known ledgers, the writer-is-home regression
(the directory-to-owner intervention must not be charged when the home node
*is* the owner), and the report's serialization/merge plumbing.
"""

from __future__ import annotations

import json

import pytest

from repro.forwarding import (
    ForwardingConfig,
    demand_read_cost,
    make_topology,
    replay_traffic,
    simulate_forwarding,
)
from repro.core.schemes import parse_scheme
from repro.forwarding.simulator import TrafficReplayState, simulate_traffic_streamed
from repro.metrics.traffic import TrafficModel, TrafficReport, merge_reports
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.events import SharingTrace
from repro.trace.source import ResidentTraceSource

from tests.forwarding.loop_oracle import LoopReplayState


def one_event_trace(writer, home, truth, num_nodes=4, name="micro"):
    return SharingTrace.from_epochs(
        num_nodes, [(writer, 1, home, home, truth)], name=name
    )


#: unit-hop network and a cost model with distinguishable components
FLAT = make_topology("crossbar", 4)
MODEL = TrafficModel(request_cost=1.0, data_cost=9.0, hop_cost=1.0)


class TestDemandReadLedger:
    def test_writer_is_home_charges_no_intervention(self):
        """Regression: h == w means the directory *is* the owner.

        The demand read is then request(r->h) + response(w->r) -- two
        messages -- because the directory-to-owner leg is node-local.
        Charging it double-counted one hop per read on first-touch traces
        (where the first writer usually is the home).
        """
        trace = one_event_trace(writer=0, home=0, truth=0b0010)
        report = replay_traffic(trace, [0], topology=FLAT, model=MODEL)
        assert report.baseline_messages["interventions"] == 0
        assert report.baseline_messages["requests"] == 1
        assert report.baseline_messages["responses"] == 1
        assert report.total_baseline_messages == 2
        # request (1 + 1 hop) + response (9 + 1 hop); no write transaction
        # (writer is home), no intervention leg.
        assert report.baseline_latency == pytest.approx(12.0)

    def test_remote_home_charges_the_intervention(self):
        trace = one_event_trace(writer=1, home=0, truth=0b0100)
        report = replay_traffic(trace, [0], topology=FLAT, model=MODEL)
        # write transaction: request w->h + grant h->w
        # demand read: request r->h + intervention h->w + response w->r
        assert report.baseline_messages["requests"] == 2
        assert report.baseline_messages["responses"] == 2
        assert report.baseline_messages["interventions"] == 1
        assert report.total_baseline_messages == 5

    def test_reader_is_home_skips_the_request_leg(self):
        trace = one_event_trace(writer=1, home=2, truth=0b0100)
        report = replay_traffic(trace, [0], topology=FLAT, model=MODEL)
        # write transaction (2) + demand read by the home itself:
        # intervention h->w + response w->r only.
        assert report.baseline_messages["requests"] == 1
        assert report.baseline_messages["interventions"] == 1
        assert report.baseline_messages["responses"] == 2
        assert report.total_baseline_messages == 4

    def test_demand_read_cost_helper_matches_ledger(self):
        messages, latency = demand_read_cost(1, 0, 0, FLAT, MODEL)
        assert messages == 2
        assert latency == pytest.approx(12.0)
        messages, latency = demand_read_cost(2, 1, 0, FLAT, MODEL)
        assert messages == 3
        # request 2->0 (1+1) + intervention 0->1 (1+1) + response 1->2 (9+1)
        assert latency == pytest.approx(14.0)


class TestForwardingLedger:
    def test_consumed_forward_replaces_the_demand_read(self):
        trace = one_event_trace(writer=0, home=0, truth=0b0010)
        report = replay_traffic(trace, [0b0010], topology=FLAT, model=MODEL)
        assert report.true_positive == 1
        assert report.forwarding_messages["forwards"] == 1
        assert report.forwarding_messages["responses"] == 0
        assert report.messages_saved == 1  # two-message read became one push
        assert report.total_forwarding_messages == 1
        assert report.latency_hidden == pytest.approx(12.0)

    def test_useless_forward_is_pure_overhead(self):
        trace = one_event_trace(writer=0, home=0, truth=0)
        report = replay_traffic(trace, [0b0100], topology=FLAT, model=MODEL)
        assert report.false_positive == 1
        assert report.useless_forwards == 1
        assert report.messages_saved == 0
        assert report.total_forwarding_messages == 1
        assert report.total_baseline_messages == 0
        # one pushed data message: 9 payload + 1 hop
        assert report.forwarding_latency == pytest.approx(10.0)

    def test_writer_bit_in_predictions_is_ignored(self):
        trace = one_event_trace(writer=0, home=0, truth=0)
        report = replay_traffic(trace, [0b0001], topology=FLAT, model=MODEL)
        assert report.false_positive == 0
        assert report.total_forwarding_messages == 0

    def test_invalidation_traffic_identical_across_runs(self, tiny_trace):
        spammy = [0b1111] * len(tiny_trace)
        report = replay_traffic(tiny_trace, spammy, topology="crossbar")
        for message_class in ("invalidations", "acks"):
            assert (
                report.baseline_messages[message_class]
                == report.forwarding_messages[message_class]
            )


class TestValidation:
    def test_prediction_length_mismatch(self, tiny_trace):
        with pytest.raises(ValueError, match="predictions"):
            replay_traffic(tiny_trace, [0])

    def test_topology_size_mismatch(self, tiny_trace):
        with pytest.raises(ValueError, match="nodes"):
            replay_traffic(
                tiny_trace, [0] * len(tiny_trace), topology=make_topology("mesh", 16)
            )


def linked_trace(events, num_nodes=4):
    """A trace from explicit ``(writer, block, truth, inval, has_inval)``
    rows, linkage taken as given (unchecked)."""
    return SharingTrace(
        num_nodes=num_nodes,
        writer=[event[0] for event in events],
        pc=[1] * len(events),
        home=[0] * len(events),
        block=[event[1] for event in events],
        truth=[event[2] for event in events],
        inval=[event[3] for event in events],
        has_inval=[event[4] for event in events],
        close=[len(events)] * len(events),
        name="linked",
    )


def replay_error(state_class, trace, chunk_events) -> str:
    state = state_class(trace.num_nodes, FLAT, MODEL)
    with pytest.raises(ValueError) as raised:
        for chunk in ResidentTraceSource(trace, chunk_events).chunks():
            state.feed(chunk, [0] * len(chunk))
    return str(raised.value)


class TestInconsistentTraces:
    """A trace whose epoch linkage contradicts the replay fails loudly,
    naming the first offending event, with the per-event loop's text."""

    NEVER_SAW = "event on block 12 closes an epoch the replay never saw"
    MISMATCH = (
        "block 11: directory saw readers 0x6 but the closing event invalidates 0x2"
    )

    @pytest.mark.parametrize(
        "events, chunk_events, message",
        [
            pytest.param(
                [(0, 10, 0b0010, 0, False), (1, 12, 0, 0b0100, True)],
                2, NEVER_SAW, id="first-event-of-block-has-inval",
            ),
            pytest.param(
                [
                    (0, 10, 0b0010, 0, False),
                    (0, 11, 0b0110, 0, False),
                    (1, 10, 0, 0b0010, True),
                    (1, 11, 0, 0b0010, True),
                    (1, 12, 0, 0b0100, True),
                ],
                5, MISMATCH, id="mismatch-inside-the-chunk",
            ),
            pytest.param(
                [
                    (0, 11, 0b0110, 0, False),
                    (2, 10, 0b0010, 0, False),
                    (1, 11, 0, 0b0010, True),
                    (1, 12, 0, 0b0100, True),
                ],
                2, MISMATCH, id="mismatch-on-a-carried-epoch",
            ),
        ],
    )
    def test_first_offending_event_raises_the_loop_text(
        self, events, chunk_events, message
    ):
        trace = linked_trace(events)
        assert replay_error(LoopReplayState, trace, chunk_events) == message
        assert replay_error(TrafficReplayState, trace, chunk_events) == message
        assert replay_error(TrafficReplayState, trace, len(trace)) == message


class TestReportPlumbing:
    def test_json_round_trip_is_exact(self, tiny_trace):
        report = simulate_forwarding("union(dir+add6)2[direct]", tiny_trace)
        rehydrated = TrafficReport.from_json(json.loads(json.dumps(report.to_json())))
        assert rehydrated == report

    def test_from_json_rejects_stale_schema(self, tiny_trace):
        payload = simulate_forwarding("last()1[direct]", tiny_trace).to_json()
        payload["schema"] = -1
        with pytest.raises(ValueError, match="schema"):
            TrafficReport.from_json(payload)

    def test_merge_reports_sums_everything(self, tiny_trace):
        report = simulate_forwarding("last()1[direct]", tiny_trace)
        merged = merge_reports([report, report])
        assert merged.true_positive == 2 * report.true_positive
        assert merged.messages_saved == 2 * report.messages_saved
        assert merged.total_baseline_messages == 2 * report.total_baseline_messages
        assert merged.latency_hidden == pytest.approx(2 * report.latency_hidden)
        assert merged.per_node_messages_saved == tuple(
            2 * saved for saved in report.per_node_messages_saved
        )
        assert merged.trace == "suite"

    def test_merge_reports_rejects_mixed_configurations(self, tiny_trace):
        mesh_report = simulate_forwarding("last()1[direct]", tiny_trace)
        ring_report = simulate_forwarding(
            "last()1[direct]", tiny_trace, topology="ring"
        )
        with pytest.raises(ValueError):
            merge_reports([mesh_report, ring_report])

    def test_engine_config_is_picklable(self):
        import pickle

        config = ForwardingConfig(topology="ring", model=MODEL)
        assert pickle.loads(pickle.dumps(config)) == config


class TestTimers:
    def test_prediction_and_replay_are_timed_apart(self, tiny_trace):
        """``forwarding.simulate_seconds`` spans the whole call; the
        prediction windows and the replay are recorded beside it."""
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            simulate_traffic_streamed(
                parse_scheme("union(dir+add6)2[forwarded]"),
                ResidentTraceSource(tiny_trace, chunk_events=2),
            )
        finally:
            set_telemetry(previous)
        timers = telemetry.timers
        predict, predict_calls = timers["forwarding.predict_seconds"]
        replay, replay_calls = timers["forwarding.replay_seconds"]
        simulate, _ = timers["forwarding.simulate_seconds"]
        assert predict > 0 and replay > 0
        assert predict_calls == replay_calls == 1
        assert predict + replay <= simulate
