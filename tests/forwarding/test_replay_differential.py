"""Differential property tests: the numpy traffic replay against the loop.

:class:`~tests.forwarding.loop_oracle.LoopReplayState` is the per-event
replay loop the numpy passes replaced.  Hypothesis draws well-formed traces
at every bitmap layout (``uint32`` up to 32 nodes, ``uint64`` at 64, packed
words above) with arbitrary predictions -- not derived from any scheme, so
they carry writer bits, bits past the last node and dense or empty sets --
and feeds each trace whole and as a written ``.rtrace`` image cut into
random chunks:

* under the default cost model and an integer non-default one, every
  report equals the loop's field for field;
* under a fractional model, the whole feed equals the chunked feed, and
  every latency is the tally formula ``request_messages * request_cost +
  data_messages * data_cost + hops * hop_cost``, with the message counts
  and hop sums recovered from two loop replays under integer models.
"""

from __future__ import annotations

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.forwarding.simulator import TrafficReplayState
from repro.forwarding.topology import make_topology
from repro.metrics.traffic import DATA_CLASSES, TrafficModel
from repro.trace.interchange import ImageTraceSource, write_source
from repro.util.bitmaps import bitmap_from_nodes

from tests.conftest import make_random_trace
from tests.forwarding.loop_oracle import LoopReplayState

DEFAULT = TrafficModel()
WIDE_HOPS = TrafficModel(hop_cost=2.0)
FRACTIONAL = TrafficModel(request_cost=0.1, data_cost=9.3, hop_cost=0.7)


@st.composite
def replay_cases(draw):
    num_nodes = draw(
        st.one_of(
            st.integers(min_value=2, max_value=16),
            st.just(64),
            st.integers(min_value=65, max_value=130),
        )
    )
    trace = make_random_trace(
        num_nodes=num_nodes,
        num_events=draw(st.integers(min_value=1, max_value=90)),
        num_blocks=draw(st.integers(min_value=1, max_value=12)),
        seed=f"replay-{draw(st.integers(min_value=0, max_value=10_000))}",
        reader_rate=draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])),
    )
    width = trace.layout.word_bits * trace.layout.n_words
    bitmap = st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.sets(st.integers(min_value=0, max_value=num_nodes - 1), max_size=3).map(
            bitmap_from_nodes
        ),
    )
    predictions = draw(st.lists(bitmap, min_size=len(trace), max_size=len(trace)))
    chunk_events = draw(st.integers(min_value=1, max_value=len(trace)))
    return trace, predictions, chunk_events


def integer_topology(num_nodes: int) -> str:
    # a hypercube needs a power-of-two machine
    return "hypercube" if num_nodes & (num_nodes - 1) == 0 else "ring"


def chunks_of(trace, chunk_events: int):
    """The trace as an ``.rtrace`` image written in ``chunk_events`` windows."""
    image = io.BytesIO()
    write_source(trace, image, chunk_events=chunk_events)
    return list(ImageTraceSource(image.getvalue()).chunks())


def replay(state_class, trace, predictions, topology, model, chunks=None):
    state = state_class(trace.num_nodes, make_topology(topology, trace.num_nodes), model)
    if chunks is None:
        state.feed(trace, predictions)
    else:
        for chunk in chunks:
            state.feed(chunk, predictions[chunk.start : chunk.end])
    return state.finish(scheme="s", trace_name=trace.name)


@given(case=replay_cases())
def test_replay_equals_the_loop_under_integer_models(case):
    trace, predictions, chunk_events = case
    chunks = chunks_of(trace, chunk_events)
    packed = trace.layout.pack(predictions)
    for topology, model in (
        ("mesh", DEFAULT),
        (integer_topology(trace.num_nodes), WIDE_HOPS),
    ):
        expected = replay(LoopReplayState, trace, predictions, topology, model)
        # whole, from the column array the evaluators emit and from ints
        for whole in (packed, predictions):
            report = replay(TrafficReplayState, trace, whole, topology, model)
            assert report == expected
            assert report.to_json() == expected.to_json()
        chunked = replay(TrafficReplayState, trace, packed, topology, model, chunks)
        assert chunked == expected
        assert chunked.to_json() == expected.to_json()


def priced(model, request_messages, data_messages, hops):
    return float(
        request_messages * model.request_cost
        + data_messages * model.data_cost
        + hops * model.hop_cost
    )


def split(messages):
    data = sum(messages[name] for name in DATA_CLASSES)
    return sum(messages.values()) - data, data


@given(case=replay_cases())
def test_fractional_costs_are_chunk_invariant_tally_prices(case):
    trace, predictions, chunk_events = case
    packed = trace.layout.pack(predictions)
    whole = replay(TrafficReplayState, trace, packed, "ring", FRACTIONAL)
    chunked = replay(
        TrafficReplayState, trace, packed, "ring", FRACTIONAL,
        chunks_of(trace, chunk_events),
    )
    assert chunked == whole
    assert chunked.to_json() == whole.to_json()

    # Two loop replays under integer models pin every tally: the data
    # messages of each node's hidden reads are the latency difference a
    # one-unit data cost makes, and hops are what the payloads leave.
    nine = replay(LoopReplayState, trace, predictions, "ring", DEFAULT)
    ten = replay(
        LoopReplayState, trace, predictions, "ring", TrafficModel(data_cost=10.0)
    )
    for run in ("baseline", "forwarding"):
        requests, data = split(getattr(nine, f"{run}_messages"))
        hops = getattr(nine, f"{run}_latency") - requests - 9 * data
        assert getattr(whole, f"{run}_latency") == priced(
            FRACTIONAL, requests, data, int(hops)
        )
    hidden = list(zip(whole.per_node_messages_saved, nine.per_node_latency_hidden,
                      ten.per_node_latency_hidden))
    totals = [0, 0, 0]
    for node, (saved, at_nine, at_ten) in enumerate(hidden):
        consumed = int(at_ten - at_nine)
        hops = int(at_nine - saved - 9 * consumed)
        assert whole.per_node_latency_hidden[node] == priced(
            FRACTIONAL, saved, consumed, hops
        )
        totals = [total + part for total, part in zip(totals, (saved, consumed, hops))]
    assert whole.latency_hidden == priced(FRACTIONAL, *totals)
