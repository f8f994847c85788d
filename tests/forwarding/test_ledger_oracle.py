"""Closed-form traffic ledgers for pattern-pure traces.

Each trace here is one block of a 4-node machine (home node 0) carrying a
single sharing pattern from the taxonomy in ``repro.trace.patterns``:
producer-consumer (a fixed writer that is not the home, a fixed reader set)
or migratory (the token passes from each epoch's reader to the next
epoch's writer).  For these, the message model in the module docstring of
``repro.forwarding.simulator`` gives every ledger entry in closed form.
The expectations below are those formulas, with hop distances written by
hand; nothing here asks the simulator or the epoch protocol for an
expected value.

The model, per epoch (legs between a node and itself are free and absent):
a write transaction is a request writer->home plus a data grant; closing
the previous epoch sends an invalidation home->copy and an ack back for
each of its copies except the new writer's; each true reader's demand read
is a request reader->home, an intervention home->owner and a data response
owner->reader; a forward is one data message writer->target.  A message
costs its payload (``request_cost`` or ``data_cost``) plus ``hop_cost``
per hop.
"""

from __future__ import annotations

import pytest

from repro.forwarding import make_topology, replay_traffic
from repro.metrics.traffic import TrafficModel
from repro.trace.events import SharingTrace
from repro.trace.patterns import SharingPattern, census

RC, DC, HC = 1, 9, 2
MODEL = TrafficModel(request_cost=RC, data_cost=DC, hop_cost=HC)
NODES = 4
HOME = 0
EPOCHS = 6

#: hop distances, by hand
DISTANCE = {
    "crossbar": lambda a, b: int(a != b),
    "ring": lambda a, b: min((a - b) % NODES, (b - a) % NODES),
}

ALL_NODES = frozenset(range(NODES))


def bitmap(nodes) -> int:
    return sum(1 << node for node in nodes)


def write_latency(d, writer):
    return RC + DC + HC * (d(writer, HOME) + d(HOME, writer))


def close_latency(d, copies):
    return sum(2 * RC + 2 * HC * d(HOME, copy) for copy in copies if copy != HOME)


def read_latency(d, writer, reader):
    return (
        DC + HC * d(writer, reader)
        + (reader != HOME) * (RC + HC * d(reader, HOME))
        + (writer != HOME) * (RC + HC * d(HOME, writer))
    )


def forward_latency(d, writer, targets):
    return sum(DC + HC * d(writer, target) for target in targets)


# ----------------------------------------------------------------------
# Producer-consumer: writer 1 (not the home), readers fixed, EPOCHS epochs
# ----------------------------------------------------------------------

PRODUCER = 1


def producer_consumer_trace(readers):
    epochs = [(PRODUCER, 1, HOME, 0, bitmap(readers))] * EPOCHS
    return SharingTrace.from_epochs(NODES, epochs, name="producer-consumer")


def producer_consumer_expected(d, readers, pushed):
    """The ledger when every epoch forwards to ``pushed``."""
    E = EPOCHS
    readers = frozenset(readers)
    covered = pushed & readers
    missed = readers - covered
    useless = pushed - readers
    at_home = int(HOME in readers)
    missed_at_home = int(HOME in missed)
    # every epoch after the first invalidates the previous epoch's readers
    closes = (E - 1) * (len(readers) - at_home)
    reads = sum(read_latency(d, PRODUCER, r) for r in readers)
    hidden = sum(read_latency(d, PRODUCER, r) for r in covered)
    common = E * write_latency(d, PRODUCER) + (E - 1) * close_latency(d, readers)
    return {
        "baseline_messages": {
            "requests": E + E * (len(readers) - at_home),
            "interventions": E * len(readers),
            "responses": E + E * len(readers),
            "invalidations": closes,
            "acks": closes,
            "forwards": 0,
            "useless_forwards": 0,
        },
        "forwarding_messages": {
            "requests": E + E * (len(missed) - missed_at_home),
            "interventions": E * len(missed),
            "responses": E + E * len(missed),
            "invalidations": closes,
            "acks": closes,
            "forwards": E * len(covered),
            "useless_forwards": E * len(useless),
        },
        "baseline_latency": common + E * reads,
        "forwarding_latency": common
        + E * (reads - hidden)
        + E * forward_latency(d, PRODUCER, pushed),
        # a covered read saves its request (unless local) and intervention
        "messages_saved": E * sum((r != HOME) + 1 for r in covered),
        "latency_hidden": E * hidden,
        "quad": (
            E * len(covered),
            E * len(useless),
            E * len(missed),
            E * NODES - E * (len(covered) + len(useless) + len(missed)),
        ),
    }


# ----------------------------------------------------------------------
# Migratory: the token cycles 1 -> 2 -> 3 -> 1 (never the home)
# ----------------------------------------------------------------------

CYCLE = (1, 2, 3)
assert EPOCHS % len(CYCLE) == 0
TURNS = EPOCHS // len(CYCLE)


def after(node):
    return CYCLE[(CYCLE.index(node) + 1) % len(CYCLE)]


def migratory_trace():
    epochs = [
        (CYCLE[k % 3], 1, HOME, 0, bitmap([CYCLE[(k + 1) % 3]])) for k in range(EPOCHS)
    ]
    return SharingTrace.from_epochs(NODES, epochs, name="migratory")


def migratory_expected(d, prediction):
    """The ledger when each epoch of writer ``a`` forwards to ``prediction(a)``."""
    E = EPOCHS
    # each epoch closes the previous one, whose only copy besides the new
    # writer is the previous writer; the last writer's epoch stays open
    closes = sum(close_latency(d, [a]) for a in CYCLE) * TURNS - close_latency(
        d, [CYCLE[(E - 1) % 3]]
    )
    writes = TURNS * sum(write_latency(d, a) for a in CYCLE)
    covered = [a for a in CYCLE if after(a) in prediction(a)]
    useless = TURNS * sum(len(prediction(a) - {after(a)}) for a in CYCLE)
    reads = TURNS * sum(read_latency(d, a, after(a)) for a in CYCLE)
    hidden = TURNS * sum(read_latency(d, a, after(a)) for a in covered)
    missed = E - TURNS * len(covered)
    return {
        "baseline_messages": {
            "requests": 2 * E,
            "interventions": E,
            "responses": 2 * E,
            "invalidations": E - 1,
            "acks": E - 1,
            "forwards": 0,
            "useless_forwards": 0,
        },
        "forwarding_messages": {
            "requests": E + missed,
            "interventions": missed,
            "responses": E + missed,
            "invalidations": E - 1,
            "acks": E - 1,
            "forwards": TURNS * len(covered),
            "useless_forwards": useless,
        },
        "baseline_latency": writes + closes + reads,
        "forwarding_latency": writes
        + closes
        + reads
        - hidden
        + TURNS * sum(forward_latency(d, a, prediction(a)) for a in CYCLE),
        "messages_saved": 2 * TURNS * len(covered),
        "latency_hidden": hidden,
        "quad": (
            TURNS * len(covered),
            useless,
            missed,
            E * NODES - TURNS * len(covered) - useless - missed,
        ),
    }


MIGRATORY_PREDICTIONS = {
    "perfect": lambda a: {after(a)},
    "empty": lambda a: set(),
    "all": lambda a: set(ALL_NODES - {a}),
}


def check(report, expected):
    assert dict(report.baseline_messages) == expected["baseline_messages"]
    assert dict(report.forwarding_messages) == expected["forwarding_messages"]
    assert report.baseline_latency == expected["baseline_latency"]
    assert report.forwarding_latency == expected["forwarding_latency"]
    assert report.messages_saved == expected["messages_saved"]
    assert report.useless_forwards == expected["forwarding_messages"]["useless_forwards"]
    assert report.latency_hidden == expected["latency_hidden"]
    counts = report.counts()
    assert (
        counts.true_positive,
        counts.false_positive,
        counts.false_negative,
        counts.true_negative,
    ) == expected["quad"]


@pytest.mark.parametrize("topology", sorted(DISTANCE))
def test_hand_distances_match_the_topology(topology):
    built = make_topology(topology, NODES)
    d = DISTANCE[topology]
    assert all(
        built.hops(a, b) == d(a, b) for a in range(NODES) for b in range(NODES)
    )


def test_traces_carry_their_pattern():
    for readers in ((2, 3), (0, 2)):
        assert census(producer_consumer_trace(readers)).blocks == {
            SharingPattern.PRODUCER_CONSUMER: 1
        }
    assert census(migratory_trace()).blocks == {SharingPattern.MIGRATORY: 1}


@pytest.mark.parametrize("topology", sorted(DISTANCE))
@pytest.mark.parametrize("prediction", ["perfect", "empty", "all"])
@pytest.mark.parametrize(
    "readers", [(2, 3), (0, 2)], ids=["remote-readers", "home-reads"]
)
def test_producer_consumer_ledger(topology, prediction, readers):
    pushed = {
        "perfect": frozenset(readers),
        "empty": frozenset(),
        "all": ALL_NODES - {PRODUCER},
    }[prediction]
    trace = producer_consumer_trace(readers)
    # the all-nodes prediction includes the writer's bit, which is dropped
    raw = bitmap(ALL_NODES) if prediction == "all" else bitmap(pushed)
    report = replay_traffic(
        trace, [raw] * len(trace), topology=topology, model=MODEL
    )
    check(report, producer_consumer_expected(DISTANCE[topology], readers, pushed))


@pytest.mark.parametrize("topology", sorted(DISTANCE))
@pytest.mark.parametrize("prediction", sorted(MIGRATORY_PREDICTIONS))
def test_migratory_ledger(topology, prediction):
    predict = MIGRATORY_PREDICTIONS[prediction]
    trace = migratory_trace()
    writers = [CYCLE[k % 3] for k in range(EPOCHS)]
    report = replay_traffic(
        trace,
        [bitmap(predict(writer)) for writer in writers],
        topology=topology,
        model=MODEL,
    )
    check(report, migratory_expected(DISTANCE[topology], predict))
