"""Traffic-replay benchmark: the forwarding ledger alone, over the seed-0 suite.

Predictions for the eight ``TRAFFIC_SCHEMES`` are computed once per trace,
outside the timed region.  Each round then replays every (scheme,
topology, trace) triple -- the four ``TOPOLOGY_SWEEP`` networks, the
default cost model -- through a fresh
:class:`~repro.forwarding.simulator.TrafficReplayState` fed the whole
trace and its precomputed predictions, and records the summed replay
seconds per topology.  It reports each topology's and the suite's total
as median, IQR and samples, with the median's events per second.

Before any number is written, every report of every round is checked:
its confusion quad must equal the one ``evaluate_batch`` gives for its
scheme and trace, and its ledger must satisfy ``total(forwarding) ==
total(baseline) - messages_saved + useless_forwards``.  A difference fails
the run.  Emits ``BENCH_traffic.json``::

    PYTHONPATH=src python benchmarks/bench_traffic.py [--out PATH]

There is no time floor: replay speed depends on the host, so the JSON
records the host next to the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core.schemes import parse_scheme
from repro.core.vectorized import predict_scheme_fast
from repro.engine import VectorizedEngine
from repro.forwarding.simulator import TrafficReplayState
from repro.forwarding.topology import make_topology
from repro.harness.experiments.traffic import TOPOLOGY_SWEEP, TRAFFIC_SCHEMES
from repro.harness.runner import TraceSet
from repro.metrics.traffic import TrafficModel

#: timed rounds over the suite
REPEATS = 5


def summarize(samples):
    """Median, interquartile range and the raw samples, in seconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(median, 4),
        "iqr": round(q3 - q1, 4),
        "samples": [round(sample, 4) for sample in samples],
    }


def replay_round(schemes, traces, predictions):
    """Replay every (scheme, topology, trace); returns seconds per topology
    and the reports, keyed ``(scheme index, topology, trace index)``."""
    seconds = {}
    reports = {}
    model = TrafficModel()
    for topology_name in TOPOLOGY_SWEEP:
        topologies = [make_topology(topology_name, trace.num_nodes) for trace in traces]
        elapsed = 0.0
        for index, scheme in enumerate(schemes):
            for position, trace in enumerate(traces):
                started = time.perf_counter()
                state = TrafficReplayState(trace.num_nodes, topologies[position], model)
                state.feed(trace, predictions[index][position])
                report = state.finish(scheme=scheme.full_name, trace_name=trace.name)
                elapsed += time.perf_counter() - started
                reports[index, topology_name, position] = report
        seconds[topology_name] = elapsed
    return seconds, reports


def mismatches(schemes, traces, reports, expected):
    """Reports whose quad differs from ``expected`` (``evaluate_batch``'s)
    or whose ledger breaks the message identity."""
    wrong = []
    for (index, topology, position), report in reports.items():
        identity = report.total_forwarding_messages == (
            report.total_baseline_messages
            - report.messages_saved
            + report.useless_forwards
        )
        if report.counts() != expected[index][position] or not identity:
            wrong.append(f"{schemes[index].full_name}/{topology}/{traces[position].name}")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_traffic.json", help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)

    trace_set = TraceSet(seed=0)
    traces = trace_set.traces()
    schemes = [parse_scheme(text) for text in TRAFFIC_SCHEMES]
    predictions = [[predict_scheme_fast(scheme, trace) for trace in traces] for scheme in schemes]
    events = sum(len(trace) for trace in traces) * len(schemes)
    expected = VectorizedEngine().evaluate_batch(schemes, traces, exclude_writer=True)

    rounds = []
    for repeat in range(REPEATS):
        seconds, reports = replay_round(schemes, traces, predictions)
        wrong = mismatches(schemes, traces, reports, expected)
        if wrong:
            print(
                f"FAIL: {len(wrong)} reports disagree with evaluate_batch or "
                f"break the ledger identity: {', '.join(wrong[:5])}",
                file=sys.stderr,
            )
            return 1
        rounds.append(seconds)
        print(f"round {repeat + 1}/{REPEATS}: replay_s {sum(seconds.values()):.3f}")

    topologies = {}
    for name in TOPOLOGY_SWEEP:
        replay = summarize([seconds[name] for seconds in rounds])
        topologies[name] = {
            "replay_s": replay,
            "events_per_s": round(events / replay["median"]),
        }
    total = summarize([sum(seconds.values()) for seconds in rounds])
    report = {
        "benchmark": "traffic-replay",
        "seed": 0,
        "repeats": REPEATS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "suite": {
            "traces": trace_set.benchmarks,
            "schemes": list(TRAFFIC_SCHEMES),
            "reports": len(schemes) * len(traces) * len(TOPOLOGY_SWEEP),
            "events": events * len(TOPOLOGY_SWEEP),
            "replay_s": total,
            "events_per_s": round(events * len(TOPOLOGY_SWEEP) / total["median"]),
        },
        "topologies": topologies,
        "reports_checked": True,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"replay_s median {total['median']:.3f} s (IQR {total['iqr']:.3f}), "
        f"{report['suite']['events_per_s']:,} events/s; every quad equals "
        f"evaluate_batch's and every ledger balances; wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
