"""Planner benchmark: shared passes vs per-scheme evaluation, and the
Tables 8-9 sweeps at suite scale.

Part one builds a 64-scheme sweep slice confined to 8 index groups -- the
shape the planner is designed for -- and times the same batch twice:

* **per-scheme**: the pre-planner path, one ``evaluate_scheme_fast`` call
  per scheme (keys, their numbering and a one-member group pass every
  time);
* **planned**: one ``evaluate_plan`` over a :class:`SweepPlan` (keys once
  per index group, one group pass per (index group, update mode, trace)
  running every member the partition memo cannot answer).

The two result sets are asserted bit-identical before any number is
reported, and the planned path must be at least 2x faster.

Part two is the ledger of the paper's Section 5.4 sweep: the direct and
forwarded Tables 8-9 sweeps (1,294 schemes each) over the committed seed-0
suite, each timed over :data:`SWEEP_ROUNDS` rounds (median and IQR),
with the group passes run and the members the partition memo answered
(``plan.trace_passes``, ``plan.partition_hits``).  Every row must equal
the committed ``data/results/sweep-<mode>-*.json`` row.

Emits ``BENCH_planner.json`` (the CI artifact) and exits non-zero on a
result mismatch or, by default, a speedup under the floor::

    PYTHONPATH=src python benchmarks/bench_planner.py [--out PATH] [--no-strict]

Not a pytest file on purpose: wall-clock ratios belong in an artifact a
human (or the perf trajectory) reads, not in a test that flakes under CI
load.  The bit-identicality half *is* separately pinned by fast tests
(``tests/core/test_plan.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import repro.core.plan as plan_module
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import parse_scheme
from repro.core.update import UpdateMode
from repro.core.vectorized import evaluate_scheme_fast
from repro.harness.experiments import scheme_row, screening_summary, sweep_schemes
from repro.harness.results import RESULT_SCHEMA
from repro.harness.runner import TraceSet
from repro.telemetry import Telemetry, set_telemetry

#: the committed results the sweep rows must equal
RESULTS_DIR = Path(__file__).resolve().parents[1] / "data" / "results"

#: the Tables 8-9 sweeps: direct (Tables 8, 10) and forwarded (9, 11)
SWEEP_MODES = (UpdateMode.DIRECT, UpdateMode.FORWARDED)

#: 8 index groups x (2 functions x 2 depths x 2 update modes) = 64 schemes
SPECS = ("pid", "pc8", "add8", "pid+pc4", "pid+add6", "dir+add6", "pc4+add4", "dir")
FUNCTIONS = ("union", "inter")
DEPTHS = (2, 4)
MODES = ("direct", "forwarded")

MIN_SPEEDUP = 2.0
REPEATS = 3
#: timed rounds per Tables 8-9 sweep
SWEEP_ROUNDS = 5


def build_schemes():
    return [
        parse_scheme(f"{function}({spec}){depth}[{mode}]")
        for spec in SPECS
        for function in FUNCTIONS
        for depth in DEPTHS
        for mode in MODES
    ]


def best_of(repeats, run):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def sweep_ledger(trace_set: TraceSet, traces, update: UpdateMode):
    """Time one Tables 8-9 sweep :data:`SWEEP_ROUNDS` times; returns its
    ledger entry and whether every row equals the committed one."""
    schemes = sweep_schemes(update, trace_set.num_nodes)
    samples = []
    for _ in range(SWEEP_ROUNDS):
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            started = time.perf_counter()
            counts = evaluate_plan(SweepPlan(schemes), traces)
            samples.append(time.perf_counter() - started)
        finally:
            set_telemetry(previous)
    rows = [
        scheme_row(scheme, screening_summary(per_trace), trace_set.num_nodes)
        for scheme, per_trace in zip(schemes, counts)
    ]
    committed_path = (
        RESULTS_DIR
        / f"sweep-{update.value}-{trace_set.fingerprint()}-v{RESULT_SCHEMA}.json"
    )
    committed = json.loads(committed_path.read_text(encoding="utf-8"))["rows"]
    quartiles = statistics.quantiles(samples, n=4)
    entry = {
        "schemes": len(schemes),
        "index_groups": SweepPlan(schemes).num_groups,
        "rounds": SWEEP_ROUNDS,
        "median_s": round(statistics.median(samples), 4),
        "iqr_s": round(quartiles[2] - quartiles[0], 4),
        "samples_s": [round(sample, 4) for sample in samples],
        # the last round's counters (every round runs the same passes)
        "member_evaluations": len(schemes) * len(traces),
        "trace_passes": sink.counters.get("plan.trace_passes", 0),
        "partition_hits": sink.counters.get("plan.partition_hits", 0),
        "rows_equal_committed": rows == committed,
        "committed": committed_path.name,
    }
    return entry, rows == committed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_planner.json", help="artifact path (JSON)"
    )
    parser.add_argument(
        "--no-strict",
        action="store_true",
        help=f"report the speedup without enforcing the {MIN_SPEEDUP}x floor",
    )
    args = parser.parse_args(argv)

    schemes = build_schemes()
    plan = SweepPlan(schemes)
    assert len(schemes) >= 64, len(schemes)
    assert plan.num_groups <= 8, plan.num_groups

    traces = TraceSet(benchmarks=["water", "em3d"]).traces()

    per_scheme_seconds, baseline = best_of(
        REPEATS,
        lambda: [
            [evaluate_scheme_fast(scheme, trace) for trace in traces]
            for scheme in schemes
        ],
    )

    # count the planner's key computations: one per trace x index group,
    # and one more for each candidate repeat the memo confirms
    key_computations = []
    compute_keys = plan_module.compute_keys

    def counted_keys(spec, chunk):
        key_computations.append(spec)
        return compute_keys(spec, chunk)

    sink = Telemetry()
    previous = set_telemetry(sink)
    plan_module.compute_keys = counted_keys
    try:
        planned_seconds, planned = best_of(
            REPEATS, lambda: evaluate_plan(SweepPlan(schemes), traces)
        )
    finally:
        plan_module.compute_keys = compute_keys
        set_telemetry(previous)

    if planned != baseline:
        print("FATAL: planned results differ from per-scheme results", file=sys.stderr)
        return 2
    speedup = per_scheme_seconds / planned_seconds

    suite = TraceSet()
    suite_traces = suite.traces()
    sweeps = {}
    for update in SWEEP_MODES:
        entry, equal = sweep_ledger(suite, suite_traces, update)
        sweeps[update.value] = entry
        if not equal:
            print(
                f"FATAL: the {update.value} sweep's rows differ from "
                f"{entry['committed']}",
                file=sys.stderr,
            )
            return 2

    artifact = {
        "benchmark": "planner-shared-passes",
        "num_schemes": len(schemes),
        "num_index_groups": plan.num_groups,
        "num_traces": len(traces),
        "total_events": sum(len(trace) for trace in traces),
        "per_scheme_seconds": round(per_scheme_seconds, 4),
        "planned_seconds": round(planned_seconds, 4),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "results_identical": True,
        # one timed repetition's telemetry: the sharing the speedup comes
        # from (at most one trace pass per (index group, update mode,
        # trace), none where the partition memo answers every member)
        "key_computations": len(key_computations) // REPEATS,
        "trace_passes": sink.counters.get("plan.trace_passes", 0) // REPEATS,
        "per_scheme_trace_passes": len(schemes) * len(traces),
        "partition_hits": sink.counters.get("plan.partition_hits", 0) // REPEATS,
        # the Tables 8-9 sweeps over the seed-0 suite, rows equal to the
        # committed results
        "suite_events": sum(len(trace) for trace in suite_traces),
        "sweeps": sweeps,
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(artifact, indent=2))

    if speedup < MIN_SPEEDUP and not args.no_strict:
        print(
            f"FAIL: planner speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
