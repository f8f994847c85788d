"""Planner speedup benchmark: shared passes vs per-scheme evaluation.

Builds a 64-scheme sweep slice confined to 8 index groups -- the shape the
planner is designed for -- and times the same batch twice:

* **per-scheme**: the pre-planner path, one ``evaluate_scheme_fast`` call
  per scheme (keys, dense ids and a one-member group pass every time);
* **planned**: one ``evaluate_plan`` over a :class:`SweepPlan` (keys once
  per index group, one group pass per (index group, update mode, trace)
  running every member).

The two result sets are asserted bit-identical before any number is
reported, so the emitted JSON can never describe a speedup bought with a
semantics change.  Emits ``BENCH_planner.json`` (the CI artifact) and, by
default, fails if the planned path is not at least 2x faster::

    PYTHONPATH=src python benchmarks/bench_planner.py [--out PATH] [--no-strict]

Not a pytest file on purpose: wall-clock ratios belong in an artifact a
human (or the perf trajectory) reads, not in a test that flakes under CI
load.  The bit-identicality half *is* separately pinned by fast tests
(``tests/core/test_plan.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import repro.core.plan as plan_module
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import parse_scheme
from repro.core.vectorized import evaluate_scheme_fast
from repro.harness.runner import TraceSet
from repro.telemetry import Telemetry, set_telemetry

#: 8 index groups x (2 functions x 2 depths x 2 update modes) = 64 schemes
SPECS = ("pid", "pc8", "add8", "pid+pc4", "pid+add6", "dir+add6", "pc4+add4", "dir")
FUNCTIONS = ("union", "inter")
DEPTHS = (2, 4)
MODES = ("direct", "forwarded")

MIN_SPEEDUP = 2.0
REPEATS = 3


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

    # count the planner's key computations (one per trace x index group)
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
        # from (one trace pass per (index group, update mode, trace))
        "key_computations": len(key_computations) // REPEATS,
        "trace_passes": sink.counters.get("plan.trace_passes", 0) // REPEATS,
        "per_scheme_trace_passes": len(schemes) * len(traces),
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
