"""Kernel speedup benchmark: compiled backend vs the pure-Python oracle.

Builds the 64-scheme PAs slice of the design-space sweep -- the family
whose per-event loop costs the oracle the most Python-interpreter time
per event -- and runs it through both registered kernel backends' group
entry point: one ``group_stream`` per (index group, update mode, trace),
with keys computed once per (index group, trace), as
:func:`~repro.core.plan.evaluate_plan` runs a sweep:

* **python**: one :class:`~repro.core.kernel.PredictorKernel` per member
  driving :class:`~repro.core.twolevel.PAsFunction` entries, one
  interpreted iteration per event;
* **native**: :class:`~repro.core.kernel_native.NativeKernelBackend`, one
  compiled C call per group over dense int32 key/block ids, with the
  members sharing one history per entry as bit planes in the trace's word
  layout, each keeping its counters as a plane pair per history pattern,
  stepped and read a word and a non-empty history class at a time, and
  scored in the same loop.

A second measure times the resumable native stream: the same PAs slice
through :func:`~repro.core.plan.evaluate_plan` over a synthesized
100k-store imported trace, fed as default-size
(:data:`~repro.trace.source.DEFAULT_CHUNK_EVENTS`) chunks vs as one
chunk, interleaved over :data:`STREAM_REPEATS` repeats; the artifact
records each side's median and IQR and their median ratio.

A third measure times the native backend by machine width: one PAs +
gated group (:data:`WIDTH_MEMBERS`: PAs at depths 1, 2 and 4, ``cunion``
2 and ``cinter`` 2, one index spec) through the native group stream over
a synthesized trace at 16, 256 and 1,024 nodes, :data:`WIDTH_REPEATS`
repeats each (median and IQR), and records the per-event time at each
width and the ratio of the widest to the narrowest.  With no loop over
nodes the cost grows with the machine's 64-node words and its history
classes; per-node loops made it grow with the nodes.

Every confusion quad is asserted bit-identical (to the oracle's, or
between the streamed and one-chunk runs) before any number is reported,
so the emitted JSON can never describe a speedup bought with a semantics
change.  Emits ``BENCH_kernel.json`` (the CI artifact) and, by default,
fails if the compiled path is not at least 5x faster, if the streamed
run is more than 1.2x the one-chunk run, or if the per-event time at
1,024 nodes is more than 25x the time at 16 nodes::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--out PATH] [--no-strict]

On a machine with no compiler the native backend is unavailable; the
artifact records that and the floor is not enforced (there is nothing to
measure) -- CI runs this on a toolchain image, so the floor is real there.

Not a pytest file on purpose: wall-clock ratios belong in an artifact a
human (or the perf trajectory) reads, not in a test that flakes under CI
load.  The bit-identicality half *is* separately pinned by fast tests
(``tests/core/test_kernel_conformance.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.kernel_backends import get_kernel_backend, set_kernel_backend
from repro.core.plan import SweepPlan, evaluate_plan
from repro.core.schemes import parse_scheme
from repro.core.vectorized import compute_keys
from repro.harness.runner import TraceSet
from repro.trace.interchange import FileTraceSource, import_csv, synthesize_csv
from repro.trace.source import DEFAULT_CHUNK_EVENTS, ResidentTraceSource

#: 8 index groups x 4 history depths x 2 update modes = 64 PAs schemes
SPECS = ("pid", "pc8", "add8", "pid+pc4", "pid+add6", "dir+add6", "pc4+add4", "dir")
DEPTHS = (1, 2, 4, 6)
MODES = ("direct", "forwarded")

MIN_SPEEDUP = 5.0
REPEATS = 3

#: the streamed measure's trace: stores in the synthesized CSV (one event
#: each), its machine width and block count
STREAM_STORES = 100_000
STREAM_NODES = 16
STREAM_BLOCKS = 1024
STREAM_REPEATS = 7
#: streamed PAs must stay within this factor of the one-chunk run
MAX_STREAM_RATIO = 1.2

#: the width measure: one PAs + gated group on one index spec, per machine
#: width; stores per width's synthesized trace (the oracle's per-node loops
#: bound the wide ones)
WIDTH_MEMBERS = (
    "pas(pid+add4)1[direct]",
    "pas(pid+add4)2[direct]",
    "pas(pid+add4)4[direct]",
    "cunion(pid+add4)2[direct]",
    "cinter(pid+add4)2[direct]",
)
WIDTH_STORES = {16: 20_000, 256: 8_000, 1024: 4_000}
WIDTH_REPEATS = 9
#: the per-event time at 1,024 nodes may be at most this multiple of the
#: time at 16 nodes
MAX_WIDTH_RATIO = 25.0


def build_schemes():
    return [
        parse_scheme(f"pas({spec}){depth}[{mode}]")
        for spec in SPECS
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


def median_iqr(samples):
    """``(median, interquartile range)`` of a list of seconds."""
    first, median, third = statistics.quantiles(samples, n=4, method="inclusive")
    return median, third - first


def imported_trace(stores=STREAM_STORES, num_nodes=STREAM_NODES):
    """A synthesized access CSV imported as ``.rtrace``, then materialized."""
    with tempfile.TemporaryDirectory() as directory:
        csv_path = Path(directory) / "accesses.csv"
        rtrace_path = Path(directory) / "accesses.rtrace"
        synthesize_csv(
            csv_path, events=stores, num_nodes=num_nodes, blocks=STREAM_BLOCKS,
        )
        import_csv(csv_path, rtrace_path, num_nodes=num_nodes)
        return FileTraceSource(rtrace_path).materialize()


def width_measure(native, python):
    """Time one PAs + gated group through the native group stream at each
    machine width; every member's quad must equal the oracle's."""
    schemes = [parse_scheme(text) for text in WIDTH_MEMBERS]
    widths = {}
    identical = True
    for num_nodes, stores in WIDTH_STORES.items():
        trace = imported_trace(stores, num_nodes)
        keys = compute_keys(schemes[0].index, trace)
        samples = []
        for _ in range(WIDTH_REPEATS):
            stream = native.group_stream(schemes, num_nodes)
            started = time.perf_counter()
            quads = stream.evaluate(trace, keys, True)
            samples.append(time.perf_counter() - started)
        identical &= quads == [
            python.evaluate(scheme, trace, keys, True) for scheme in schemes
        ]
        median, iqr = median_iqr(samples)
        widths[str(num_nodes)] = {
            "events": len(trace),
            "median_seconds": round(median, 5),
            "iqr_seconds": round(iqr, 5),
            "ns_per_event": round(median / len(trace) * 1e9, 1),
        }
    low, high = min(WIDTH_STORES), max(WIDTH_STORES)
    ratio = widths[str(high)]["ns_per_event"] / widths[str(low)]["ns_per_event"]
    return {
        "members": list(WIDTH_MEMBERS),
        "repeats": WIDTH_REPEATS,
        "widths": widths,
        "ratio": round(ratio, 2),
        "max_ratio": MAX_WIDTH_RATIO,
        "results_identical": identical,
    }


def streamed_measure(schemes):
    """Time the native PAs slice chunked at the default size vs one chunk."""
    trace = imported_trace()
    chunked = ResidentTraceSource(trace, chunk_events=DEFAULT_CHUNK_EVENTS)
    plan = SweepPlan(schemes)
    samples = {"one_chunk": [], "streamed": []}
    results = {}
    previous = set_kernel_backend("native")
    try:
        for _ in range(STREAM_REPEATS):
            for label, source in (("one_chunk", trace), ("streamed", chunked)):
                started = time.perf_counter()
                results[label] = evaluate_plan(plan, [source])
                samples[label].append(time.perf_counter() - started)
    finally:
        set_kernel_backend(previous)
    one_median, one_iqr = median_iqr(samples["one_chunk"])
    streamed_median, streamed_iqr = median_iqr(samples["streamed"])
    return {
        "trace_events": len(trace),
        "chunk_events": DEFAULT_CHUNK_EVENTS,
        "num_chunks": len(list(chunked.chunks())),
        "repeats": STREAM_REPEATS,
        "one_chunk_median_seconds": round(one_median, 4),
        "one_chunk_iqr_seconds": round(one_iqr, 4),
        "streamed_median_seconds": round(streamed_median, 4),
        "streamed_iqr_seconds": round(streamed_iqr, 4),
        "ratio": round(streamed_median / one_median, 3),
        "max_ratio": MAX_STREAM_RATIO,
        "results_identical": results["streamed"] == results["one_chunk"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_kernel.json", help="artifact path (JSON)"
    )
    parser.add_argument(
        "--no-strict",
        action="store_true",
        help=f"report without enforcing the {MIN_SPEEDUP}x speedup floor, "
        f"the {MAX_STREAM_RATIO}x streamed ceiling and the {MAX_WIDTH_RATIO}x "
        "width ceiling",
    )
    args = parser.parse_args(argv)

    schemes = build_schemes()
    assert len(schemes) == 64, len(schemes)
    traces = TraceSet(benchmarks=["water", "em3d"]).traces()

    python = get_kernel_backend("python")
    native = get_kernel_backend("native")
    native_available = native.available()

    # keys are index-group shared state, not kernel work: compute once so
    # both backends time exactly the per-event loop plus scoring
    groups = {}
    for position, scheme in enumerate(schemes):
        groups.setdefault((scheme.index, scheme.update), []).append(position)
    key_streams = {
        spec: [compute_keys(spec, trace) for trace in traces]
        for spec, _ in groups
    }

    def sweep(backend):
        quads = [[None] * len(traces) for _ in schemes]
        for (spec, _), members in groups.items():
            for column, (trace, keys) in enumerate(zip(traces, key_streams[spec])):
                stream = backend.group_stream(
                    [schemes[position] for position in members], trace.num_nodes
                )
                for position, quad in zip(members, stream.evaluate(trace, keys, True)):
                    quads[position][column] = quad
        return quads

    python_seconds, baseline = best_of(REPEATS, lambda: sweep(python))

    artifact = {
        "benchmark": "kernel-native-vs-python",
        "num_schemes": len(schemes),
        "num_traces": len(traces),
        "total_events": sum(len(trace) for trace in traces),
        "python_seconds": round(python_seconds, 4),
        "min_speedup": MIN_SPEEDUP,
        "native_available": native_available,
    }

    if not native_available:
        artifact["speedup"] = None
        Path(args.out).write_text(
            json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
        )
        print(json.dumps(artifact, indent=2))
        print(
            "NOTE: native kernel backend unavailable (no compiler); "
            "nothing to enforce",
            file=sys.stderr,
        )
        return 0

    native_seconds, compiled = best_of(REPEATS, lambda: sweep(native))
    if compiled != baseline:
        print("FATAL: native results differ from python results", file=sys.stderr)
        return 2
    speedup = python_seconds / native_seconds
    streamed = streamed_measure(schemes)
    if not streamed["results_identical"]:
        print("FATAL: streamed results differ from one-chunk results", file=sys.stderr)
        return 2
    by_width = width_measure(native, python)
    if not by_width["results_identical"]:
        print("FATAL: native group quads differ from the oracle's", file=sys.stderr)
        return 2

    artifact.update(
        {
            "native_seconds": round(native_seconds, 4),
            "speedup": round(speedup, 2),
            "results_identical": True,
            "streamed_native": streamed,
            "native_by_width": by_width,
        }
    )
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(artifact, indent=2))

    if args.no_strict:
        return 0
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: kernel speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor",
            file=sys.stderr,
        )
        return 1
    if streamed["ratio"] > MAX_STREAM_RATIO:
        print(
            f"FAIL: streamed PAs at {streamed['ratio']:.2f}x the one-chunk run, "
            f"above the {MAX_STREAM_RATIO}x ceiling",
            file=sys.stderr,
        )
        return 1
    if by_width["ratio"] > MAX_WIDTH_RATIO:
        print(
            f"FAIL: a PAs + gated group costs {by_width['ratio']:.1f}x per event at "
            f"1,024 nodes what it costs at 16, above the {MAX_WIDTH_RATIO}x ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
