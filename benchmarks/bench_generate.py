"""Cold trace-generation benchmark: the seed-0 suite, regenerated from scratch.

Each repeat points a fresh :class:`TraceSet` at an empty cache directory and
asks it for every benchmark's trace, so every trace is generated (workload
generators, scheduler, protocol simulation) and stored with its stats
sidecar, exactly as a cold ``repro-bench`` run does.  A repeat does this
twice:

* one benchmark at a time (``TraceSet.trace``), which always runs in this
  process.  Per benchmark it records ``generate_s``,
  :func:`~repro.harness.runner.generate_trace` alone (the
  ``cache.trace.generate_seconds`` timer), and ``cold_s``, the whole cache
  miss, generation plus storing the pair;
* the whole suite through ``TraceSet.traces()``, which generates the
  missing traces in this process and up to (usable CPUs - 1) spawned
  workers.  It records ``traces_s``, the call's wall time, and
  ``traces_generate_s``, ``cache.trace.generate_seconds`` summed over the
  processes that generated.

Each figure is reported as median, IQR and samples, with the median's
accesses per second, and the host's usable CPUs.  Before any number is
written, every regenerated trace and sidecar, from both kinds of round, is
compared with the committed seed-0 pair under ``data/traces``
(``stream_fingerprint`` and the sidecar's JSON); a difference fails the
run, so the artifact can never describe a speedup bought with a semantics
change.  Emits ``BENCH_generate.json``::

    PYTHONPATH=src python benchmarks/bench_generate.py [--out PATH]

There is no time floor: generation speed depends on the host, and the
suite call's on its CPU count, so the JSON records the host next to the
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.runner import TraceSet
from repro.telemetry import Telemetry, set_telemetry
from repro.trace.io import load_trace
from repro.trace.source import stream_fingerprint
from repro.util import usable_cpus

DATA_TRACES = Path(__file__).resolve().parents[1] / "data" / "traces"

#: cold rounds over the suite
REPEATS = 5


def summarize(samples):
    """Median, interquartile range and the raw samples, in seconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(median, 4),
        "iqr": round(q3 - q1, 4),
        "samples": [round(sample, 4) for sample in samples],
    }


def _differs(fresh: TraceSet, committed: TraceSet, name: str, trace) -> bool:
    """Whether ``fresh``'s trace or sidecar for ``name`` differs from the committed pair."""
    summary = json.loads(fresh._stats_path(name).read_text())
    expected = json.loads(committed._stats_path(name).read_text())
    reference = load_trace(committed._cache_path(name))
    return summary != expected or stream_fingerprint(trace) != stream_fingerprint(
        reference
    )


def cold_round(committed: TraceSet):
    """Generate the suite one trace at a time into an empty cache.

    Returns ``{benchmark: (generate_s, cold_s, accesses)}`` and the names
    whose trace or sidecar differs from ``committed``.
    """
    timings = {}
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="bench-generate-") as tmp:
        fresh = TraceSet(seed=committed.seed, cache_dir=Path(tmp))
        for name in fresh.benchmarks:
            telemetry = Telemetry()
            previous = set_telemetry(telemetry)
            try:
                started = time.perf_counter()
                trace = fresh.trace(name)
                cold_s = time.perf_counter() - started
            finally:
                set_telemetry(previous)
            assert telemetry.counters["cache.trace.regenerations"] == 1, name
            generate_s = telemetry.timers["cache.trace.generate_seconds"][0]
            if _differs(fresh, committed, name, trace):
                mismatches.append(name)
            accesses = json.loads(fresh._stats_path(name).read_text())["accesses"]
            timings[name] = (generate_s, cold_s, accesses)
    return timings, mismatches


def suite_round(committed: TraceSet):
    """Generate the suite through ``traces()`` into an empty cache.

    Returns the call's wall seconds, ``cache.trace.generate_seconds`` summed
    over every process that generated, and the names whose trace or
    sidecar differs from ``committed``.
    """
    with tempfile.TemporaryDirectory(prefix="bench-generate-") as tmp:
        fresh = TraceSet(seed=committed.seed, cache_dir=Path(tmp))
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            started = time.perf_counter()
            traces = fresh.traces()
            suite_s = time.perf_counter() - started
        finally:
            set_telemetry(previous)
        assert telemetry.counters["cache.trace.regenerations"] == len(traces)
        mismatches = [
            name
            for name, trace in zip(fresh.benchmarks, traces)
            if _differs(fresh, committed, name, trace)
        ]
    return suite_s, telemetry.timers["cache.trace.generate_seconds"][0], mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_generate.json", help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)

    committed = TraceSet(seed=0, cache_dir=DATA_TRACES)
    rounds = []
    suite_samples = []
    summed_samples = []
    for repeat in range(REPEATS):
        timings, mismatches = cold_round(committed)
        suite_s, summed_s, suite_mismatches = suite_round(committed)
        mismatches += suite_mismatches
        if mismatches:
            print(
                f"FAIL: regenerated {', '.join(mismatches)} differ from the "
                f"committed seed-0 traces",
                file=sys.stderr,
            )
            return 1
        rounds.append(timings)
        suite_samples.append(suite_s)
        summed_samples.append(summed_s)
        total = sum(generate_s for generate_s, _, _ in timings.values())
        print(
            f"round {repeat + 1}/{REPEATS}: suite generate_s {total:.2f}, "
            f"traces() {suite_s:.2f} s"
        )

    benchmarks = {}
    for name in committed.benchmarks:
        generate = summarize([timings[name][0] for timings in rounds])
        accesses = rounds[0][name][2]
        benchmarks[name] = {
            "accesses": accesses,
            "generate_s": generate,
            "cold_s": summarize([timings[name][1] for timings in rounds]),
            "accesses_per_s": round(accesses / generate["median"]),
        }
    suite_generate = summarize(
        [sum(entry[0] for entry in timings.values()) for timings in rounds]
    )
    accesses = sum(entry["accesses"] for entry in benchmarks.values())
    suite_traces = summarize(suite_samples)
    report = {
        "benchmark": "cold-suite-generation",
        "seed": 0,
        "repeats": REPEATS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            "python": platform.python_version(),
        },
        "suite": {
            "accesses": accesses,
            "generate_s": suite_generate,
            "cold_s": summarize(
                [sum(entry[1] for entry in timings.values()) for timings in rounds]
            ),
            "accesses_per_s": round(accesses / suite_generate["median"]),
            "traces_s": suite_traces,
            "traces_generate_s": summarize(summed_samples),
            "traces_accesses_per_s": round(accesses / suite_traces["median"]),
        },
        "benchmarks": benchmarks,
        "traces_identical": True,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"suite generate_s median {suite_generate['median']:.2f} s "
        f"(IQR {suite_generate['iqr']:.2f}), "
        f"{report['suite']['accesses_per_s']:,} accesses/s; traces() median "
        f"{suite_traces['median']:.2f} s (IQR {suite_traces['iqr']:.2f}) on "
        f"{usable_cpus()} usable CPUs; all traces equal the committed seed-0 "
        f"suite; wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
