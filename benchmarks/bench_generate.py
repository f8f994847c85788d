"""Cold trace-generation benchmark: the seed-0 suite, regenerated from scratch.

Each repeat points a fresh :class:`TraceSet` at an empty cache directory and
asks it for every benchmark's trace, so every trace is generated (workload
generators, scheduler, protocol simulation) and stored with its stats
sidecar, exactly as a cold ``repro-bench`` run does.  Per benchmark it
records:

* ``generate_s``: :func:`~repro.harness.runner.generate_trace` alone (the
  ``cache.trace.generate_seconds`` timer);
* ``cold_s``: the whole cache miss, generation plus storing the pair;

and reports each as median, IQR and samples, with the median's accesses per
second.  Before any number is written, every regenerated trace and sidecar
is compared with the committed seed-0 pair under ``data/traces``
(``stream_fingerprint`` and the sidecar's JSON); a difference fails the run,
so the artifact can never describe a speedup bought with a semantics change.
Emits ``BENCH_generate.json``::

    PYTHONPATH=src python benchmarks/bench_generate.py [--out PATH]

There is no time floor: generation speed depends on the host, so the JSON
records the host next to the numbers.
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


def cold_round(committed: TraceSet):
    """Generate the suite into an empty cache; compare it with ``committed``.

    Returns ``{benchmark: (generate_s, cold_s, accesses)}`` and the names
    whose trace or sidecar differs from the committed pair.
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
            summary = json.loads(fresh._stats_path(name).read_text())
            expected = json.loads(committed._stats_path(name).read_text())
            reference = load_trace(committed._cache_path(name))
            if summary != expected or stream_fingerprint(trace) != stream_fingerprint(
                reference
            ):
                mismatches.append(name)
            timings[name] = (generate_s, cold_s, summary["accesses"])
    return timings, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_generate.json", help="artifact path (JSON)"
    )
    args = parser.parse_args(argv)

    committed = TraceSet(seed=0, cache_dir=DATA_TRACES)
    rounds = []
    for repeat in range(REPEATS):
        timings, mismatches = cold_round(committed)
        if mismatches:
            print(
                f"FAIL: regenerated {', '.join(mismatches)} differ from the "
                f"committed seed-0 traces",
                file=sys.stderr,
            )
            return 1
        rounds.append(timings)
        total = sum(generate_s for generate_s, _, _ in timings.values())
        print(f"round {repeat + 1}/{REPEATS}: suite generate_s {total:.2f}")

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
    report = {
        "benchmark": "cold-suite-generation",
        "seed": 0,
        "repeats": REPEATS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "suite": {
            "accesses": accesses,
            "generate_s": suite_generate,
            "cold_s": summarize(
                [sum(entry[1] for entry in timings.values()) for timings in rounds]
            ),
            "accesses_per_s": round(accesses / suite_generate["median"]),
        },
        "benchmarks": benchmarks,
        "traces_identical": True,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"suite generate_s median {suite_generate['median']:.2f} s "
        f"(IQR {suite_generate['iqr']:.2f}), "
        f"{report['suite']['accesses_per_s']:,} accesses/s; "
        f"all traces equal the committed seed-0 suite; wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
