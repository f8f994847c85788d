"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` sets the workload up, repeats its timed round until
``--seconds`` have passed (at least once), checks every output and prints
the end-to-end metrics, with times in reference-host seconds (see
``hostclock.py``).  ``--trace 1`` runs one untraced and one traced
round instead, prints the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``.perfbench/spans/``.  The last line of standard
output is always the JSON result object.  ``manifest.json`` beside this
file records why each workload exists, its load shape, and the output
digests expected at the default seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from core import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    WORK,
    BenchmarkError,
    RunContext,
    load_manifest,
    require_program,
)

#: the tracing-coverage tolerance: layer self times plus harness.other_s
#: must reproduce the traced wall time to within this share of it
COVERAGE_TOLERANCE = 0.02


#: workload name -> (module, class) implementing it
WORKLOADS = {
    "paper-cold": ("paper_cold", "PaperCold"),
    "served-mix": ("served_mix", "ServedMix"),
    "rtrace-stream": ("rtrace_stream", "RtraceStream"),
}


def _workload(name: str):
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def _units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run(args) -> dict:
    require_program()
    from tracing import Patches

    manifest = load_manifest()
    cls = _workload(args.workload)
    tiny = args.scale == "tiny"
    ctx = RunContext(f"{args.workload}-{args.seed}")
    workload = None
    tamper = Patches()
    try:
        workload = cls(ctx, args.seed, tiny)
        if args.tamper:
            workload.tamper(tamper)
        setup_s = workload.setup()
        if args.trace:
            metrics, problems = _traced(workload, args)
        else:
            metrics, problems = _untraced(workload, args, setup_s)
        expected = None
        if args.seed == DEFAULT_SEED and not tiny:
            expected = manifest["workloads"][args.workload]["expected_digests"]
        workload.verify(expected)
        for name, (value, unit) in workload.extra_metrics().items():
            print(f"metric {name} {value:.6g} {unit}")
    finally:
        tamper.remove()
        if workload is not None:
            workload.close()
        changed = ctx.protected_changes()
        ctx.close()
    if changed:
        problems.append(f"run modified committed files: {changed[:5]}")
    tally = workload.tally
    failures = tally.failures
    first_round = sorted(op for op in tally.digests if op.startswith("0/"))
    for op in first_round:
        print(f"op {op} {tally.digests[op]}")
    print(f"kernel {workload.kernel}")
    print(f"digest {tally.run_digest(first_round)}")
    print(f"metric failed_frac {len(failures) / max(1, tally.attempted):.6g} ratio")
    for op, reason in sorted(failures.items()):
        print(f"FAIL {op}: {reason}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return {
        "correct": not failures and not problems,
        "attempted": tally.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _untraced(workload, args, setup_s: float) -> tuple:
    started = time.perf_counter()
    workload.run_round(0)
    # peak memory through set-up and the first round: later rounds add jobs
    # to a long-lived server, so a faster machine fitting more rounds into
    # --seconds would otherwise read as more memory
    peak_rss_mb = workload.peak_rss_mb()
    index = 1
    while time.perf_counter() - started < args.seconds:
        workload.run_round(index)
        index += 1
    units = _units("end_to_end")
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(workload.walls),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"rounds {len(workload.walls)}, reference-host s: "
          + " ".join(f"{w:.3f}" for w in workload.walls))
    print("host s " + " ".join(f"{w:.3f}" for w in workload.raw_walls))
    print("cpu s " + " ".join(f"{c:.3f}" for c in workload.cpus))
    clock = workload.ctx.clock
    print(f"host speed {clock.speed():.4f} of the reference host ({clock.count()} probes)")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, []


def _traced(workload, args) -> tuple:
    from repro.telemetry import Telemetry, set_telemetry
    from tracing import Recorder, install_program_wrappers

    problems = []
    untraced_wall = workload.run_round(0)
    recorder = Recorder()
    if workload.in_process:
        telemetry = Telemetry()
        patches = install_program_wrappers(recorder)
        if patches.missing:
            print("not traced (absent from the program): " + ", ".join(patches.missing))
        previous = set_telemetry(telemetry)
        try:
            with recorder.span("round", None):
                wall = workload.run_round(1, recorder)
        finally:
            set_telemetry(previous)
            patches.remove()
        leftovers = patches.leftovers()
        if leftovers:
            problems.append(f"wrappers left installed: {leftovers}")
    else:
        telemetry = None
        wall = workload.run_round(1, recorder)
    values = workload.layer_metrics(recorder, telemetry, wall)
    values["harness.tracing_overhead_pct"] = 100.0 * (wall / untraced_wall - 1.0)
    other = values["harness.other_s"]
    if other < -COVERAGE_TOLERANCE * wall:
        problems.append(
            f"layer self times exceed the traced wall time by {-other:.3f}s "
            f"(tolerance {COVERAGE_TOLERANCE:.0%})"
        )
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
    recorder.write_chrome(spans, pid=1)
    print(f"spans {spans.relative_to(ROOT)} ({len(recorder.spans)} spans)")
    units = _units("per_layer")
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchmarkError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    # a layer the workload never reaches did no work: its metrics read 0
    return {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the self-test's knobs: a tiny input scale, and a deliberately broken
    # program whose wrong outputs the checks must catch
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
