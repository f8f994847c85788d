"""CI smoke harness for the distributed runner (``python -m tests.engine.distributed_smoke``).

An end-to-end drill of the multi-host contract against real processes:

1. start two local ``repro-worker`` subprocesses and run the eight
   canonical golden schemes on them by address (``hosts=``); assert the
   final JSON matches both the single-host run on forked local workers
   (``jobs=2``) and the frozen golden fixtures **bit for bit**;
2. repeat with one worker rigged to die (``os._exit(137)`` inside a
   chunk request) mid-sweep; assert its chunks were re-stolen
   (``engine.remote.resteals``), no serial fallback fired, and the final
   JSON is *still* identical to the local-worker run;
3. write the coordinator telemetry of both phases to ``--artifact-dir``
   for CI upload.

Exits non-zero (with a message) on any violated invariant.  The only
external dependency is a Python with ``repro`` importable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from tempfile import mkdtemp

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.core.schemes import parse_scheme  # noqa: E402
from repro.engine.parallel import ParallelEngine  # noqa: E402
from repro.harness.runner import TraceSet  # noqa: E402
from repro.telemetry import Telemetry, set_telemetry  # noqa: E402

from tests.engine.remote_harness import (  # noqa: E402
    EXIT_AFTER_ENV,
    spawn_worker,
    stop_workers,
)
from tests.golden import GOLDEN_SCHEMES, load_fixture  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def counts_to_json(batch) -> str:
    """Canonical JSON for a batch of per-scheme/per-trace confusion counts."""
    return json.dumps(
        [
            [
                [c.true_positive, c.false_positive, c.false_negative, c.true_negative]
                for c in per_trace
            ]
            for per_trace in batch
        ],
        sort_keys=True,
    )


def golden_json(trace_set: TraceSet) -> str:
    batches = []
    for scheme_text in GOLDEN_SCHEMES:
        fixture = load_fixture(scheme_text)
        check(
            fixture["trace_fingerprint"] == trace_set.fingerprint(),
            f"golden fixture {scheme_text} matches the trace suite fingerprint",
        )
        batches.append(
            [fixture["counts"][benchmark] for benchmark in trace_set.benchmarks]
        )
    return json.dumps(batches, sort_keys=True)


def run_over_sockets(hosts, schemes, traces) -> "tuple[str, Telemetry]":
    sink = Telemetry()
    previous = set_telemetry(sink)
    try:
        batch = ParallelEngine(hosts=hosts).evaluate_batch(schemes, traces)
    finally:
        set_telemetry(previous)
    return counts_to_json(batch), sink


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir", type=Path, default=Path("distributed-telemetry"),
        help="where to write coordinator telemetry JSON for CI upload",
    )
    args = parser.parse_args()
    workdir = Path(mkdtemp(prefix="repro-distributed-smoke-"))

    trace_set = TraceSet()
    traces = trace_set.traces()
    schemes = [parse_scheme(text) for text in GOLDEN_SCHEMES]

    # The single-host reference: two forked local workers.
    single_host = counts_to_json(
        ParallelEngine(jobs=2).evaluate_batch(schemes, traces)
    )
    frozen = golden_json(trace_set)
    check(single_host == frozen,
          "single-host local-worker sweep matches the golden fixtures")

    # ---- phase 1: healthy two-worker fleet ------------------------------
    procs = []
    try:
        w0, addr0 = spawn_worker(workdir, "smoke-w0")
        procs.append(w0)
        w1, addr1 = spawn_worker(workdir, "smoke-w1")
        procs.append(w1)
        healthy_json, healthy_sink = run_over_sockets(
            [addr0, addr1], schemes, traces
        )
    finally:
        stop_workers(procs)
    check(healthy_json == single_host,
          "two-host sweep bit-identical to the local-worker run")
    check(healthy_json == frozen,
          "two-host sweep bit-identical to golden fixtures")
    host_chunks = sum(
        value for key, value in healthy_sink.counters.items()
        if key.startswith("engine.remote.host.") and key.endswith(".chunks")
    )
    check(host_chunks >= 2, "both phases of work flowed through remote hosts")

    # ---- phase 2: one worker dies mid-sweep -----------------------------
    procs = []
    try:
        doomed, doomed_addr = spawn_worker(
            workdir, "smoke-doomed", env={EXIT_AFTER_ENV: "1"}
        )
        procs.append(doomed)
        steady, steady_addr = spawn_worker(workdir, "smoke-steady")
        procs.append(steady)
        faulted_json, faulted_sink = run_over_sockets(
            [doomed_addr, steady_addr], schemes, traces
        )
        check(doomed.wait(timeout=30) == 137,
              "doomed worker really died mid-sweep (exit 137 inside a chunk)")
    finally:
        stop_workers(procs)
    check(faulted_json == single_host,
          "post-death sweep still bit-identical to the local-worker run")
    check(faulted_json == frozen,
          "post-death sweep still bit-identical to golden fixtures")
    check(faulted_sink.counters.get("engine.remote.resteals", 0) >= 1,
          "dead worker's chunks were re-stolen")
    check(faulted_sink.counters.get("engine.remote.worker_deaths", 0) >= 1,
          "worker death was recorded")
    check("engine.parallel.fallbacks" not in faulted_sink.counters,
          "re-steal recovered everything without the serial fallback")

    args.artifact_dir.mkdir(parents=True, exist_ok=True)
    for name, sink in (("healthy", healthy_sink), ("faulted", faulted_sink)):
        path = args.artifact_dir / f"distributed-{name}.json"
        path.write_text(
            json.dumps(sink.to_json(), indent=2, sort_keys=True), encoding="utf-8"
        )
    print("distributed smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
