"""Self-test of the benchmark itself, at tiny scale.

Runs every workload on tiny inputs (two small benchmarks, a few schemes, a
few thousand events) and checks that

* every end-to-end metric, and in a traced run every per-layer metric,
  prints with its unit;
* the output digest is the same across two runs;
* a deliberately wrong program output (``--tamper``) raises failed_frac
  above 0, and an untampered run reports none.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cold", "served-mix", "rtrace-stream")


def _run(workload: str, *extra: str) -> tuple:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--scale", "tiny", *extra]
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                               timeout=600)
    if completed.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {completed.returncode}:\n"
                             f"{completed.stderr[-3000:]}")
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def _check_metrics(result: dict, expected: list, label: str) -> None:
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(entry["name"] for entry in expected), (
        f"{label}: metrics {sorted(metrics)}"
    )
    for entry in expected:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"], f"{label}: {entry['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {entry['name']} value"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        try:
            first, digest_a = _run(workload, "--trace", "0")
            second, digest_b = _run(workload, "--trace", "0")
            _check_metrics(first, spec["end_to_end"], f"{workload} --trace 0")
            assert first["correct"] and first["failed"] == 0, f"{workload}: {first}"
            assert digest_a == digest_b, f"{workload}: digest {digest_a} != {digest_b}"
            traced, digest_c = _run(workload, "--trace", "1")
            _check_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
            assert traced["correct"], f"{workload} traced: {traced}"
            assert digest_c == digest_a, f"{workload}: traced digest {digest_c} != {digest_a}"
            tampered, _ = _run(workload, "--trace", "0", "--tamper")
            assert tampered["failed"] > 0 and not tampered["correct"], (
                f"{workload}: a wrong output went unnoticed: {tampered}"
            )
            print(f"ok   {workload}: digest {digest_a}, tampered run failed "
                  f"{tampered['failed']}/{tampered['attempted']}")
        except AssertionError as error:
            problems.append(str(error))
            print(f"FAIL {workload}: {error}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
