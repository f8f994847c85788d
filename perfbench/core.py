"""Shared plumbing for the benchmark workloads.

Everything here is benchmark-side: locating the program's sources in the
checkout, isolating each run's caches in a private directory, tallying
operations and their failures, summary statistics, output digests and
peak-RSS probes.  The program itself is only ever reached through its
public entry points, from the workload modules.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from hostclock import HostClock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: every file a run writes lives under here (git-ignored)
WORK = ROOT / ".perfbench"

#: committed directories a run must leave exactly as it found them
PROTECTED = ("data/traces", "data/results", "data/checkpoints", "runs")

#: the seed the expected digests and committed results belong to
DEFAULT_SEED = 0


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"program sources not found at {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_manifest() -> dict:
    with open(Path(__file__).with_name("manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------


def _snapshot(root: Path) -> Dict[str, tuple]:
    files: Dict[str, tuple] = {}
    for name in PROTECTED:
        base = root / name
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file():
                stat = path.stat()
                files[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return files


class RunContext:
    """One run's private directories and environment.

    Every cache the program would otherwise write into the checkout
    (``REPRO_CACHE_DIR``, ``REPRO_CHECKPOINT_DIR``, the service state
    directory, temporary files) points into a fresh directory under
    :data:`WORK`, which :meth:`close` deletes.  The compiled-kernel cache is
    shared by every run in the checkout, so only the first run compiles.
    ``clock`` scales the run's times to reference-host seconds.
    """

    def __init__(self, label: str):
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        self.kernel_cache = WORK / "kernel"
        self.kernel_cache.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK / "runs"))
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir()
        self.clock = HostClock(self.dir / "hostclock.txt")
        self._before = _snapshot(ROOT)
        os.environ["REPRO_KERNEL_CACHE"] = str(self.kernel_cache)
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = str(self.tmp)
        self._count = 0

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        path = self.dir / f"{self._count:03d}-{label}"
        path.mkdir()
        return path

    def program_env(self, **extra: str) -> dict:
        """Environment for a program subprocess started from this run."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.update(extra)
        return env

    def protected_changes(self) -> List[str]:
        after = _snapshot(ROOT)
        changed = [
            path for path in sorted(set(self._before) | set(after))
            if self._before.get(path) != after.get(path)
        ]
        return changed

    def close(self) -> None:
        self.clock.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_subprocess(command: Sequence[str], env: dict, timeout: float) -> tuple:
    """Run a program subprocess to completion; ``(seconds, stdout)``."""
    started = time.perf_counter()
    completed = subprocess.run(
        list(command),
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(command[:4])} ... exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return elapsed, completed.stdout


def import_probe(ctx: RunContext, modules: Iterable[str]) -> float:
    """Seconds for a fresh interpreter to import ``modules`` and load the kernel.

    This is the import-and-warm part of set-up, measured in a new process
    so that it is not hidden by modules this process already holds.
    """
    code = (
        "import importlib\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "from repro.core.kernel_backends import active_kernel_name\n"
        "print(active_kernel_name())\n"
    )
    seconds, _ = timed_subprocess([sys.executable, "-c", code], ctx.program_env(), 120)
    return seconds


def check_kernel(name: str, tally: "Tally") -> None:
    """Fail every operation if a C compiler is present but ``name`` is not native."""
    try:
        from repro.core.kernel_native import _COMPILERS as compilers
    except ImportError:
        compilers = ("cc", "gcc", "clang")
    if name != "native" and any(shutil.which(compiler) for compiler in compilers):
        for op in tally.ops:
            tally.fail(op, f"a C compiler is present but the {name!r} kernel ran")


def double_true_positives(original):
    """A deliberately wrong scorer: twice the true positives."""

    def score_predictions(*args, **kwargs):
        tp, fp, fn, tn = original(*args, **kwargs)
        return 2 * tp, fp, fn, tn

    return score_predictions


# ----------------------------------------------------------------------
# Operations and their outcomes
# ----------------------------------------------------------------------


def digest(payload) -> str:
    """A 16-hex-digit content hash of a JSON-serialisable value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Tally:
    """Operations attempted, and which of them failed and why.

    An operation is one experiment, one served job or one streamed scheme.
    It fails when it raises, times out, or its output differs from a
    reference; a later check can still fail an operation that ran cleanly.
    """

    def __init__(self) -> None:
        self.ops: Dict[str, Optional[str]] = {}
        self.digests: Dict[str, str] = {}

    def record(self, op: str, output=None, error: Optional[str] = None) -> None:
        self.ops[op] = error
        if output is not None:
            self.digests[op] = digest(output)

    def fail(self, op: str, reason: str) -> None:
        if self.ops.get(op) is None:
            self.ops[op] = reason

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> Dict[str, str]:
        return {op: reason for op, reason in self.ops.items() if reason is not None}

    def run_digest(self, ops: Iterable[str]) -> str:
        """One digest over the named operations' output digests."""
        return digest([[name, self.digests.get(name)] for name in sorted(ops)])

    def check_expected(self, expected: Dict[str, str]) -> None:
        """Fail every operation whose digest differs from the expected one."""
        for op, want in expected.items():
            got = self.digests.get(op)
            if got is None:
                self.fail(op, "expected operation did not run")
            elif got != want:
                self.fail(op, f"digest {got} != expected {want}")


# ----------------------------------------------------------------------
# Statistics and resources
# ----------------------------------------------------------------------

#: percentiles a latency summary may report, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def latency_summary(samples: Sequence[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    summary = {"n": len(values), "p50": statistics.median(values) if values else 0.0}
    for percentile in _PERCENTILES:
        beyond = len(values) * (100.0 - percentile) / 100.0
        if beyond >= 10:
            index = min(len(values) - 1, int(round(percentile / 100.0 * (len(values) - 1))))
            summary[f"p{percentile:g}"] = values[index]
            break
    return summary


def self_peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's finished children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _proc_children(pid: int) -> List[int]:
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(part) for part in text.split())
    return children


def descendants(pid: int) -> List[int]:
    """``pid`` and its live descendants."""
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        if current in found or not Path(f"/proc/{current}").exists():
            continue
        found.append(current)
        pending.extend(_proc_children(current))
    return found


def process_tree_cpu_s(pid: int) -> float:
    """User plus system CPU seconds used so far by ``pid`` and its live descendants."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for current in descendants(pid):
        try:
            stat = Path(f"/proc/{current}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (``VmHWM``) over ``pid`` and its live descendants, MiB."""
    total_kib = 0
    for current in descendants(pid):
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
    return total_kib / 1024.0
