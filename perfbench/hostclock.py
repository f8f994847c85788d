"""Host-speed calibration: times reported in reference-host seconds.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth and more between phases lasting seconds to minutes, for the program
and for any fixed loop alike.  So while a run measures, a small monitor
process beside it times a fixed probe of its own twenty times a second:
an array half (a scattered gather and a sort) and an interpreter half (a
dictionary loop), about two milliseconds of CPU, timed in CPU time so that
waiting for a core does not count.  Each measured time is then divided by
the probe's median slowness during that measurement, its time against the
reference host's: the result is the time the work would have taken on the
reference host.  The probe is benchmark code, so a change to the program
moves the scaled times one for one, while the host's speed phases move
probe and program together and largely cancel.

Run as a script, this module is the monitor::

    python3 perfbench/hostclock.py <samples-file>

It appends ``<perf_counter> <array CPU s> <interpreter CPU s>`` lines to
the file until it is terminated or its parent exits.  ``time.perf_counter``
reads the system-wide monotonic clock on Linux, so the monitor's
timestamps and the benchmark's share one time base.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: the probe halves' median CPU times on the reference host (2 vCPUs)
ARRAY_REFERENCE_S = 0.0013
INTERP_REFERENCE_S = 0.0009

#: seconds between the monitor's probes
INTERVAL_S = 0.05

#: fewest probes a scale factor is taken from
MIN_SAMPLES = 5

#: elements the array half gathers and sorts; steps of the interpreter half
_ARRAY = 50_000
_STEPS = 5_000


def _monitor(path: str) -> None:
    import numpy as np

    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 1 << 20, size=_ARRAY, dtype=np.int64)
    index = rng.integers(0, _ARRAY, size=_ARRAY, dtype=np.int64)
    parent = os.getppid()
    with open(path, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            stamp = time.perf_counter()
            started = time.thread_time()
            total = int(np.sort(keys[index])[::97].sum())
            middle = time.thread_time()
            table: dict = {}
            for step in range(_STEPS):
                key = (step * 2654435761) & 255
                table[key] = table.get(key, 0) + step
            total ^= len(table)
            out.write(f"{stamp:.6f} {middle - started:.9f} "
                      f"{time.thread_time() - middle:.9f}\n")
            out.flush()
            time.sleep(INTERVAL_S)


class HostClock:
    """The monitor process of one run, and time scaling from its probes."""

    def __init__(self, path: Path):
        self.path = path
        self.path.write_text("", encoding="ascii")
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        try:
            self._wait_past(time.perf_counter(), timeout=30.0)
        except BaseException:
            self.close()
            raise

    def _samples(self) -> List[Tuple[float, float]]:
        """``(stamp, slowness)`` per probe: 1.0 on the reference host.

        Array and interpreter work slow down by different amounts when the
        host is busy, and the workloads mix both, so a probe's slowness is
        the geometric mean of its two halves' against their references.
        """
        samples = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            parts = line.split()
            if len(parts) == 3:  # a line being written is skipped
                array, interp = float(parts[1]), float(parts[2])
                slowness = math.sqrt(array / ARRAY_REFERENCE_S * interp / INTERP_REFERENCE_S)
                samples.append((float(parts[0]), slowness))
        return samples

    def _wait_past(self, moment: float, timeout: float = 10.0) -> List[Tuple[float, float]]:
        deadline = time.perf_counter() + timeout
        while True:
            samples = self._samples()
            if samples and samples[-1][0] > moment:
                return samples
            if self._process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the host-speed monitor stopped probing")
            time.sleep(INTERVAL_S / 2)

    def slowness(self, start: float, end: float) -> float:
        """Median probe slowness between two ``perf_counter`` readings.

        A short interval borrows the probes nearest to it, up to
        :data:`MIN_SAMPLES`.
        """
        samples = self._wait_past(end)
        inside = [value for stamp, value in samples if start <= stamp <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [value for _, value in nearest[:MIN_SAMPLES]]
        return statistics.median(inside)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, in reference-host seconds."""
        return seconds / self.slowness(start, end)

    def measure(self, work: Callable[[], T]) -> Tuple[T, float]:
        """``work()``'s result and its time in reference-host seconds."""
        started = time.perf_counter()
        result = work()
        ended = time.perf_counter()
        return result, self.scale(ended - started, started, ended)

    def speed(self) -> float:
        """The host's speed over the run so far, relative to the reference host."""
        samples = self._samples()
        return 1.0 / statistics.median(value for _, value in samples) if samples else 1.0

    def count(self) -> int:
        return len(self._samples())

    def close(self) -> None:
        """Stop the monitor and wait until it has ended."""
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()


if __name__ == "__main__":
    _monitor(sys.argv[1])
