"""Low-level utilities shared across the repro packages.

The submodules are deliberately tiny and dependency-free so that every other
layer (memory substrate, predictor core, harness) can build on them without
import cycles.
"""

import os

from repro.util.bitmaps import (
    POPCOUNT16,
    bitmap_from_nodes,
    bitmap_mask,
    format_bitmap,
    iter_set_bits,
    popcount,
)
from repro.util.rng import DeterministicRng


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (so ``taskset`` limits it), else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


__all__ = [
    "POPCOUNT16",
    "bitmap_from_nodes",
    "bitmap_mask",
    "format_bitmap",
    "iter_set_bits",
    "popcount",
    "DeterministicRng",
    "usable_cpus",
]
