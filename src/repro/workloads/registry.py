"""Workload registry: the paper's benchmark suite by name (Table 3)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.workloads.base import Workload
from repro.workloads.barnes import BarnesWorkload
from repro.workloads.em3d import Em3dWorkload
from repro.workloads.gauss import GaussWorkload
from repro.workloads.mp3d import Mp3dWorkload
from repro.workloads.ocean import OceanWorkload
from repro.workloads.unstruct import UnstructWorkload
from repro.workloads.water import WaterWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine import MachineSpec

_WORKLOADS: Dict[str, Type[Workload]] = {
    "barnes": BarnesWorkload,
    "em3d": Em3dWorkload,
    "gauss": GaussWorkload,
    "mp3d": Mp3dWorkload,
    "ocean": OceanWorkload,
    "unstruct": UnstructWorkload,
    "water": WaterWorkload,
}

#: Benchmark names in the order the paper's tables list them.
BENCHMARK_NAMES: List[str] = sorted(_WORKLOADS)


def make_workload(
    name: str,
    num_nodes: int = 16,
    seed: int = 0,
    machine: Optional["MachineSpec"] = None,
    **params,
) -> Workload:
    """Instantiate a benchmark model by its paper name."""
    if name not in _WORKLOADS:
        raise ValueError(f"unknown benchmark {name!r}; known: {BENCHMARK_NAMES}")
    return _WORKLOADS[name](num_nodes=num_nodes, seed=seed, machine=machine, **params)


def default_workloads(
    num_nodes: int = 16,
    seed: int = 0,
    machine: Optional["MachineSpec"] = None,
) -> List[Workload]:
    """The full suite at default scale, in table order."""
    return [
        make_workload(name, num_nodes=num_nodes, seed=seed, machine=machine)
        for name in BENCHMARK_NAMES
    ]
