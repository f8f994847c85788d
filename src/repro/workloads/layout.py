"""Shared-memory layout for workload models.

A :class:`MemoryLayout` is a bump allocator handing out line-aligned
:class:`SharedArray` regions.  Element size is explicit so that workloads
control false sharing the way real data structures do: 8-byte values pack
eight to a 64-byte line (em3d values), 32-byte records pack two (mp3d
cells), 64-byte records get a line to themselves (barnes bodies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class SharedArray:
    """A named contiguous region of ``count`` fixed-size elements."""

    name: str
    base: int
    count: int
    element_bytes: int

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"{self.name}[{index}] out of range (count={self.count})")
        return self.base + index * self.element_bytes

    def addr_range(self, start: int, stop: int) -> range:
        """Byte addresses of elements ``start`` up to (not including) ``stop``.

        Bounds are checked once for the whole run, so hot loops can walk a
        row without a per-element :meth:`addr` call.
        """
        if not 0 <= start <= stop <= self.count:
            raise IndexError(
                f"{self.name}[{start}:{stop}] out of range (count={self.count})"
            )
        size = self.element_bytes
        return range(self.base + start * size, self.base + stop * size, size)

    @property
    def nbytes(self) -> int:
        return self.count * self.element_bytes

    def block_span(self, line_size: int) -> int:
        """Number of cache lines the array occupies."""
        end = self.base + self.nbytes
        return (end + line_size - 1) // line_size - self.base // line_size


class MemoryLayout:
    """Line-aligned bump allocator over a flat byte address space."""

    def __init__(self, line_size: int = 64):
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        self.line_size = line_size
        self._next = line_size  # keep address 0 unused; eases debugging
        self._arrays: Dict[str, SharedArray] = {}

    def array(self, name: str, count: int, element_bytes: int) -> SharedArray:
        """Allocate a new line-aligned array; names must be unique."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        if count < 1 or element_bytes < 1:
            raise ValueError(
                f"array {name!r}: count and element_bytes must be positive "
                f"(got {count}, {element_bytes})"
            )
        base = self._next
        allocated = SharedArray(name=name, base=base, count=count, element_bytes=element_bytes)
        size = allocated.nbytes
        aligned = (size + self.line_size - 1) // self.line_size * self.line_size
        self._next = base + aligned
        self._arrays[name] = allocated
        return allocated

    def get(self, name: str) -> SharedArray:
        return self._arrays[name]

    @property
    def total_bytes(self) -> int:
        """Bytes allocated so far (line-aligned)."""
        return self._next - self.line_size
