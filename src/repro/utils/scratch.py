"""Reusable scratch buffers for per-step decode kernels.

The ADC attention kernels need several buffers per decode step (gather
indices kept between flushes, LUT gathers, packed probabilities, centroid
aggregates).  Allocating them anew every step makes the allocator the hot
path once the numpy calls themselves are fused; a :class:`ScratchArena`
keeps one growable buffer per logical name and hands out leading views, so
steady-state decoding performs no per-step allocations (a test asserts the
arena stops growing).
"""

from __future__ import annotations

import numpy as np


def _round_up_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class ScratchArena:
    """Named, growable scratch buffers handed out as leading views.

    ``get(name, shape, dtype)`` returns a C-contiguous view of the requested
    shape backed by a buffer that is only reallocated when the requested
    element count exceeds its capacity (growth is rounded to powers of two,
    so repeated steps with slowly growing contexts reallocate O(log n)
    times).  Contents are *not* zeroed — callers own initialisation.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self.grow_count = 0
        self.hit_count = 0
        # Free-form per-buffer annotations: kernels stash a content key here
        # (e.g. the shape parameters an index map was built from) so repeat
        # calls can skip refilling an unchanged buffer.
        self.memo: dict[str, object] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = int(np.prod(shape)) if shape else 1
        dtype = np.dtype(dtype)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            capacity = _round_up_pow2(size)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buffer
            self.grow_count += 1
        else:
            self.hit_count += 1
        return buffer[:size].reshape(shape)

    def zeros(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        out = self.get(name, shape, dtype)
        out[...] = 0
        return out

    def capacities(self) -> dict[str, int]:
        """Element capacity of every named buffer."""
        return {name: buffer.size for name, buffer in self._buffers.items()}

    @property
    def total_bytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def stats(self) -> dict:
        return {
            "buffers": len(self._buffers),
            "total_bytes": self.total_bytes,
            "grow_count": self.grow_count,
            "hit_count": self.hit_count,
        }


__all__ = ["ScratchArena"]
