"""Uniform integer quantization (Eq. 2/3 of the paper).

Supports per-tensor and per-axis granularity (``keep_axes``) in both
symmetric and asymmetric forms.  This is the workhorse behind the KIVI-like
baseline and the "uniform quantization struggles with outliers" motivation
study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.validation import require


@dataclass
class UniformQuantParams:
    """Scale/zero-point metadata for a uniformly quantized tensor."""

    scale: np.ndarray
    zero_point: np.ndarray
    nbits: int
    symmetric: bool
    shape: tuple[int, ...]

    def metadata_bytes(self, bytes_per_value: float = 2.0) -> float:
        """Footprint of the scales and zero points (fp16 accounting)."""
        count = self.scale.size + (0 if self.symmetric else self.zero_point.size)
        return float(count * bytes_per_value)


@dataclass
class UniformQuantized:
    """Quantized codes plus the parameters needed to de-quantize them."""

    codes: np.ndarray
    params: UniformQuantParams

    def dequantize(self) -> np.ndarray:
        return dequantize_uniform(self.codes, self.params)

    def memory_bytes(self, metadata_bytes_per_value: float = 2.0) -> float:
        code_bits = self.codes.size * self.params.nbits
        return code_bits / 8.0 + self.params.metadata_bytes(metadata_bytes_per_value)


def _reduction_axes(ndim: int, keep_axes: Optional[Sequence[int]]) -> tuple[int, ...]:
    if keep_axes is None:
        return tuple(range(ndim))
    keep = {a % ndim for a in keep_axes}
    return tuple(a for a in range(ndim) if a not in keep)


def quantize_uniform(
    x: np.ndarray,
    nbits: int,
    symmetric: bool = False,
    keep_axes: Optional[Sequence[int]] = None,
) -> UniformQuantized:
    """Quantize ``x`` to ``nbits`` with one (scale, zero) per kept-axis slice.

    ``keep_axes=None`` gives per-tensor parameters; ``keep_axes=(1,)`` on a
    ``(tokens, channels)`` tensor gives per-channel parameters, and
    ``keep_axes=(0,)`` gives per-token parameters.
    """
    require(1 <= nbits <= 16, f"nbits must be in [1, 16], got {nbits}")
    x = np.asarray(x, dtype=np.float32)
    reduce_axes = _reduction_axes(x.ndim, keep_axes)
    if symmetric:
        qmax = float(2 ** (nbits - 1) - 1)
        max_abs = np.max(np.abs(x), axis=reduce_axes, keepdims=True) if reduce_axes else np.abs(x)
        scale = np.maximum(max_abs, 1e-12) / max(qmax, 1.0)
        zero = np.zeros_like(scale)
        codes = np.clip(np.rint(x / scale), -qmax - 1, qmax).astype(np.int32)
    else:
        levels = float(2**nbits - 1)
        x_min = np.min(x, axis=reduce_axes, keepdims=True) if reduce_axes else x
        x_max = np.max(x, axis=reduce_axes, keepdims=True) if reduce_axes else x
        scale = np.maximum(x_max - x_min, 1e-12) / levels
        zero = np.rint(-x_min / scale)
        codes = np.clip(np.rint(x / scale + zero), 0, levels).astype(np.int32)
    params = UniformQuantParams(
        scale=scale.astype(np.float32),
        zero_point=zero.astype(np.float32),
        nbits=nbits,
        symmetric=symmetric,
        shape=x.shape,
    )
    return UniformQuantized(codes=codes, params=params)


def dequantize_uniform(codes: np.ndarray, params: UniformQuantParams) -> np.ndarray:
    """Inverse of :func:`quantize_uniform` (Eq. 3)."""
    codes = np.asarray(codes, dtype=np.float32)
    if params.symmetric:
        return (codes * params.scale).astype(np.float32)
    return ((codes - params.zero_point) * params.scale).astype(np.float32)
