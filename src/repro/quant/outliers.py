"""Outlier detection and sparse full-precision storage.

KVQuant's headline trick (and Table III's ablation) keeps the top ~1 % of
KV entries in a sparse full-precision side table and quantizes the clamped
remainder.  MILLION's claim is that product quantization makes this machinery
unnecessary; the benchmark for Table III uses this module for both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require


@dataclass
class SparseOutliers:
    """Coordinates and original values of isolated outliers."""

    indices: np.ndarray  # (nnz, ndim) integer coordinates
    values: np.ndarray  # (nnz,) original full-precision values
    shape: tuple[int, ...]

    @property
    def count(self) -> int:
        return int(self.values.size)

    def restore(self, dense: np.ndarray) -> np.ndarray:
        """Write the full-precision outlier values back into ``dense`` (copy)."""
        if dense.shape != self.shape:
            raise ValueError(
                f"dense shape {dense.shape} does not match outlier shape {self.shape}"
            )
        restored = np.array(dense, dtype=np.float32, copy=True)
        if self.count:
            restored[tuple(self.indices.T)] = self.values
        return restored

    def memory_bytes(self, value_bytes: float = 2.0, index_bytes: float = 4.0) -> float:
        """Sparse storage footprint (fp16 values + int32 flat index per entry)."""
        return float(self.count * (value_bytes + index_bytes))


def outlier_threshold(x: np.ndarray, fraction: float) -> float:
    """Magnitude threshold above which the top ``fraction`` of entries fall."""
    require(0.0 <= fraction <= 1.0, f"fraction must be in [0, 1], got {fraction}")
    x = np.asarray(x)
    if fraction == 0.0 or x.size == 0:
        return float("inf")
    magnitude = np.abs(x).reshape(-1)
    k = max(1, int(round(fraction * magnitude.size)))
    return float(np.partition(magnitude, -k)[-k])


def split_outliers(x: np.ndarray, fraction: float) -> tuple[np.ndarray, SparseOutliers]:
    """Split ``x`` into (clamped dense part, sparse outliers).

    The densified part has outlier positions clamped to the threshold (keeping
    their sign) so the remaining distribution is narrow enough for low-bit
    quantization; the sparse part stores the original values for restoration.
    """
    x = np.asarray(x, dtype=np.float32)
    threshold = outlier_threshold(x, fraction)
    if not np.isfinite(threshold):
        empty = SparseOutliers(
            indices=np.zeros((0, x.ndim), dtype=np.int64),
            values=np.zeros(0, dtype=np.float32),
            shape=x.shape,
        )
        return x.copy(), empty
    mask = np.abs(x) >= threshold
    indices = np.argwhere(mask)
    values = x[mask].astype(np.float32)
    clamped = np.clip(x, -threshold, threshold).astype(np.float32)
    return clamped, SparseOutliers(indices=indices, values=values, shape=x.shape)
