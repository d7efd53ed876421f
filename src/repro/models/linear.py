"""Minimal parameterised layers (linear projection and embedding lookup)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.tensor_ops import paired_rows_matmul


class Linear:
    """Dense projection ``y = x @ weight + bias``.

    ``weight`` has shape ``(in_features, out_features)`` so activations are
    row-major, matching the rest of the library.
    """

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        weight = np.asarray(weight, dtype=np.float32)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape != (weight.shape[1],):
                raise ValueError(
                    f"bias shape {bias.shape} does not match out_features {weight.shape[1]}"
                )
        self.weight = weight
        self.bias = bias

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: np.ndarray, paired: bool = False) -> np.ndarray:
        """Project ``x``; with ``paired=True`` use the row-invariant kernel.

        Decode-path projections must produce the same bits whether a step
        processes one sequence's row or a stacked batch of rows (the fused
        engine runs both against each other), so they go through
        :func:`paired_rows_matmul` which pins every BLAS call to a fixed
        two-row shape.  Prefill keeps the plain full-size GEMM.
        """
        x = np.asarray(x, dtype=np.float32)
        out = paired_rows_matmul(x, self.weight) if paired else x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def num_parameters(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)


class Embedding:
    """Token (or position) embedding lookup table."""

    def __init__(self, weight: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=np.float32)
        if weight.ndim != 2:
            raise ValueError(f"embedding weight must be 2-D, got shape {weight.shape}")
        self.weight = weight

    @property
    def num_embeddings(self) -> int:
        return self.weight.shape[0]

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"indices must be in [0, {self.num_embeddings}), "
                f"got range [{indices.min()}, {indices.max()}]"
            )
        return self.weight[indices]

    def num_parameters(self) -> int:
        return self.weight.size
