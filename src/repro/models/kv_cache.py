"""KV-cache abstractions.

Every cache scheme (full precision, KIVI-like, KVQuant-like, MILLION) is a
:class:`KVCacheLayer`.  The cache owns the attention computation over the
tokens it stores, which is what lets MILLION keep only PQ codes and
reconstruct ``(K̂, V̂)`` transiently inside each call, while simpler schemes
keep their materialised ``(K̂, V̂)`` and share :func:`dense_attention`.

The interface is *lazy*: keys/values appended by the most recent call stay in
a full-precision pending block until the next append, mirroring the paper's
dataflow where the current token's KV participates in attention at full
precision and is quantized asynchronously afterwards (Fig. 5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Protocol

import numpy as np

from repro.models.attention_math import dense_attention
from repro.models.config import ModelConfig

FP16_BYTES = 2.0


def fp16_kv_bytes(
    n_tokens: int,
    kv_heads: int,
    head_dim: int,
    bytes_per_value: float = FP16_BYTES,
) -> float:
    """Full-precision footprint of ``n_tokens`` key+value rows.

    The one shared accounting rule every cache adapter and the serving
    layer's reports derive from — keeping the "what would fp16 cost"
    baseline identical across schemes is what makes compression ratios and
    the Pareto bench's KV-bytes axis comparable.
    """
    return float(2 * n_tokens * kv_heads * head_dim * bytes_per_value)


class KVCacheLayer(ABC):
    """Per-layer key/value cache with scheme-specific attention."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self._seq_len = 0

    @property
    def seq_len(self) -> int:
        """Number of tokens whose KV pairs are currently cached."""
        return self._seq_len

    def full_precision_bytes(self) -> float:
        """What this cache's tokens would cost stored as fp16."""
        return fp16_kv_bytes(
            self.seq_len, self.config.kv_heads, self.config.head_dim
        )

    def compression_ratio(self) -> float:
        """Full-precision footprint divided by the actual footprint."""
        actual = self.memory_bytes()
        if actual <= 0:
            return 1.0
        return float(self.full_precision_bytes() / actual)

    @abstractmethod
    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add post-positional keys/values of shape ``(t, kv_heads, head_dim)``."""

    @abstractmethod
    def attend(
        self,
        queries: np.ndarray,
        query_positions: np.ndarray,
        scale: float,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Causal attention of ``queries`` over all cached tokens.

        ``queries`` has shape ``(n_queries, n_heads, head_dim)``; the result
        has the same shape.
        """

    @abstractmethod
    def memory_bytes(self) -> float:
        """Model the cache footprint in bytes (fp16 accounting for baselines)."""

    def reset(self) -> None:
        """Drop all cached tokens."""
        self._seq_len = 0

    def _validate_append(self, keys: np.ndarray, values: np.ndarray) -> None:
        expected = (self.config.kv_heads, self.config.head_dim)
        if keys.ndim != 3 or keys.shape[1:] != expected:
            raise ValueError(
                f"keys must have shape (t, {expected[0]}, {expected[1]}), got {keys.shape}"
            )
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}"
            )


class KVCacheFactory(Protocol):
    """Creates one :class:`KVCacheLayer` per transformer layer."""

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        """Build the cache for ``layer_index``."""
        ...


class FullPrecisionKVCacheLayer(KVCacheLayer):
    """Reference fp16-style cache: stores keys/values verbatim."""

    def __init__(self, config: ModelConfig, bytes_per_value: float = FP16_BYTES) -> None:
        super().__init__(config)
        self.bytes_per_value = bytes_per_value
        self._key_blocks: list[np.ndarray] = []
        self._value_blocks: list[np.ndarray] = []
        self._key_positions: list[np.ndarray] = []

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        self._validate_append(keys, values)
        positions = np.arange(self._seq_len, self._seq_len + keys.shape[0])
        self._key_blocks.append(keys)
        self._value_blocks.append(values)
        self._key_positions.append(positions)
        self._seq_len += keys.shape[0]

    def materialize_kv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(keys, values, positions)`` over all cached tokens."""
        if not self._key_blocks:
            shape = (0, self.config.kv_heads, self.config.head_dim)
            empty = np.zeros(shape, dtype=np.float32)
            return empty, empty.copy(), np.zeros(0, dtype=np.int64)
        keys = np.concatenate(self._key_blocks, axis=0)
        values = np.concatenate(self._value_blocks, axis=0)
        positions = np.concatenate(self._key_positions, axis=0)
        return keys, values, positions

    def attend(
        self,
        queries: np.ndarray,
        query_positions: np.ndarray,
        scale: float,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        keys, values, key_positions = self.materialize_kv()
        return dense_attention(
            queries,
            keys,
            values,
            query_positions,
            key_positions,
            scale,
            alibi_head_slopes=alibi_head_slopes,
        )

    def memory_bytes(self) -> float:
        return fp16_kv_bytes(
            self._seq_len,
            self.config.kv_heads,
            self.config.head_dim,
            bytes_per_value=self.bytes_per_value,
        )

    def reset(self) -> None:
        super().reset()
        self._key_blocks.clear()
        self._value_blocks.clear()
        self._key_positions.clear()


class FullPrecisionCacheFactory:
    """Factory producing :class:`FullPrecisionKVCacheLayer` for every layer."""

    def __init__(self, bytes_per_value: float = FP16_BYTES) -> None:
        self.bytes_per_value = bytes_per_value

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        return FullPrecisionKVCacheLayer(config, bytes_per_value=self.bytes_per_value)
