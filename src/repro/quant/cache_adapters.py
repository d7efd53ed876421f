"""KIVI-like and KVQuant-like KV caches.

Both are :class:`~repro.models.kv_cache.DequantizingKVCache` schemes: each
flushed block is quantized, its reconstruction ``(K̂, V̂)`` is recorded once,
and attention is the streaming cache's one routine
(:meth:`~repro.models.kv_cache.StreamingQuantizedKVCache.attend`) over those
rows plus the full-precision pending window.  Only ``_quantize_and_store``
and the footprint accounting are scheme-specific here.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import ModelConfig
from repro.models.kv_cache import DequantizingKVCache, KVCacheLayer
from repro.quant.kivi import KiviConfig, KiviQuantizer
from repro.quant.kvquant import KVQuantEncodedBlock, KVQuantQuantizer
from repro.utils.validation import require


class KiviKVCache(DequantizingKVCache):
    """KIVI-like cache: per-channel keys, per-token values, grouped flushing."""

    def __init__(self, config: ModelConfig, kivi_config: KiviConfig | None = None) -> None:
        kivi_config = kivi_config or KiviConfig()
        super().__init__(
            config,
            residual_window=kivi_config.residual_length,
            flush_block_multiple=kivi_config.group_size,
        )
        self.quantizer = KiviQuantizer(kivi_config)
        self._key_blocks: list = []
        self._value_blocks: list = []

    def _flatten(self, block: np.ndarray) -> np.ndarray:
        return block.reshape(block.shape[0], -1)

    def _unflatten(self, block: np.ndarray) -> np.ndarray:
        return block.reshape(block.shape[0], self.config.kv_heads, self.config.head_dim)

    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        key_block = self.quantizer.quantize_keys(self._flatten(keys))
        value_block = self.quantizer.quantize_values(self._flatten(values))
        self._key_blocks.append(key_block)
        self._value_blocks.append(value_block)
        self._store_dequantized(
            self._unflatten(key_block.dequantize()),
            self._unflatten(value_block.dequantize()),
        )

    def quantized_memory_bytes(self) -> float:
        return float(
            sum(b.memory_bytes() for b in self._key_blocks)
            + sum(b.memory_bytes() for b in self._value_blocks)
        )

    def reset(self) -> None:
        super().reset()
        self._key_blocks.clear()
        self._value_blocks.clear()


class KVQuantKVCache(DequantizingKVCache):
    """KVQuant-like cache: calibrated non-uniform quantization, optional outliers."""

    def __init__(
        self,
        config: ModelConfig,
        quantizer: KVQuantQuantizer,
        residual_window: int = 0,
    ) -> None:
        super().__init__(config, residual_window=residual_window)
        require(quantizer.is_fitted, "KVQuantKVCache requires a fitted quantizer")
        self.quantizer = quantizer
        self._key_blocks: list[KVQuantEncodedBlock] = []
        self._value_blocks: list[KVQuantEncodedBlock] = []

    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        key_block = self.quantizer.encode_keys(keys.reshape(keys.shape[0], -1))
        value_block = self.quantizer.encode_values(values.reshape(values.shape[0], -1))
        self._key_blocks.append(key_block)
        self._value_blocks.append(value_block)
        shape = (-1, self.config.kv_heads, self.config.head_dim)
        self._store_dequantized(
            self.quantizer.decode_keys(key_block).reshape(shape),
            self.quantizer.decode_values(value_block).reshape(shape),
        )

    def quantized_memory_bytes(self) -> float:
        blocks = sum(b.memory_bytes() for b in self._key_blocks) + sum(
            b.memory_bytes() for b in self._value_blocks
        )
        return float(blocks + self.quantizer.codebook_bytes())

    def reset(self) -> None:
        super().reset()
        self._key_blocks.clear()
        self._value_blocks.clear()


class KiviCacheFactory:
    """Creates one :class:`KiviKVCache` per layer."""

    def __init__(self, kivi_config: KiviConfig | None = None) -> None:
        self.kivi_config = kivi_config or KiviConfig()

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        return KiviKVCache(config, self.kivi_config)


class KVQuantCacheFactory:
    """Creates :class:`KVQuantKVCache` layers from per-layer fitted quantizers."""

    def __init__(
        self,
        quantizers: dict[int, KVQuantQuantizer],
        residual_window: int = 0,
    ) -> None:
        require(len(quantizers) > 0, "quantizers mapping must not be empty")
        self.quantizers = dict(quantizers)
        self.residual_window = residual_window

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        if layer_index not in self.quantizers:
            raise KeyError(f"no fitted KVQuant quantizer for layer {layer_index}")
        return KVQuantKVCache(
            config, self.quantizers[layer_index], residual_window=self.residual_window
        )
