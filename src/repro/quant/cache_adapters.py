"""Streaming quantized KV caches.

Every quantized cache follows the paper's dataflow (Fig. 5): keys/values of
the most recent append stay in a full-precision *pending* block, an optional
*residual window* of recent tokens also stays full precision, and everything
older is quantized in blocks.  Attention concatenates the quantized-past
scores with the full-precision recent scores before a single softmax — which
is mathematically identical to the online-softmax merge of Eq. (7) (a test
asserts this) but simpler to express in NumPy.

:class:`StreamingQuantizedKVCache` implements the streaming/bookkeeping part
and leaves three hooks to subclasses:

* ``_quantize_and_store``: compress a flushed block,
* ``_quantized_scores``: attention logits of the queries against the stored
  (compressed) keys,
* ``_quantized_weighted_values``: probability-weighted sum over the stored
  (compressed) values.

:class:`DequantizingKVCache` is the convenience base for schemes that
materialise ``(K̂, V̂)`` (KIVI-like and KVQuant-like); MILLION's cache extends
the streaming base directly, answers decode from the codes and reconstructs
``(K̂, V̂)`` only transiently, for multi-query calls.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Optional

import numpy as np

from repro.models.attention_math import attention_scores, repeat_kv_heads
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer, fp16_kv_bytes
from repro.models.positional import alibi_bias
from repro.models.tensor_ops import softmax
from repro.quant.kivi import KiviConfig, KiviQuantizer
from repro.quant.kvquant import KVQuantEncodedBlock, KVQuantQuantizer
from repro.utils.validation import require


class StreamingQuantizedKVCache(KVCacheLayer):
    """Base class handling pending blocks, the residual window and attention."""

    def __init__(
        self,
        config: ModelConfig,
        residual_window: int = 0,
        flush_block_multiple: int = 1,
    ) -> None:
        super().__init__(config)
        require(residual_window >= 0, "residual_window must be >= 0")
        require(flush_block_multiple >= 1, "flush_block_multiple must be >= 1")
        # Local import: repro.core.__init__ pulls in calibration, which
        # imports this module — a top-level import would create a cycle.
        from repro.core.storage import PendingBuffer

        self.residual_window = residual_window
        self.flush_block_multiple = flush_block_multiple
        self._pending = PendingBuffer(config.kv_heads, config.head_dim)
        self._stored_tokens = 0

    # Streaming bookkeeping ------------------------------------------------

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        self._validate_append(keys, values)
        # Quantize whatever the residual window no longer protects *before*
        # adding the new block, mirroring the asynchronous quantization stream
        # that compresses older tokens while the new token is being processed.
        self._flush(keep=self.residual_window)
        self.append_pending(keys, values)

    def append_pending(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Stage new full-precision tokens *without* the pre-append flush.

        This is one half of :meth:`append`; the other half is the flush
        (:meth:`pop_flushable` + subclass storage + :meth:`account_flushed`).
        The fused batched decode path drives the halves separately so it can
        quantize the flushed rows of many sequences in one encoder call —
        the split changes who calls the encoder, not what is computed.
        """
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        self._validate_append(keys, values)
        self._pending.append(keys, values)
        self._seq_len += keys.shape[0]

    def pop_flushable(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the rows the next append-triggered flush would store.

        Callers that take rows out through this method own the rest of the
        flush protocol: compress and store the rows, then call
        :meth:`account_flushed` with the row count.
        """
        flushable = self._flushable(self.residual_window)
        if flushable == 0:
            empty = np.zeros(
                (0, self.config.kv_heads, self.config.head_dim), dtype=np.float32
            )
            return empty, empty.copy()
        return self._pending.pop_front(flushable)

    def account_flushed(self, n_tokens: int) -> None:
        """Record that ``n_tokens`` popped rows are now in compressed storage."""
        require(n_tokens >= 0, "n_tokens must be >= 0")
        self._stored_tokens += n_tokens

    def pending_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(keys, values)`` views of the pending full-precision rows."""
        return self._pending.keys_view(), self._pending.values_view()

    def flush_all(self) -> None:
        """Force-quantize every pending token (used by tests and calibration)."""
        self._flush(keep=0)

    @property
    def flush_state(self) -> tuple[int, int]:
        """``(stored_tokens, pending_tokens)`` — the cache's flush split.

        Two computations over the same tokens produce identical downstream
        KV only if they pass through the same sequence of flush states (a
        token's deeper-layer KV depends on which earlier tokens it attended
        to in quantized vs full-precision form).  Chunk-resumable protocols
        — the serving engine's chunked prefill, block-pool prefix adoption —
        therefore only resume at states the reference computation passed
        through; this property is how tests pin those states down.
        """
        return (self._stored_tokens, len(self._pending))

    def _pending_token_count(self) -> int:
        return len(self._pending)

    def _flushable(self, keep: int) -> int:
        """Rows a flush keeping ``keep`` pending tokens would quantize."""
        flushable = len(self._pending) - keep
        if self.flush_block_multiple > 1:
            flushable = (flushable // self.flush_block_multiple) * self.flush_block_multiple
        return max(flushable, 0)

    def flushable_rows(self) -> int:
        """Rows the next append-triggered flush would quantize.

        Lets a caller that allocates storage on flush boundaries (e.g. the
        serving block pool) predict the demand of the upcoming decode step
        *before* running it, so exhaustion can be handled by preempting a
        sequence instead of failing mid-forward.
        """
        return self._flushable(self.residual_window)

    def _absorb_stored_tokens(self, n_tokens: int) -> None:
        """Account for tokens whose compressed storage was installed externally.

        Used when already-quantized rows are adopted into the cache without
        going through :meth:`append` — e.g. shared prefix blocks from a block
        pool, where the quantized codes of an identical prompt prefix are
        reused instead of recomputed.  The caller is responsible for having
        installed the corresponding storage first.
        """
        require(n_tokens >= 0, "n_tokens must be >= 0")
        self._stored_tokens += n_tokens
        self._seq_len += n_tokens

    def _flush(self, keep: int) -> None:
        flushable = self._flushable(keep)
        if flushable == 0:
            return
        to_store_k, to_store_v = self._pending.pop_front(flushable)
        self._quantize_and_store(to_store_k, to_store_v)
        self._stored_tokens += flushable

    def reset(self) -> None:
        super().reset()
        self._pending.clear()
        self._stored_tokens = 0

    @property
    def stored_tokens(self) -> int:
        """Number of tokens currently held in compressed form."""
        return self._stored_tokens

    @property
    def pending_tokens(self) -> int:
        """Number of tokens currently held in full precision."""
        return self._pending_token_count()

    # Attention -------------------------------------------------------------

    def attend(
        self,
        queries: np.ndarray,
        query_positions: np.ndarray,
        scale: float,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float32)
        n_queries, n_heads, head_dim = queries.shape
        score_blocks: list[np.ndarray] = []
        stored = self._stored_tokens
        if stored > 0:
            stored_positions = np.arange(stored)
            stored_scores = self._quantized_scores(queries, scale)
            if alibi_head_slopes is not None:
                stored_scores = stored_scores + alibi_bias(
                    alibi_head_slopes, query_positions, stored_positions
                )
            score_blocks.append(stored_scores)
        # Zero-copy views into the contiguous pending buffer: a decode step
        # touches O(window) bytes here, not O(context).
        pending_keys = self._pending.keys_view()
        pending_values = self._pending.values_view()
        pending_positions = np.arange(stored, stored + pending_keys.shape[0])
        if pending_keys.shape[0] > 0:
            pending_scores = attention_scores(
                queries,
                pending_keys,
                query_positions,
                pending_positions,
                scale,
                alibi_head_slopes=alibi_head_slopes,
                causal=True,
            )
            score_blocks.append(pending_scores)
        if not score_blocks:
            raise RuntimeError("attend called on an empty cache")
        scores = np.concatenate(score_blocks, axis=-1)
        probs = softmax(scores, axis=-1)
        context = np.zeros((n_queries, n_heads, head_dim), dtype=np.float32)
        if stored > 0:
            context += self._quantized_weighted_values(probs[..., :stored])
        if pending_keys.shape[0] > 0:
            pending_probs = probs[..., stored:]
            expanded_values = repeat_kv_heads(pending_values, n_heads)
            context += np.einsum("hqk,khd->qhd", pending_probs, expanded_values).astype(
                np.float32
            )
        return context

    # Memory accounting -------------------------------------------------------

    def memory_bytes(self) -> float:
        pending_fp = fp16_kv_bytes(
            self._pending_token_count(), self.config.kv_heads, self.config.head_dim
        )
        return pending_fp + self.quantized_memory_bytes()

    # Hooks -------------------------------------------------------------------

    @abstractmethod
    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Compress and store a flushed ``(t, kv_heads, head_dim)`` block."""

    @abstractmethod
    def _quantized_scores(self, queries: np.ndarray, scale: float) -> np.ndarray:
        """Attention logits against stored tokens, shape ``(heads, nq, stored)``."""

    @abstractmethod
    def _quantized_weighted_values(self, probs: np.ndarray) -> np.ndarray:
        """Probability-weighted sum over stored values, shape ``(nq, heads, d)``."""

    @abstractmethod
    def quantized_memory_bytes(self) -> float:
        """Footprint of the compressed storage (codes + metadata + codebooks)."""


class DequantizingKVCache(StreamingQuantizedKVCache):
    """Base for schemes that materialise de-quantized keys/values for attention.

    Each flushed block's reconstruction is recorded once at quantization time
    via :meth:`_store_dequantized`; attention then reads contiguous zero-copy
    views instead of re-decoding and re-concatenating every stored block on
    every step.  Decoding a block is deterministic, so materialising eagerly
    is bit-identical to the former decode-at-attend behaviour.  The stores
    model the GPU-side working buffer and are excluded from the compressed
    footprint reported by ``quantized_memory_bytes``.
    """

    def __init__(
        self,
        config: ModelConfig,
        residual_window: int = 0,
        flush_block_multiple: int = 1,
    ) -> None:
        super().__init__(
            config,
            residual_window=residual_window,
            flush_block_multiple=flush_block_multiple,
        )
        from repro.core.storage import CodeStore  # local import avoids a cycle

        row_shape = (config.kv_heads, config.head_dim)
        self._dequant_keys = CodeStore(row_shape, np.float32)
        self._dequant_values = CodeStore(row_shape, np.float32)

    def _store_dequantized(self, keys_hat: np.ndarray, values_hat: np.ndarray) -> None:
        """Record a flushed block's ``(t, kv_heads, d)`` reconstruction."""
        self._dequant_keys.append(keys_hat)
        self._dequant_values.append(values_hat)

    def _quantized_scores(self, queries: np.ndarray, scale: float) -> np.ndarray:
        keys, _ = self._materialize_quantized()
        expanded = repeat_kv_heads(keys, queries.shape[1])
        return (np.einsum("qhd,khd->hqk", queries, expanded) * scale).astype(np.float32)

    def _quantized_weighted_values(self, probs: np.ndarray) -> np.ndarray:
        _, values = self._materialize_quantized()
        expanded = repeat_kv_heads(values, probs.shape[0])
        return np.einsum("hqk,khd->qhd", probs, expanded).astype(np.float32)

    def _materialize_quantized(self) -> tuple[np.ndarray, np.ndarray]:
        """De-quantized ``(keys, values)`` views of shape ``(stored, kv_heads, d)``."""
        # Fail fast if a subclass' _quantize_and_store forgot to record its
        # reconstruction — attending with fewer rows than _stored_tokens
        # would silently misattribute probabilities.
        require(
            len(self._dequant_keys) == self._stored_tokens,
            f"dequantized store holds {len(self._dequant_keys)} tokens but "
            f"{self._stored_tokens} are flushed; _quantize_and_store must call "
            "_store_dequantized for every block",
        )
        return self._dequant_keys.view(), self._dequant_values.view()

    def reset(self) -> None:
        super().reset()
        self._dequant_keys.clear()
        self._dequant_values.clear()

    def dequantization_error(self) -> dict[str, float]:
        """Diagnostics hook: subclasses may override to report reconstruction MSE."""
        return {}


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
