"""KV-cache abstractions and the one attention routine of the caches.

Every cache scheme (full precision, KIVI-like, KVQuant-like, MILLION) is a
:class:`KVCacheLayer` that owns the attention over the tokens it stores.
All four attend through :meth:`StreamingQuantizedKVCache.attend`, the
paper's dataflow (Fig. 5): keys/values of the most recent append stay in a
full-precision *pending* block, an optional *residual window* of recent
tokens also stays full precision, and everything older is stored in the
scheme's compressed form.  Attention scores the stored rows and the pending
rows, takes one softmax over both (Eq. (7)'s merge), and contracts each part
with the grouped GEMMs of :mod:`repro.models.attention_math`.

A scheme supplies three hooks:

* ``_quantize_and_store``: compress and store a flushed block,
* ``_stored_keys`` / ``_stored_values``: the stored rows as attention reads
  them, ``(stored, kv_heads, d)``.

:class:`DequantizingKVCache` keeps each flushed block's reconstruction in a
contiguous store, so its hooks return zero-copy views; KIVI and KVQuant
extend it, and :class:`FullPrecisionKVCacheLayer` is its identity store.
MILLION's cache keeps only the PQ codes and reconstructs ``(K̂, V̂)``
transiently in its hooks, per attention call
(:mod:`repro.core.million_cache`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.models.attention_math import attention_scores, gqa_context, gqa_scores
from repro.models.config import ModelConfig
from repro.models.positional import alibi_bias
from repro.models.tensor_ops import softmax
from repro.utils.validation import require

FP16_BYTES = 2.0


def fp16_kv_bytes(n_tokens: int, kv_heads: int, head_dim: int) -> float:
    """Full-precision footprint of ``n_tokens`` key+value rows.

    The one shared accounting rule every cache adapter and the serving
    layer's reports derive from — keeping the "what would fp16 cost"
    baseline identical across schemes is what makes compression ratios and
    the Pareto bench's KV-bytes axis comparable.
    """
    return float(2 * n_tokens * kv_heads * head_dim * FP16_BYTES)


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
        self._pending.append(keys, values)
        self._seq_len += keys.shape[0]

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

    def _flushable(self, keep: int, pending: Optional[int] = None) -> int:
        """Rows a flush keeping ``keep`` of ``pending`` (default: the
        current) pending tokens would quantize."""
        flushable = (len(self._pending) if pending is None else pending) - keep
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

    def attended_rows(self, appends: Sequence[tuple[int, bool]]) -> int:
        """Most stored rows an attend sees over ``appends``.

        ``appends`` are the ``(rows, seal)`` appends this cache takes next,
        in order, each followed by its attend; a sealed one then runs
        :meth:`flush_all`.  Lets a caller size one buffer for every
        reconstruction of a traversal before running it.
        """
        stored, pending = self.flush_state
        most = stored
        for rows, seal in appends:
            flushed = self._flushable(self.residual_window, pending)
            stored += flushed
            pending += rows - flushed
            most = max(most, stored)
            if seal:
                flushed = self._flushable(0, pending)
                stored += flushed
                pending -= flushed
        return most

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
        return len(self._pending)

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
            stored_scores = gqa_scores(queries, self._stored_keys(), scale)
            if alibi_head_slopes is not None:
                stored_scores = stored_scores + alibi_bias(
                    alibi_head_slopes, query_positions, np.arange(stored)
                )
            score_blocks.append(stored_scores)
        # Zero-copy views into the contiguous pending buffer: a decode step
        # touches O(window) bytes here, not O(context).
        pending_keys, pending_values = self.pending_views()
        pending_positions = np.arange(stored, stored + pending_keys.shape[0])
        if pending_keys.shape[0] > 0:
            # A decode query sits at the last pending position, so its causal
            # mask is all zeros; skipping the add leaves every score as is.
            pending_scores = attention_scores(
                queries,
                pending_keys,
                query_positions,
                pending_positions,
                scale,
                alibi_head_slopes=alibi_head_slopes,
                causal=bool(pending_positions[-1] > np.min(query_positions)),
            )
            score_blocks.append(pending_scores)
        if not score_blocks:
            raise RuntimeError("attend called on an empty cache")
        # A prefill sees only pending rows: skip copying its one score block.
        scores = (
            score_blocks[0] if len(score_blocks) == 1 else np.concatenate(score_blocks, axis=-1)
        )
        probs = softmax(scores, axis=-1)
        context = np.zeros((n_queries, n_heads, head_dim), dtype=np.float32)
        if stored > 0:
            context += gqa_context(probs[..., :stored], self._stored_values())
        if pending_keys.shape[0] > 0:
            context += gqa_context(probs[..., stored:], pending_values)
        return context

    # Memory accounting -------------------------------------------------------

    def memory_bytes(self) -> float:
        pending_fp = fp16_kv_bytes(
            len(self._pending), self.config.kv_heads, self.config.head_dim
        )
        return pending_fp + self.quantized_memory_bytes()

    # Hooks -------------------------------------------------------------------

    @abstractmethod
    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Compress and store a flushed ``(t, kv_heads, head_dim)`` block."""

    @abstractmethod
    def _stored_keys(self) -> np.ndarray:
        """The stored keys as attention reads them, ``(stored, kv_heads, d)``."""

    @abstractmethod
    def _stored_values(self) -> np.ndarray:
        """The stored values as attention reads them, ``(stored, kv_heads, d)``."""

    @abstractmethod
    def quantized_memory_bytes(self) -> float:
        """Footprint of the compressed storage (codes + metadata + codebooks)."""


class DequantizingKVCache(StreamingQuantizedKVCache):
    """Base for schemes that materialise de-quantized keys/values for attention.

    Each flushed block's reconstruction is recorded once at quantization time
    via :meth:`_store_dequantized`; attention then reads contiguous zero-copy
    views instead of re-decoding and re-concatenating every stored block on
    every step.  Decoding a block is deterministic, so materialising eagerly
    is bit-identical to decoding at attend time.  The stores model the
    GPU-side working buffer and are excluded from the compressed footprint
    reported by ``quantized_memory_bytes``.
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

    def _stored_keys(self) -> np.ndarray:
        # Fail fast if a subclass' _quantize_and_store forgot to record its
        # reconstruction — attending with fewer rows than _stored_tokens
        # would silently misattribute probabilities.
        require(
            len(self._dequant_keys) == self._stored_tokens,
            f"dequantized store holds {len(self._dequant_keys)} tokens but "
            f"{self._stored_tokens} are flushed; _quantize_and_store must call "
            "_store_dequantized for every block",
        )
        return self._dequant_keys.view()

    def _stored_values(self) -> np.ndarray:
        return self._dequant_values.view()

    def reset(self) -> None:
        super().reset()
        self._dequant_keys.clear()
        self._dequant_values.clear()


class FullPrecisionKVCacheLayer(DequantizingKVCache):
    """Reference fp16-style cache: the identity store.

    A flushed block is stored verbatim, so attention reads the exact keys and
    values it was given, through the same routine as every quantized cache.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__(config)

    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._store_dequantized(keys, values)

    def quantized_memory_bytes(self) -> float:
        return fp16_kv_bytes(
            self._stored_tokens, self.config.kv_heads, self.config.head_dim
        )


class FullPrecisionCacheFactory:
    """Factory producing :class:`FullPrecisionKVCacheLayer` for every layer."""

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        return FullPrecisionKVCacheLayer(config)
