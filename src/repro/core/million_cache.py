"""The MILLION KV cache: PQ-encoded past plus a full-precision recent window.

Single-query (decode) attention over the quantized past is computed entirely
from codes and lookup tables (:mod:`repro.core.attention_pq`), the
memory-bound case MILLION's LUT kernel is built for.  Multi-query (prefill)
calls are compute-bound: they reconstruct the stored keys and values once,
transiently, and run two batched GEMMs, as the paper runs prompt attention.
Either way the recent window and the current token stay full precision and
are merged through a single softmax, matching the decomposition of Eq. (7).
An optional sparse outlier correction is available purely for the Table III
sensitivity study — MILLION's point is that it is not needed.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.attention_pq import pq_attention_scores, pq_weighted_values
from repro.core.config import MillionConfig
from repro.core.pq import ProductQuantizer
from repro.core.storage import CodeStore
from repro.utils.bitpack import code_dtype
from repro.utils.scratch import ScratchArena
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer
from repro.quant.cache_adapters import StreamingQuantizedKVCache
from repro.quant.outliers import split_outliers
from repro.utils.validation import require


class _SparseCorrections:
    """COO storage of ``original - clamped`` deltas for outlier entries.

    Entries live in contiguous growable arrays (one scalar row per non-zero),
    so :meth:`materialize` is a set of zero-copy views — appending a block is
    amortized O(block) and reading during attention is O(1), matching the
    cost model of the code storage.
    """

    def __init__(self) -> None:
        self.token_indices = CodeStore((), np.int64)
        self.head_indices = CodeStore((), np.int64)
        self.channel_indices = CodeStore((), np.int64)
        self.deltas = CodeStore((), np.float32)

    def add_block(
        self, token_offset: int, block_deltas: np.ndarray
    ) -> None:
        """Record the non-zero entries of ``block_deltas`` (t, kv_heads, d)."""
        tokens, heads, channels = np.nonzero(block_deltas)
        if tokens.size == 0:
            return
        self.token_indices.append(tokens + token_offset)
        self.head_indices.append(heads.astype(np.int64, copy=False))
        self.channel_indices.append(channels.astype(np.int64, copy=False))
        self.deltas.append(block_deltas[tokens, heads, channels].astype(np.float32))

    def materialize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.token_indices.view(),
            self.head_indices.view(),
            self.channel_indices.view(),
            self.deltas.view(),
        )

    @property
    def count(self) -> int:
        return len(self.deltas)

    def memory_bytes(self, value_bytes: float = 2.0, index_bytes: float = 4.0) -> float:
        return float(self.count * (value_bytes + index_bytes))

    def clear(self) -> None:
        self.token_indices.clear()
        self.head_indices.clear()
        self.channel_indices.clear()
        self.deltas.clear()


class MillionKVCacheLayer(StreamingQuantizedKVCache):
    """Per-layer MILLION cache (paper Fig. 4b/4c and Fig. 5).

    The flush state is *chunk-resumable*: :meth:`flush_all` between chunk
    forwards leaves the cache in exactly the ``(stored == n, pending == 0)``
    split a later computation can resume from (the serving engine's chunk
    schedule relies on this to interleave or resume prefill work without
    changing what a full rerun would compute).
    """

    #: Process-wide id source for :attr:`cache_serial` (never reused, unlike
    #: ``id()``, so content-change tracking across cache churn stays sound).
    _serial_counter = itertools.count()

    def __init__(
        self,
        config: ModelConfig,
        key_pq: ProductQuantizer,
        value_pq: ProductQuantizer,
        million_config: MillionConfig,
        flush_block_multiple: int = 1,
    ) -> None:
        million_config.validate_for_model(config)
        require(
            key_pq.dim == config.head_dim,
            f"key quantizer dim {key_pq.dim} != head_dim {config.head_dim}",
        )
        require(
            value_pq.dim == config.head_dim,
            f"value quantizer dim {value_pq.dim} != head_dim {config.head_dim}",
        )
        super().__init__(
            config,
            residual_window=million_config.recent_window,
            flush_block_multiple=flush_block_multiple,
        )
        self.key_pq = key_pq
        self.value_pq = value_pq
        self.million_config = million_config
        # Per-layer scratch buffers for the flat ADC kernels, reused across
        # decode steps so attention performs no per-step allocations.
        self.arena = ScratchArena()
        # Content-change tracking for kept gather indices (this cache's
        # decode calls and the fused decoder): (cache_serial, code_version)
        # changes iff the stored code sequence may have changed, so steps
        # without a flush reuse the indices built from the same codes.
        self.cache_serial = next(self._serial_counter)
        self.code_version = 0
        # Contiguous, amortized-doubling code storage: appends copy one block,
        # attention reads a zero-copy view — no per-step re-concatenation.
        self._key_codes = CodeStore(
            (config.kv_heads, key_pq.m_subspaces), code_dtype(key_pq.nbits)
        )
        self._value_codes = CodeStore(
            (config.kv_heads, value_pq.m_subspaces), code_dtype(value_pq.nbits)
        )
        self._key_corrections = _SparseCorrections()
        self._value_corrections = _SparseCorrections()

    # Storage hooks -----------------------------------------------------------

    def _quantize_and_store(self, keys: np.ndarray, values: np.ndarray) -> None:
        token_offset = self._stored_tokens
        keys_dense, values_dense = keys, values
        if self.million_config.outlier_fraction > 0.0:
            keys_dense, _ = split_outliers(keys, self.million_config.outlier_fraction)
            values_dense, _ = split_outliers(values, self.million_config.outlier_fraction)
            self._key_corrections.add_block(token_offset, keys - keys_dense)
            self._value_corrections.add_block(token_offset, values - values_dense)
        self._store_code_rows(*self._encode_dense(keys_dense, values_dense))

    def _encode_dense(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        t, kv_heads, head_dim = keys.shape
        key_codes = self.key_pq.encode(keys.reshape(t * kv_heads, head_dim))
        value_codes = self.value_pq.encode(values.reshape(t * kv_heads, head_dim))
        return (
            key_codes.reshape(t, kv_heads, -1),
            value_codes.reshape(t, kv_heads, -1),
        )

    def encode_rows(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``(t, kv_heads, d)`` rows to ``(t, kv_heads, M)`` codes.

        The pure compression half of the flush, exposed so the fused decode
        path can encode the popped rows of many sequences in one call
        (:meth:`ProductQuantizer.encode` is row-invariant, so the batched
        codes are bit-identical to per-sequence encoding).  Sparse outlier
        corrections are per-sequence COO state that cannot be split out of a
        batched encode, so this path requires ``outlier_fraction == 0``.
        """
        require(
            self.million_config.outlier_fraction == 0.0,
            "encode_rows does not support sparse outlier corrections",
        )
        return self._encode_dense(keys, values)

    def store_code_block(
        self, key_codes: np.ndarray, value_codes: np.ndarray
    ) -> None:
        """Install pre-encoded code rows popped via :meth:`pop_flushable`."""
        require(
            key_codes.shape[0] == value_codes.shape[0],
            "key and value code blocks must cover the same tokens",
        )
        self._store_code_rows(key_codes, value_codes)
        self.account_flushed(key_codes.shape[0])

    def _store_code_rows(self, key_codes: np.ndarray, value_codes: np.ndarray) -> None:
        """Record a flushed block's ``(t, kv_heads, M)`` code rows.

        Split out as a hook so pooled variants (see
        :class:`repro.serving.memory.PooledMillionKVCacheLayer`) can route the
        same code rows into ref-counted pool blocks without duplicating the
        outlier-splitting and encoding logic above.
        """
        self._key_codes.append(key_codes)
        self._value_codes.append(value_codes)
        self.code_version += 1

    def _stored_key_codes(self) -> np.ndarray:
        return self._key_codes.view()

    def _stored_value_codes(self) -> np.ndarray:
        return self._value_codes.view()

    def stored_code_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(key_codes, value_codes)`` views, ``(stored, kv_heads, M)``.

        The fused decode path reads these directly when it rebuilds its
        batch-wide gather indices, instead of materializing per-request
        copies.
        """
        return self._key_codes.view(), self._value_codes.view()

    # Attention hooks -----------------------------------------------------------
    #
    # Single-query calls run the ADC kernels with gather indices kept in the
    # arena until the codes change, bit-identical to the fused decoder.
    # Multi-query calls reconstruct the stored rows (never kept) and contract
    # them with one batched GEMM per side; query heads sharing a KV head are
    # stacked as rows, ``(kv, group * n_q, d) @ (kv, d, T)``, so GQA needs no
    # repeated copies of the reconstruction.

    def _index_key(self, shape: tuple) -> tuple:
        """Arena memo key of a single-query call's kept gather indices."""
        return (self.cache_serial, self.code_version, shape)

    def _quantized_scores(self, queries: np.ndarray, scale: float) -> np.ndarray:
        n_queries, n_heads, head_dim = queries.shape
        if n_queries > 1:
            keys = self._reconstruct(
                self._stored_key_codes(), self.key_pq, self._key_corrections
            )
            kv_heads = keys.shape[1]
            grouped = queries.transpose(1, 0, 2).reshape(kv_heads, -1, head_dim)
            scores = np.matmul(grouped, keys.transpose(1, 2, 0))
            scores = scores.reshape(n_heads, n_queries, keys.shape[0])
            return scores * np.float32(scale)
        scores = pq_attention_scores(
            queries,
            self._stored_key_codes(),
            self.key_pq,
            scale=scale,
            arena=self.arena,
            index_key=self._index_key(queries.shape),
        )
        if self._key_corrections.count:
            scores = scores + self._key_score_corrections(queries) * np.float32(scale)
        return scores

    def _quantized_weighted_values(self, probs: np.ndarray) -> np.ndarray:
        n_heads, n_queries, n_keys = probs.shape
        if n_queries > 1:
            values = self._reconstruct(
                self._stored_value_codes(), self.value_pq, self._value_corrections
            )
            kv_heads = values.shape[1]
            grouped = probs.reshape(kv_heads, -1, n_keys)
            context = np.matmul(grouped, values.transpose(1, 0, 2))
            context = context.reshape(n_heads, n_queries, -1)
            return np.ascontiguousarray(context.transpose(1, 0, 2))
        context = pq_weighted_values(
            probs,
            self._stored_value_codes(),
            self.value_pq,
            arena=self.arena,
            index_key=self._index_key(probs.shape),
        )
        if self._value_corrections.count:
            context = context + self._value_context_corrections(probs)
        return context

    def _key_score_corrections(self, queries: np.ndarray) -> np.ndarray:
        """Sparse outlier contribution ``q · Δk`` added to the ADC scores."""
        tokens, heads, channels, deltas = self._key_corrections.materialize()
        n_queries, n_heads, _ = queries.shape
        corrections = np.zeros((n_heads, n_queries, self._stored_tokens), dtype=np.float32)
        group = n_heads // self.config.kv_heads
        for offset in range(group):
            query_heads = heads * group + offset
            # contribution[h, :, token] += q[:, h, channel] * delta
            contributions = queries[:, query_heads, channels] * deltas[None, :]
            np.add.at(
                corrections,
                (query_heads[None, :], np.arange(n_queries)[:, None], tokens[None, :]),
                contributions,
            )
        return corrections

    def _value_context_corrections(self, probs: np.ndarray) -> np.ndarray:
        """Sparse outlier contribution ``p · Δv`` added to the context."""
        tokens, heads, channels, deltas = self._value_corrections.materialize()
        n_heads, n_queries, _ = probs.shape
        context = np.zeros((n_queries, n_heads, self.config.head_dim), dtype=np.float32)
        group = n_heads // self.config.kv_heads
        for offset in range(group):
            query_heads = heads * group + offset
            # context[:, h, channel] += probs[h, :, token] * delta
            contributions = probs[query_heads, :, tokens].T * deltas[None, :]
            np.add.at(
                context,
                (np.arange(n_queries)[:, None], query_heads[None, :], channels[None, :]),
                contributions,
            )
        return context

    # Memory accounting -----------------------------------------------------------

    def quantized_memory_bytes(self) -> float:
        n_vectors = self._stored_tokens * self.config.kv_heads
        total = self.key_pq.code_memory_bytes(n_vectors)
        total += self.value_pq.code_memory_bytes(n_vectors)
        total += self.key_pq.codebook_memory_bytes()
        total += self.value_pq.codebook_memory_bytes()
        total += self._key_corrections.memory_bytes()
        total += self._value_corrections.memory_bytes()
        return float(total)

    def dequantized_kv(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored keys/values as attention sees them, ``(stored, kv_heads, d)``.

        PQ reconstructions plus the sparse outlier corrections; multi-query
        attention reads exactly these rows.
        """
        return (
            self._reconstruct(self._stored_key_codes(), self.key_pq, self._key_corrections),
            self._reconstruct(
                self._stored_value_codes(), self.value_pq, self._value_corrections
            ),
        )

    def _reconstruct(
        self,
        codes: np.ndarray,
        quantizer: ProductQuantizer,
        corrections: _SparseCorrections,
    ) -> np.ndarray:
        """Decode ``(t, kv_heads, M)`` codes and add the outlier deltas."""
        t, kv_heads, m_subspaces = codes.shape
        rows = quantizer.decode(codes.reshape(t * kv_heads, m_subspaces))
        rows = rows.reshape(t, kv_heads, quantizer.dim)
        if corrections.count:
            # Each (token, head, channel) holds at most one delta, so a plain
            # fancy-indexed add is exact.
            tokens, heads, channels, deltas = corrections.materialize()
            rows[tokens, heads, channels] += deltas
        return rows

    def reset(self) -> None:
        super().reset()
        self._key_codes.clear()
        self._value_codes.clear()
        self._key_corrections.clear()
        self._value_corrections.clear()
        self.code_version += 1


class MillionCacheFactory:
    """Creates :class:`MillionKVCacheLayer` instances from per-layer quantizers."""

    def __init__(
        self,
        quantizers: dict[int, tuple[ProductQuantizer, ProductQuantizer]],
        million_config: MillionConfig,
    ) -> None:
        require(len(quantizers) > 0, "quantizers mapping must not be empty")
        self.quantizers = dict(quantizers)
        self.million_config = million_config

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        if layer_index not in self.quantizers:
            raise KeyError(f"no trained MILLION quantizers for layer {layer_index}")
        key_pq, value_pq = self.quantizers[layer_index]
        return MillionKVCacheLayer(config, key_pq, value_pq, self.million_config)

    def bits_per_value(self, head_dim: int) -> float:
        """Effective bits per cached scalar for reporting."""
        return self.million_config.bits_per_value(head_dim)
