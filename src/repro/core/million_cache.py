"""The MILLION KV cache: PQ-encoded past plus a full-precision recent window.

The PQ codes are the only persistent copy of the quantized past.  The cache
attends through the streaming cache's one routine
(:meth:`~repro.models.kv_cache.StreamingQuantizedKVCache.attend`), like the
fp16, KIVI and KVQuant caches: its ``_stored_keys``/``_stored_values`` hooks
reconstruct the stored keys and values transiently, whatever the query
count, and the routine contracts them with the grouped GEMMs of
:mod:`repro.models.attention_math` (the paper's LUT kernel is modelled in
:mod:`repro.perf`).  A reconstruction starts from the cache's
:class:`ReconstructedRun`: rows another cache holding the same codes
already reconstructed, as the serving layer arranges for sequences that
adopted one shared prefix (Hydragen's shared-prefix observation).  It
gathers only the rows after the run, one row gather per side, into the
run's buffer right after it.  An unshared cache holds the zero-length run
and gathers every row into a fresh array through the same path.  The recent
window and the current token stay full precision and are merged through a
single softmax, matching the decomposition of Eq. (7).  An optional sparse
outlier correction is available purely for the Table III sensitivity study —
MILLION's point is that it is not needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Re-exported: the library's ADC kernels, looked up by profiling tools under
# this module's name.
from repro.core.attention_pq import pq_attention_scores, pq_weighted_values  # noqa: F401
from repro.core.config import MillionConfig
from repro.core.pq import ProductQuantizer
from repro.core.storage import CodeStore
from repro.utils.bitpack import code_dtype
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer, StreamingQuantizedKVCache
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


@dataclass(frozen=True)
class ReconstructedRun:
    """K̂ and V̂ of a cache's leading ``tokens`` stored rows.

    ``keys`` and ``values`` are ``(capacity, kv_heads, d)`` buffers whose
    first ``tokens`` rows hold the run.  Caches whose leading code rows are
    equal share one run: each, in turn, gathers its own rows into the
    buffers right after the run and attends over the contiguous leading
    rows, so nothing is copied and the rows are bit-equal to gathering them
    all.  A cache that shares nothing holds a zero-length, zero-capacity
    run.
    """

    keys: np.ndarray
    values: np.ndarray
    tokens: int


def decode_rows(
    stored: np.ndarray, quantizer: ProductQuantizer, out: np.ndarray, from_codes: bool
) -> None:
    """Decode ``(t, kv_heads, M)`` stored rows into ``out`` ``(t, kv_heads, d)``.

    ``stored`` holds flat gather indices (:meth:`ProductQuantizer.flat_index`),
    or codes when ``from_codes``.
    """
    flat = stored.reshape(-1, stored.shape[-1])
    quantizer.decode_flat(
        quantizer.flat_index(flat) if from_codes else flat,
        out=out.reshape(-1, out.shape[-1]),
    )


def _flat_index_store(config: ModelConfig, quantizer: ProductQuantizer) -> CodeStore | None:
    """Store for a side's kept flat indices, or ``None`` past 2 bytes per code."""
    dtype = quantizer.flat_index_dtype
    if dtype.itemsize > 2:
        return None
    return CodeStore((config.kv_heads, quantizer.m_subspaces), dtype)


class MillionKVCacheLayer(StreamingQuantizedKVCache):
    """Per-layer MILLION cache (paper Fig. 4b/4c and Fig. 5).

    The flush state is *chunk-resumable*: :meth:`flush_all` between chunk
    forwards leaves the cache in exactly the ``(stored == n, pending == 0)``
    split a later computation can resume from (the serving engine's chunk
    schedule relies on this to interleave or resume prefill work without
    changing what a full rerun would compute).
    """

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
        # Contiguous, amortized-doubling code storage: appends copy one block,
        # attention reads a zero-copy view — no per-step re-concatenation.
        self._key_codes = CodeStore(
            (config.kv_heads, key_pq.m_subspaces), code_dtype(key_pq.nbits)
        )
        self._value_codes = CodeStore(
            (config.kv_heads, value_pq.m_subspaces), code_dtype(value_pq.nbits)
        )
        # The codes' rows in the flattened centroid tables
        # (ProductQuantizer.flat_index), appended beside them so a
        # reconstruction is one plain gather.  Kept only when they fit in
        # 2 bytes per code; wider tables derive them per call.
        self._key_rows = _flat_index_store(config, key_pq)
        self._value_rows = _flat_index_store(config, value_pq)
        self._key_corrections = _SparseCorrections()
        self._value_corrections = _SparseCorrections()
        empty = np.empty((0, config.kv_heads, config.head_dim), dtype=np.float32)
        #: The leading stored rows' reconstruction, reused instead of
        #: gathered (see :meth:`_reconstruct`); set for a layer's attends by
        #: :func:`repro.serving.memory.shared_prefix_runs`.
        self.shared_run = ReconstructedRun(empty, empty, 0)

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

    def _store_code_rows(self, key_codes: np.ndarray, value_codes: np.ndarray) -> None:
        """Record a flushed block's ``(t, kv_heads, M)`` code rows.

        Split out as a hook so pooled variants (see
        :class:`repro.serving.memory.PooledMillionKVCacheLayer`) can route the
        same code rows into ref-counted pool blocks without duplicating the
        outlier-splitting and encoding logic above.
        """
        self._append_codes(key_codes, value_codes)

    #: Keep each side's codes beside its kept flat index, so
    #: :meth:`_stored_key_codes` is a zero-copy view.  Pooled layers, whose
    #: codes live in pool blocks, keep the index alone.
    _CODES_BESIDE_INDEX = True

    def _append_codes(self, key_codes: np.ndarray, value_codes: np.ndarray) -> None:
        """Extend the stored codes, and their kept flat indices, by ``t`` rows."""
        self._append_side(key_codes, self._key_codes, self._key_rows, self.key_pq)
        self._append_side(value_codes, self._value_codes, self._value_rows, self.value_pq)

    def _append_side(
        self,
        codes: np.ndarray,
        store: CodeStore,
        rows: CodeStore | None,
        quantizer: ProductQuantizer,
    ) -> None:
        """Extend one side's stored codes, or its kept flat index, by ``t`` rows."""
        if rows is None or self._CODES_BESIDE_INDEX:
            store.append(codes)
        if rows is not None:
            flat = quantizer.flat_index(codes.reshape(-1, quantizer.m_subspaces))
            rows.append(flat.reshape(codes.shape))

    def _stored_key_codes(self) -> np.ndarray:
        return self._key_codes.view()

    def _stored_value_codes(self) -> np.ndarray:
        return self._value_codes.view()

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

        PQ reconstructions plus the sparse outlier corrections; attention
        reads exactly these rows.  While the cache holds a shared run they
        are views of the run's buffers, which the next holder's
        reconstruction overwrites past the run.
        """
        return self._stored_keys(), self._stored_values()

    # Attention hooks: the stored rows, reconstructed transiently (never
    # kept) for the streaming cache's grouped GEMMs.

    def _stored_keys(self) -> np.ndarray:
        return self._reconstruct(
            self._key_codes, self._key_rows, self.key_pq, self._key_corrections,
            self.shared_run.keys,
        )

    def _stored_values(self) -> np.ndarray:
        return self._reconstruct(
            self._value_codes, self._value_rows, self.value_pq, self._value_corrections,
            self.shared_run.values,
        )

    def _reconstruct(
        self,
        codes: CodeStore,
        rows: CodeStore | None,
        quantizer: ProductQuantizer,
        corrections: _SparseCorrections,
        buffer: np.ndarray,
    ) -> np.ndarray:
        """Decode the ``(t, kv_heads, M)`` stored rows and add the outlier deltas.

        ``buffer`` is the side's buffer of :attr:`shared_run`, whose leading
        ``shared_run.tokens`` rows are already reconstructed.  The rest are
        gathered into place after them: in ``buffer`` itself when it holds
        ``t`` rows, else in a fresh array that the run is copied into first
        (for the zero-length run, nothing).
        """
        stored = (codes if rows is None else rows).view()
        t = stored.shape[0]
        run = self.shared_run.tokens
        if buffer.shape[0] >= t:
            decoded = buffer[:t]
        else:
            decoded = np.empty((t, *buffer.shape[1:]), dtype=np.float32)
            decoded[:run] = buffer[:run]
        decode_rows(stored[run:], quantizer, decoded[run:], from_codes=rows is None)
        if corrections.count:
            # Each (token, head, channel) holds at most one delta, so a plain
            # fancy-indexed add is exact.
            tokens, heads, channels, deltas = corrections.materialize()
            decoded[tokens, heads, channels] += deltas
        return decoded

    def reset(self) -> None:
        super().reset()
        for store in (self._key_codes, self._value_codes, self._key_rows, self._value_rows):
            if store is not None:
                store.clear()
        self._key_corrections.clear()
        self._value_corrections.clear()


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
