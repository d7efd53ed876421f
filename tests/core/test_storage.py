"""Property tests for the contiguous storage layer (CodeStore / PendingBuffer).

The storage refactor replaced list-of-blocks + per-step ``np.concatenate``
with preallocated growable arrays; these tests pin down that the new layer is
an exact drop-in: every read must equal what concatenating the appended
blocks would have produced, across resets, residual windows and grouped
flushing.  A regression test at the bottom asserts the streaming caches'
``attend`` output is bit-identical to a reimplementation of the old
concatenate-per-step algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MillionConfig
from repro.core.million_cache import MillionKVCacheLayer
from repro.core.pq import ProductQuantizer
from repro.core.storage import BlockArena, CodeStore, PendingBuffer
from repro.models.attention_math import attention_scores, repeat_kv_heads
from repro.models.config import ModelConfig
from repro.models.tensor_ops import softmax
from repro.quant.cache_adapters import KiviKVCache
from repro.quant.kivi import KiviConfig
from repro.utils.validation import ValidationError


class TestCodeStore:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
    def test_append_view_matches_concatenate(self, dtype):
        rng = np.random.default_rng(0)
        store = CodeStore((2, 8), dtype, initial_capacity=4)
        blocks = []
        for t in (1, 3, 0, 7, 16, 2):
            block = (rng.random((t, 2, 8)) * 100).astype(dtype)
            blocks.append(block)
            store.append(block)
            expected = np.concatenate(blocks, axis=0)
            np.testing.assert_array_equal(store.view(), expected)
            assert len(store) == expected.shape[0]

    def test_view_is_zero_copy(self):
        store = CodeStore((2, 4), np.uint8)
        store.append(np.ones((5, 2, 4), dtype=np.uint8))
        view = store.view()
        assert view.base is not None  # a view, not an owned copy
        assert view.shape == (5, 2, 4)

    def test_amortized_doubling_growth(self):
        store = CodeStore((1,), np.uint8, initial_capacity=2)
        reallocations = 0
        last_capacity = store.capacity
        for _ in range(1024):
            store.append(np.zeros((1, 1), dtype=np.uint8))
            if store.capacity != last_capacity:
                reallocations += 1
                last_capacity = store.capacity
        # 1024 appends must trigger only O(log n) buffer reallocations.
        assert reallocations <= 12

    def test_appended_block_is_copied(self):
        store = CodeStore((2,), np.float32)
        block = np.ones((3, 2), dtype=np.float32)
        store.append(block)
        block[:] = -1.0  # mutating the source must not affect the store
        np.testing.assert_array_equal(store.view(), np.ones((3, 2), np.float32))

    def test_clear_keeps_allocation(self):
        store = CodeStore((2,), np.uint8, initial_capacity=4)
        store.append(np.zeros((100, 2), dtype=np.uint8))
        capacity = store.capacity
        store.clear()
        assert len(store) == 0 and store.capacity == capacity
        store.append(np.ones((3, 2), dtype=np.uint8))
        np.testing.assert_array_equal(store.view(), np.ones((3, 2), np.uint8))

    def test_pop_front_matches_slicing(self):
        rng = np.random.default_rng(6)
        store = CodeStore((3,), np.float32, initial_capacity=2)
        block = rng.normal(size=(10, 3)).astype(np.float32)
        store.append(block)
        popped = store.pop_front(4)
        np.testing.assert_array_equal(popped, block[:4])
        np.testing.assert_array_equal(store.view(), block[4:])
        assert store.pop_front(0).shape == (0, 3)
        with pytest.raises(Exception):
            store.pop_front(7)

    def test_bad_row_shape_rejected(self):
        store = CodeStore((2, 4), np.uint8)
        with pytest.raises(Exception):
            store.append(np.zeros((3, 2, 5), dtype=np.uint8))
        with pytest.raises(Exception):
            store.append(np.zeros((2, 4), dtype=np.uint8))  # missing token axis

    def test_wrong_shape_error_names_the_shapes(self):
        store = CodeStore((2, 4), np.uint8)
        with pytest.raises(ValidationError, match=r"\(t, 2, 4\), got \(3, 2, 5\)"):
            store.append(np.zeros((3, 2, 5), dtype=np.uint8))


class TestBlockArena:
    def test_write_read_roundtrip_and_zero_copy(self):
        arena = BlockArena(num_blocks=4, block_rows=8, row_shape=(2, 4), dtype=np.uint8)
        block = np.arange(8 * 2 * 4, dtype=np.uint8).reshape(8, 2, 4)
        arena.write(2, block)
        view = arena.read(2)
        np.testing.assert_array_equal(view, block)
        assert view.base is not None  # a view into the slab, not a copy
        assert arena.block_nbytes == block.nbytes

    def test_partial_blocks_rejected(self):
        arena = BlockArena(num_blocks=2, block_rows=8, row_shape=(2, 4), dtype=np.uint8)
        with pytest.raises(Exception, match="shape"):
            arena.write(0, np.zeros((5, 2, 4), dtype=np.uint8))

    def test_block_id_bounds_checked(self):
        arena = BlockArena(num_blocks=2, block_rows=4, row_shape=(1,), dtype=np.uint8)
        with pytest.raises(Exception, match="out of range"):
            arena.read(2)
        with pytest.raises(Exception, match="out of range"):
            arena.write(-1, np.zeros((4, 1), dtype=np.uint8))

    def test_preallocated_capacity_is_fixed(self):
        arena = BlockArena(num_blocks=3, block_rows=4, row_shape=(2,), dtype=np.uint16)
        assert arena.num_blocks == 3
        assert arena.block_rows == 4
        assert arena.dtype == np.dtype(np.uint16)


class TestPendingBuffer:
    def _random_block(self, rng, t, kv_heads=2, head_dim=4):
        return (
            rng.normal(size=(t, kv_heads, head_dim)).astype(np.float32),
            rng.normal(size=(t, kv_heads, head_dim)).astype(np.float32),
        )

    def test_append_pop_matches_list_reference(self):
        """Randomized append/pop interleavings equal the list+concatenate model."""
        rng = np.random.default_rng(1)
        buffer = PendingBuffer(2, 4, initial_capacity=2)
        ref_keys: list[np.ndarray] = []
        ref_values: list[np.ndarray] = []
        for _ in range(200):
            if rng.random() < 0.6 or not ref_keys:
                keys, values = self._random_block(rng, int(rng.integers(0, 5)))
                buffer.append(keys, values)
                ref_keys.append(keys)
                ref_values.append(values)
            else:
                all_keys = np.concatenate(ref_keys, axis=0)
                all_values = np.concatenate(ref_values, axis=0)
                n = int(rng.integers(0, all_keys.shape[0] + 1))
                popped_k, popped_v = buffer.pop_front(n)
                np.testing.assert_array_equal(popped_k, all_keys[:n])
                np.testing.assert_array_equal(popped_v, all_values[:n])
                ref_keys = [all_keys[n:]]
                ref_values = [all_values[n:]]
            expected_k = (
                np.concatenate(ref_keys, axis=0)
                if ref_keys
                else np.zeros((0, 2, 4), np.float32)
            )
            np.testing.assert_array_equal(buffer.keys_view(), expected_k)
            assert len(buffer) == expected_k.shape[0]

    def test_pop_front_returns_owned_copies(self):
        rng = np.random.default_rng(2)
        buffer = PendingBuffer(2, 4)
        keys, values = self._random_block(rng, 6)
        buffer.append(keys, values)
        popped_k, popped_v = buffer.pop_front(4)
        expected = popped_k.copy()
        buffer.append(*self._random_block(rng, 10))  # may overwrite/regrow
        np.testing.assert_array_equal(popped_k, expected)

    def test_pop_more_than_size_rejected(self):
        buffer = PendingBuffer(1, 2)
        buffer.append(np.zeros((2, 1, 2), np.float32), np.zeros((2, 1, 2), np.float32))
        with pytest.raises(Exception):
            buffer.pop_front(3)

    def test_mismatched_shapes_rejected(self):
        buffer = PendingBuffer(2, 4)
        with pytest.raises(Exception):
            buffer.append(np.zeros((2, 2, 4), np.float32), np.zeros((3, 2, 4), np.float32))
        with pytest.raises(Exception):
            buffer.append(np.zeros((2, 2, 3), np.float32), np.zeros((2, 2, 3), np.float32))

    def test_clear(self):
        buffer = PendingBuffer(2, 4)
        buffer.append(np.ones((3, 2, 4), np.float32), np.ones((3, 2, 4), np.float32))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.keys_view().shape == (0, 2, 4)


# ---------------------------------------------------------------------------
# Regression: streaming caches behave exactly like the pre-refactor
# concatenate-per-step implementation.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pq_pair():
    rng = np.random.default_rng(3)
    head_dim = 16
    keys = rng.normal(size=(2000, head_dim)).astype(np.float32)
    values = rng.normal(size=(2000, head_dim)).astype(np.float32)
    key_pq = ProductQuantizer.fit(keys, m_subspaces=8, nbits=5, seed=0)
    value_pq = ProductQuantizer.fit(values, m_subspaces=8, nbits=5, seed=1)
    return key_pq, value_pq


@pytest.fixture()
def model_config():
    return ModelConfig(
        vocab_size=64, d_model=32, n_layers=1, n_heads=2, max_seq_len=1024
    )


class _OldStyleMillionReference:
    """The seed implementation's storage algorithm, kept for bit-identity checks.

    Pending blocks live in Python lists and every attend re-concatenates both
    the code blocks and the pending blocks — exactly what
    ``StreamingQuantizedKVCache`` + ``MillionKVCacheLayer`` did before the
    contiguous storage refactor.
    """

    def __init__(self, config, key_pq, value_pq, residual_window=0):
        self.config = config
        self.key_pq = key_pq
        self.value_pq = value_pq
        self.residual_window = residual_window
        self.pending_keys: list[np.ndarray] = []
        self.pending_values: list[np.ndarray] = []
        self.key_code_blocks: list[np.ndarray] = []
        self.value_code_blocks: list[np.ndarray] = []
        self.stored_tokens = 0

    def append(self, keys, values):
        pending = sum(b.shape[0] for b in self.pending_keys)
        flushable = pending - self.residual_window
        if flushable > 0:
            all_k = np.concatenate(self.pending_keys, axis=0)
            all_v = np.concatenate(self.pending_values, axis=0)
            t, kv_heads, head_dim = all_k[:flushable].shape
            key_codes = self.key_pq.encode(
                all_k[:flushable].reshape(t * kv_heads, head_dim)
            )
            value_codes = self.value_pq.encode(
                all_v[:flushable].reshape(t * kv_heads, head_dim)
            )
            self.key_code_blocks.append(key_codes.reshape(t, kv_heads, -1))
            self.value_code_blocks.append(value_codes.reshape(t, kv_heads, -1))
            self.stored_tokens += flushable
            self.pending_keys = [all_k[flushable:]] if all_k[flushable:].size else []
            self.pending_values = [all_v[flushable:]] if all_v[flushable:].size else []
        self.pending_keys.append(np.asarray(keys, dtype=np.float32))
        self.pending_values.append(np.asarray(values, dtype=np.float32))

    def _decode(self, code_blocks, quantizer):
        """``(stored, kv_heads, d)`` rows of the re-concatenated code blocks."""
        codes = np.concatenate(code_blocks, axis=0)
        t, kv_heads, m_subspaces = codes.shape
        rows = quantizer.decode(codes.reshape(t * kv_heads, m_subspaces))
        return rows.reshape(t, kv_heads, quantizer.dim)

    def attend(self, queries, query_positions, scale):
        # Stored tokens: the grouped GEMMs over the reconstructed rows,
        # ``(kv, group * n_q, d) @ (kv, d, T)``, as the cache runs them.
        n_queries, n_heads, head_dim = queries.shape
        kv_heads = self.config.kv_heads
        score_blocks = []
        if self.stored_tokens:
            keys = self._decode(self.key_code_blocks, self.key_pq)
            grouped = queries.transpose(1, 0, 2).reshape(kv_heads, -1, head_dim)
            stored_scores = np.matmul(grouped, keys.transpose(1, 2, 0))
            score_blocks.append(
                stored_scores.reshape(n_heads, n_queries, self.stored_tokens)
                * np.float32(scale)
            )
        pending_keys = (
            np.concatenate(self.pending_keys, axis=0)
            if self.pending_keys
            else np.zeros((0, self.config.kv_heads, head_dim), np.float32)
        )
        pending_values = (
            np.concatenate(self.pending_values, axis=0)
            if self.pending_values
            else np.zeros((0, self.config.kv_heads, head_dim), np.float32)
        )
        if pending_keys.shape[0]:
            score_blocks.append(
                attention_scores(
                    queries,
                    pending_keys,
                    query_positions,
                    np.arange(
                        self.stored_tokens,
                        self.stored_tokens + pending_keys.shape[0],
                    ),
                    scale,
                    causal=True,
                )
            )
        scores = np.concatenate(score_blocks, axis=-1)
        probs = softmax(scores, axis=-1)
        context = np.zeros((n_queries, n_heads, head_dim), dtype=np.float32)
        if self.stored_tokens:
            values = self._decode(self.value_code_blocks, self.value_pq)
            grouped = probs[..., : self.stored_tokens].reshape(
                kv_heads, -1, self.stored_tokens
            )
            stored_context = np.matmul(grouped, values.transpose(1, 0, 2))
            context += stored_context.reshape(n_heads, n_queries, head_dim).transpose(
                1, 0, 2
            )
        if pending_keys.shape[0]:
            expanded = repeat_kv_heads(pending_values, n_heads)
            context += np.einsum(
                "hqk,khd->qhd", probs[..., self.stored_tokens :], expanded
            ).astype(np.float32)
        return context


class TestRefactorBitIdentity:
    @pytest.mark.parametrize("recent_window", [0, 7, 16])
    def test_million_attend_bit_identical_to_old_algorithm(
        self, model_config, pq_pair, recent_window
    ):
        key_pq, value_pq = pq_pair
        million = MillionConfig(
            m_subspaces=key_pq.m_subspaces,
            nbits=key_pq.nbits,
            recent_window=recent_window,
        )
        cache = MillionKVCacheLayer(model_config, key_pq, value_pq, million)
        reference = _OldStyleMillionReference(
            model_config, key_pq, value_pq, residual_window=recent_window
        )
        rng = np.random.default_rng(4)
        position = 0
        for block_len in (5, 1, 9, 1, 1, 32, 3):
            keys = rng.normal(size=(block_len, 2, 16)).astype(np.float32)
            values = rng.normal(size=(block_len, 2, 16)).astype(np.float32)
            cache.append(keys, values)
            reference.append(keys, values)
            position += block_len
            queries = rng.normal(size=(1, 2, 16)).astype(np.float32)
            q_pos = np.asarray([position - 1])
            out_new = cache.attend(queries, q_pos, 0.25)
            out_old = reference.attend(queries, q_pos, 0.25)
            np.testing.assert_array_equal(out_new, out_old)
        assert cache.stored_tokens == reference.stored_tokens

    def test_kivi_grouped_flush_matches_block_list_decode(self, model_config):
        """flush_block_multiple > 1: stored/pending split and reads stay exact."""
        kivi_config = KiviConfig(group_size=8, residual_length=4)
        cache = KiviKVCache(model_config, kivi_config)
        quantizer = cache.quantizer
        rng = np.random.default_rng(5)
        ref_key_blocks = []
        appended = []
        for block_len in (3, 6, 1, 20, 2, 9):
            keys = rng.normal(size=(block_len, 2, 16)).astype(np.float32)
            values = rng.normal(size=(block_len, 2, 16)).astype(np.float32)
            appended.append((keys, values))
            cache.append(keys, values)
        # Replay the flush schedule on a plain list to get the reference split.
        pending: list[np.ndarray] = []
        stored = 0
        for keys, _ in appended:
            count = sum(b.shape[0] for b in pending)
            flushable = ((count - 4) // 8) * 8
            if flushable > 0:
                all_k = np.concatenate(pending, axis=0)
                ref_key_blocks.append(all_k[:flushable])
                stored += flushable
                pending = [all_k[flushable:]] if all_k[flushable:].size else []
            pending.append(keys)
        assert cache.stored_tokens == stored
        assert cache.pending_tokens == sum(b.shape[0] for b in pending)
        # Stored keys must decode to the same reconstruction the old
        # decode-at-attend path produced for the same blocks.
        expected = np.concatenate(
            [
                quantizer.quantize_keys(b.reshape(b.shape[0], -1)).dequantize()
                for b in ref_key_blocks
            ],
            axis=0,
        ).reshape(-1, 2, 16)
        materialized_keys, _ = cache._materialize_quantized()
        np.testing.assert_array_equal(materialized_keys, expected)
