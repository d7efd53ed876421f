"""Tests for attention math, the full-precision cache and the attention block."""

import numpy as np
import pytest
from support.reference import repeat_kv_heads

from repro.models.attention import AttentionBlock
from repro.models.attention_math import (
    attention_scores,
    causal_score_mask,
    dense_attention,
)
from repro.models.config import ModelConfig
from repro.models.kv_cache import FullPrecisionCacheFactory, FullPrecisionKVCacheLayer
from repro.models.linear import Linear
from repro.models.positional import RotaryEmbedding
from repro.models.tensor_ops import softmax


class TestCausalMask:
    def test_diagonal_visible(self):
        mask = causal_score_mask(np.arange(3), np.arange(3))
        assert (np.diag(mask) == 0).all()

    def test_future_blocked(self):
        mask = causal_score_mask(np.asarray([0]), np.asarray([0, 1, 2]))
        assert mask[0, 0] == 0
        assert mask[0, 1] < -1e20 and mask[0, 2] < -1e20

    def test_offset_queries(self):
        mask = causal_score_mask(np.asarray([5]), np.arange(8))
        assert (mask[0, :6] == 0).all()
        assert (mask[0, 6:] < -1e20).all()


class TestDenseAttention:
    def test_matches_manual_softmax(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(2, 2, 8)).astype(np.float32)
        k = rng.normal(size=(5, 2, 8)).astype(np.float32)
        v = rng.normal(size=(5, 2, 8)).astype(np.float32)
        q_pos, k_pos = np.asarray([3, 4]), np.arange(5)
        out = dense_attention(q, k, v, q_pos, k_pos, scale=0.35)
        scores = attention_scores(q, k, q_pos, k_pos, 0.35)
        probs = softmax(scores, axis=-1)
        expected = np.einsum("hqk,khd->qhd", probs, v)
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_causality(self):
        # Changing a future key/value must not change the current query output.
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 2, 8)).astype(np.float32)
        k = rng.normal(size=(4, 2, 8)).astype(np.float32)
        v = rng.normal(size=(4, 2, 8)).astype(np.float32)
        out_a = dense_attention(q, k, v, np.asarray([1]), np.arange(4), 0.5)
        k2, v2 = k.copy(), v.copy()
        k2[3] += 10.0
        v2[3] -= 10.0
        out_b = dense_attention(q, k2, v2, np.asarray([1]), np.arange(4), 0.5)
        np.testing.assert_allclose(out_a, out_b, atol=1e-6)

    def test_single_visible_key_returns_value(self):
        q = np.ones((1, 1, 4), dtype=np.float32)
        k = np.ones((3, 1, 4), dtype=np.float32)
        v = np.stack([np.full((1, 4), i, dtype=np.float32) for i in range(3)])
        out = dense_attention(q, k, v, np.asarray([0]), np.arange(3), 1.0)
        np.testing.assert_allclose(out[0, 0], v[0, 0], atol=1e-6)

    @pytest.mark.parametrize("group", [1, 2, 4])
    def test_gqa_matches_expanded(self, group):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(3, 4, 8)).astype(np.float32)
        k = rng.normal(size=(6, 4 // group, 8)).astype(np.float32)
        v = rng.normal(size=(6, 4 // group, 8)).astype(np.float32)
        q_pos, k_pos = np.arange(3, 6), np.arange(6)
        grouped = dense_attention(q, k, v, q_pos, k_pos, 0.3)
        expanded = dense_attention(q, repeat_kv_heads(k, 4), repeat_kv_heads(v, 4), q_pos, k_pos, 0.3)
        np.testing.assert_allclose(grouped, expanded, atol=1e-6)

    def test_alibi_bias_prefers_recent(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 2, 8)).astype(np.float32) * 0.01
        k = np.zeros((10, 2, 8), dtype=np.float32)
        v = np.stack([np.full((2, 8), i, dtype=np.float32) for i in range(10)])
        slopes = np.asarray([1.0, 1.0], dtype=np.float32)
        out = dense_attention(
            q, k, v, np.asarray([9]), np.arange(10), 1.0, alibi_head_slopes=slopes
        )
        # With equal keys, the ALiBi bias makes recent values dominate.
        assert out[0, 0, 0] > 7.0


class TestFullPrecisionCache:
    def _config(self):
        return ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)

    def test_append_and_attend_matches_dense(self):
        config = self._config()
        cache = FullPrecisionKVCacheLayer(config)
        rng = np.random.default_rng(5)
        k1 = rng.normal(size=(3, 2, 8)).astype(np.float32)
        v1 = rng.normal(size=(3, 2, 8)).astype(np.float32)
        cache.append(k1, v1)
        q = rng.normal(size=(3, 2, 8)).astype(np.float32)
        out = cache.attend(q, np.arange(3), 0.5)
        expected = dense_attention(q, k1, v1, np.arange(3), np.arange(3), 0.5)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_incremental_equals_batch(self):
        config = self._config()
        rng = np.random.default_rng(6)
        keys = rng.normal(size=(6, 2, 8)).astype(np.float32)
        values = rng.normal(size=(6, 2, 8)).astype(np.float32)
        query = rng.normal(size=(1, 2, 8)).astype(np.float32)

        batch_cache = FullPrecisionKVCacheLayer(config)
        batch_cache.append(keys, values)
        expected = batch_cache.attend(query, np.asarray([5]), 0.4)

        incremental = FullPrecisionKVCacheLayer(config)
        for i in range(6):
            incremental.append(keys[i : i + 1], values[i : i + 1])
        np.testing.assert_allclose(
            incremental.attend(query, np.asarray([5]), 0.4), expected, atol=1e-6
        )

    def test_memory_accounting(self):
        config = self._config()
        cache = FullPrecisionKVCacheLayer(config)
        assert cache.memory_bytes() == 0
        cache.append(np.zeros((4, 2, 8), np.float32), np.zeros((4, 2, 8), np.float32))
        assert cache.memory_bytes() == 4 * 2 * 2 * 8 * 2.0
        assert cache.seq_len == 4

    def test_reset(self):
        config = self._config()
        cache = FullPrecisionKVCacheLayer(config)
        cache.append(np.zeros((2, 2, 8), np.float32), np.zeros((2, 2, 8), np.float32))
        cache.reset()
        assert cache.seq_len == 0
        assert cache.memory_bytes() == 0

    def test_shape_validation(self):
        cache = FullPrecisionKVCacheLayer(self._config())
        with pytest.raises(ValueError):
            cache.append(np.zeros((2, 3, 8), np.float32), np.zeros((2, 3, 8), np.float32))


class TestAttentionBlock:
    def test_forward_shapes_and_cache_growth(self):
        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)
        rng = np.random.default_rng(7)
        def linear(i, o):
            return Linear(rng.normal(0, 0.1, size=(i, o)).astype(np.float32))
        rope = RotaryEmbedding(8, 64)
        block = AttentionBlock(config, linear(16, 16), linear(16, 16), linear(16, 16), linear(16, 16), rope=rope)
        cache = FullPrecisionCacheFactory().create(0, config)
        x = rng.normal(size=(5, 16)).astype(np.float32)
        out = block.forward(x, [cache], np.arange(5))
        assert out.shape == (5, 16)
        assert cache.seq_len == 5
        out2 = block.forward(x[:1], [cache], np.asarray([5]))
        assert out2.shape == (1, 16)
        assert cache.seq_len == 6

    def test_kv_observer_called(self):
        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)
        rng = np.random.default_rng(8)
        def linear(i, o):
            return Linear(rng.normal(0, 0.1, size=(i, o)).astype(np.float32))
        block = AttentionBlock(config, linear(16, 16), linear(16, 16), linear(16, 16), linear(16, 16))
        cache = FullPrecisionCacheFactory().create(0, config)
        seen = []
        block.forward(
            rng.normal(size=(3, 16)).astype(np.float32),
            [cache],
            np.arange(3),
            kv_observer=lambda k, v: seen.append((k.shape, v.shape)),
        )
        assert seen == [((3, 2, 8), (3, 2, 8))]

    def test_input_shape_validation(self):
        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)
        rng = np.random.default_rng(9)
        def linear(i, o):
            return Linear(rng.normal(0, 0.1, size=(i, o)).astype(np.float32))
        block = AttentionBlock(config, linear(16, 16), linear(16, 16), linear(16, 16), linear(16, 16))
        cache = FullPrecisionCacheFactory().create(0, config)
        with pytest.raises(ValueError):
            block.forward(np.zeros((3, 8), np.float32), [cache], np.arange(3))
