"""Tests for PQ attention and the MILLION KV cache."""

import tracemalloc

import numpy as np
import pytest
from support.reference import reference_adc_attend, reference_pq_decode, repeat_kv_heads

from repro.core.attention_pq import pq_attention_scores, pq_weighted_values
from repro.core.codebook import SubspaceCodebooks
from repro.core.config import MillionConfig
from repro.core.million_cache import MillionCacheFactory, MillionKVCacheLayer
from repro.core.pq import ProductQuantizer
from repro.models.attention_math import dense_attention
from repro.models.config import ModelConfig
from repro.models.positional import RotaryEmbedding, alibi_slopes
from repro.models.tensor_ops import softmax


@pytest.fixture(scope="module")
def head_dim():
    return 16


@pytest.fixture(scope="module")
def pq_pair(head_dim):
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(3000, head_dim)).astype(np.float32)
    keys[:, 2] *= 6.0
    values = rng.normal(size=(3000, head_dim)).astype(np.float32)
    key_pq = ProductQuantizer.fit(keys, m_subspaces=8, nbits=6, seed=0)
    value_pq = ProductQuantizer.fit(values, m_subspaces=8, nbits=6, seed=1)
    return key_pq, value_pq


@pytest.fixture()
def mha_config(head_dim):
    return ModelConfig(vocab_size=64, d_model=2 * head_dim, n_layers=1, n_heads=2, max_seq_len=512)


@pytest.fixture()
def gqa_cache_config(head_dim):
    return ModelConfig(
        vocab_size=64,
        d_model=4 * head_dim,
        n_layers=1,
        n_heads=4,
        n_kv_heads=2,
        max_seq_len=512,
    )


def _random_kv(rng, n_tokens, kv_heads, head_dim):
    keys = rng.normal(size=(n_tokens, kv_heads, head_dim)).astype(np.float32)
    keys[:, :, 2] *= 6.0
    values = rng.normal(size=(n_tokens, kv_heads, head_dim)).astype(np.float32)
    return keys, values


class TestPQAttentionPrimitives:
    def test_scores_match_dequantized_attention(self, pq_pair, head_dim):
        key_pq, _ = pq_pair
        rng = np.random.default_rng(1)
        keys, _ = _random_kv(rng, 20, 2, head_dim)
        codes = key_pq.encode(keys.reshape(-1, head_dim)).reshape(20, 2, -1)
        queries = rng.normal(size=(3, 2, head_dim)).astype(np.float32)
        scores = pq_attention_scores(queries, codes, key_pq, scale=0.3)
        decoded = key_pq.decode(codes.reshape(-1, key_pq.m_subspaces)).reshape(20, 2, head_dim)
        expected = np.einsum("qhd,khd->hqk", queries, decoded) * 0.3
        np.testing.assert_allclose(scores, expected, atol=1e-4)

    def test_weighted_values_match_dequantized(self, pq_pair, head_dim):
        _, value_pq = pq_pair
        rng = np.random.default_rng(2)
        _, values = _random_kv(rng, 15, 2, head_dim)
        codes = value_pq.encode(values.reshape(-1, head_dim)).reshape(15, 2, -1)
        probs = softmax(rng.normal(size=(2, 4, 15)), axis=-1)
        context = pq_weighted_values(probs, codes, value_pq)
        decoded = value_pq.decode(codes.reshape(-1, value_pq.m_subspaces)).reshape(15, 2, head_dim)
        expected = np.einsum("hqk,khd->qhd", probs, decoded)
        np.testing.assert_allclose(context, expected, atol=1e-4)

    def test_gqa_head_mapping(self, pq_pair, head_dim):
        key_pq, _ = pq_pair
        rng = np.random.default_rng(3)
        keys, _ = _random_kv(rng, 10, 2, head_dim)
        codes = key_pq.encode(keys.reshape(-1, head_dim)).reshape(10, 2, -1)
        queries = rng.normal(size=(1, 4, head_dim)).astype(np.float32)
        scores = pq_attention_scores(queries, codes, key_pq, scale=1.0)
        decoded = key_pq.decode(codes.reshape(-1, key_pq.m_subspaces)).reshape(10, 2, head_dim)
        expanded = repeat_kv_heads(decoded, 4)
        expected = np.einsum("qhd,khd->hqk", queries, expanded)
        np.testing.assert_allclose(scores, expected, atol=1e-4)

    def test_every_call_builds_its_own_indices(self, pq_pair, head_dim):
        """The ADC primitives keep nothing between calls: a call on new codes
        equals the single-head kernels on those codes, head by head (KV head
        ``head // group``), with no tolerance."""
        key_pq, value_pq = pq_pair
        rng = np.random.default_rng(7)
        codes = {}
        for key, n_keys in (("a", 9), ("b", 9), ("c", 14)):
            keys, values = _random_kv(rng, n_keys, 2, head_dim)
            codes[key] = (
                key_pq.encode(keys.reshape(-1, head_dim)).reshape(n_keys, 2, -1),
                value_pq.encode(values.reshape(-1, head_dim)).reshape(n_keys, 2, -1),
            )
        for key in ("a", "a", "b", "c"):
            key_codes, value_codes = codes[key]
            n_keys = key_codes.shape[0]
            queries = rng.normal(size=(1, 4, head_dim)).astype(np.float32)
            probs = softmax(rng.normal(size=(4, 1, n_keys)), axis=-1)
            scores = pq_attention_scores(queries, key_codes, key_pq, 0.3)
            context = pq_weighted_values(probs, value_codes, value_pq)
            for head in range(4):
                rows = key_codes[:, head // 2, :]
                luts = key_pq.build_score_luts(queries[:, head, :])
                np.testing.assert_array_equal(
                    scores[head], key_pq.adc_scores(luts, rows) * np.float32(0.3)
                )
                np.testing.assert_array_equal(
                    context[:, head],
                    value_pq.weighted_decode(probs[head], value_codes[:, head // 2, :]),
                )

    @pytest.mark.parametrize(
        "n_queries,n_heads,kv_heads,n_keys",
        [(1, 2, 2, 1), (1, 2, 2, 37), (1, 4, 2, 20), (3, 4, 1, 9), (2, 4, 2, 0)],
    )
    def test_scores_equal_per_head_adc(
        self, pq_pair, head_dim, n_queries, n_heads, kv_heads, n_keys
    ):
        """Every (head, query) row of the logits equals
        ``ProductQuantizer.adc_scores`` over that head's KV-head codes bit
        for bit, with GQA and with no stored keys."""
        key_pq, _ = pq_pair
        rng = np.random.default_rng(n_keys + 10 * n_heads)
        keys, _ = _random_kv(rng, n_keys, kv_heads, head_dim)
        codes = key_pq.encode(keys.reshape(-1, head_dim)).reshape(
            n_keys, kv_heads, key_pq.m_subspaces
        )
        queries = rng.normal(size=(n_queries, n_heads, head_dim)).astype(np.float32)
        scores = pq_attention_scores(queries, codes, key_pq, scale=1.0)
        assert scores.shape == (n_heads, n_queries, n_keys)
        group = n_heads // kv_heads
        for head in range(n_heads):
            luts = key_pq.build_score_luts(queries[:, head, :])
            expected = key_pq.adc_scores(luts, codes[:, head // group, :])
            np.testing.assert_array_equal(scores[head], expected)

    def test_shape_validation(self, pq_pair, head_dim):
        key_pq, value_pq = pq_pair
        with pytest.raises(Exception):
            pq_attention_scores(np.zeros((2, head_dim)), np.zeros((3, 2, 8)), key_pq)
        with pytest.raises(Exception):
            pq_weighted_values(np.zeros((2, 2, 5)), np.zeros((4, 2, 8), dtype=int), value_pq)


class TestMillionKVCacheLayer:
    def _make_cache(self, config, pq_pair, recent_window=0, outlier_fraction=0.0):
        key_pq, value_pq = pq_pair
        million = MillionConfig(
            m_subspaces=key_pq.m_subspaces,
            nbits=key_pq.nbits,
            recent_window=recent_window,
            outlier_fraction=outlier_fraction,
        )
        return MillionKVCacheLayer(config, key_pq, value_pq, million)

    def test_attend_keeps_no_index(self, mha_config, pq_pair, head_dim):
        """Attention reconstructs the stored rows transiently: neither a
        64-query prefill chunk nor a decode step leaves anything behind."""
        key_pq, value_pq = pq_pair
        million = MillionConfig(m_subspaces=key_pq.m_subspaces, nbits=key_pq.nbits)
        cache = MillionKVCacheLayer(
            mha_config, key_pq, value_pq, million, flush_block_multiple=4
        )
        rng = np.random.default_rng(8)
        keys, values = _random_kv(rng, 588, 2, head_dim)
        queries = rng.normal(size=(588, 2, head_dim)).astype(np.float32)
        for start in range(0, 512, 64):
            cache.append(keys[start : start + 64], values[start : start + 64])
        cache.append(keys[512:576], values[512:576])  # flushes [448, 512)
        assert cache.stored_tokens == 512
        attributes = set(vars(cache))

        def retained(call) -> int:
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                call()
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return after - before

        # A kept decode index at this shape would be M * H * T * 8 = 64 KiB.
        assert retained(
            lambda: cache.attend(queries[512:576], np.arange(512, 576), 0.25)
        ) < 8192
        for t in range(576, 588):
            cache.append(keys[t : t + 1], values[t : t + 1])
            assert retained(
                lambda: cache.attend(queries[t : t + 1], np.asarray([t]), 0.25)
            ) < 8192
        assert set(vars(cache)) == attributes

    def test_kept_flat_indices_follow_code_changes(self, mha_config, pq_pair, head_dim):
        """The per-cache flat gather indices are the codes' rows in the
        centroid tables at every point: appends, flushes, reset and refill."""
        key_pq, value_pq = pq_pair
        million = MillionConfig(m_subspaces=key_pq.m_subspaces, nbits=key_pq.nbits)
        cache = MillionKVCacheLayer(
            mha_config, key_pq, value_pq, million, flush_block_multiple=4
        )
        rng = np.random.default_rng(9)

        def check():
            for codes, rows, quantizer in (
                (cache._stored_key_codes(), cache._key_rows, key_pq),
                (cache._stored_value_codes(), cache._value_rows, value_pq),
            ):
                flat = codes.reshape(-1, quantizer.m_subspaces)
                assert rows.dtype.itemsize <= 2
                np.testing.assert_array_equal(
                    rows.view().reshape(flat.shape), quantizer.flat_index(flat)
                )
                np.testing.assert_array_equal(
                    quantizer.decode_flat(rows.view().reshape(flat.shape)),
                    reference_pq_decode(quantizer, flat),
                )

        for _ in range(2):
            keys, values = _random_kv(rng, 23, 2, head_dim)
            for t in range(23):
                cache.append(keys[t : t + 1], values[t : t + 1])
                check()
            assert cache.stored_tokens == 20
            cache.reset()
            check()
            assert len(cache._key_rows) == len(cache._value_rows) == 0

    def test_attention_approximates_exact(self, mha_config, pq_pair, head_dim):
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(5)
        keys, values = _random_kv(rng, 48, 2, head_dim)
        cache.append(keys[:32], values[:32])
        cache.append(keys[32:], values[32:])
        queries = rng.normal(size=(2, 2, head_dim)).astype(np.float32)
        q_pos = np.asarray([46, 47])
        out = cache.attend(queries, q_pos, 0.25)
        exact = dense_attention(queries, keys, values, q_pos, np.arange(48), 0.25)
        assert np.abs(out - exact).max() < 0.35
        # The quantized part must actually be in use.
        assert cache.stored_tokens == 32 and cache.pending_tokens == 16

    def test_matches_dequantized_reference_exactly(self, mha_config, pq_pair, head_dim):
        """ADC attention == attention over the PQ-reconstructed KV (no extra error)."""
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(6)
        keys, values = _random_kv(rng, 40, 2, head_dim)
        cache.append(keys[:30], values[:30])
        cache.append(keys[30:], values[30:])
        queries = rng.normal(size=(1, 2, head_dim)).astype(np.float32)
        out = cache.attend(queries, np.asarray([39]), 0.25)
        k_hat, v_hat = cache.dequantized_kv()
        keys_mixed = np.concatenate([k_hat, keys[30:]], axis=0)
        values_mixed = np.concatenate([v_hat, values[30:]], axis=0)
        expected = dense_attention(
            queries, keys_mixed, values_mixed, np.asarray([39]), np.arange(40), 0.25
        )
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_single_query_matches_dense_over_dequantized_kv_with_outliers(
        self, mha_config, pq_pair, head_dim
    ):
        """``dequantized_kv`` includes the sparse corrections attention adds."""
        cache = self._make_cache(mha_config, pq_pair, outlier_fraction=0.05)
        rng = np.random.default_rng(15)
        keys, values = _random_kv(rng, 40, 2, head_dim)
        keys[rng.random(keys.shape) < 0.02] *= 25.0
        values[rng.random(values.shape) < 0.02] *= 25.0
        cache.append(keys[:30], values[:30])
        cache.append(keys[30:], values[30:])
        assert cache._key_corrections.count and cache._value_corrections.count
        queries = rng.normal(size=(1, 2, head_dim)).astype(np.float32)
        out = cache.attend(queries, np.asarray([39]), 0.25)
        k_hat, v_hat = cache.dequantized_kv()
        pending_keys, pending_values = cache.pending_views()
        expected = dense_attention(
            queries,
            np.concatenate([k_hat, pending_keys], axis=0),
            np.concatenate([v_hat, pending_values], axis=0),
            np.asarray([39]),
            np.arange(40),
            0.25,
        )
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_equivalent_to_online_softmax_merge(self, mha_config, pq_pair, head_dim):
        """Concatenated-softmax implementation == Eq. (7) online-softmax merge."""
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(7)
        keys, values = _random_kv(rng, 33, 2, head_dim)
        cache.append(keys[:32], values[:32])
        cache.append(keys[32:], values[32:])
        queries = rng.normal(size=(1, 2, head_dim)).astype(np.float32)
        scale = 0.25
        out = cache.attend(queries, np.asarray([32]), scale)

        # Reproduce via an explicit online-softmax merge of the two partials:
        # each part keeps its own numerator and denominator, rescaled to the
        # shared running maximum before they are summed.
        k_hat, v_hat = cache.dequantized_kv()
        parts = [(k_hat, v_hat), (keys[32:], values[32:])]
        scores = [np.einsum("qhd,khd->qhk", queries, k) * scale for k, _ in parts]
        peak = np.maximum(*(s.max(axis=-1, keepdims=True) for s in scores))
        weights = [np.exp(s - peak) for s in scores]
        numerator = sum(np.einsum("qhk,khd->qhd", w, v) for w, (_, v) in zip(weights, parts))
        denominator = sum(w.sum(axis=-1, keepdims=True) for w in weights)
        np.testing.assert_allclose(out, numerator / denominator, atol=1e-4)

    def test_recent_window_kept_full_precision(self, mha_config, pq_pair, head_dim):
        cache = self._make_cache(mha_config, pq_pair, recent_window=16)
        rng = np.random.default_rng(8)
        keys, values = _random_kv(rng, 40, 2, head_dim)
        for start in range(0, 40, 8):
            cache.append(keys[start : start + 8], values[start : start + 8])
        assert cache.pending_tokens >= 16
        assert cache.stored_tokens + cache.pending_tokens == 40

    def test_gqa_cache(self, gqa_cache_config, pq_pair, head_dim):
        cache = self._make_cache(gqa_cache_config, pq_pair)
        rng = np.random.default_rng(9)
        keys, values = _random_kv(rng, 24, 2, head_dim)
        cache.append(keys[:16], values[:16])
        cache.append(keys[16:], values[16:])
        queries = rng.normal(size=(2, 4, head_dim)).astype(np.float32)
        out = cache.attend(queries, np.asarray([22, 23]), 0.25)
        exact = dense_attention(queries, keys, values, np.asarray([22, 23]), np.arange(24), 0.25)
        assert out.shape == (2, 4, head_dim)
        assert np.abs(out - exact).max() < 0.4

    def test_memory_much_smaller_than_fp16(self, mha_config, pq_pair, head_dim):
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(10)
        keys, values = _random_kv(rng, 256, 2, head_dim)
        cache.append(keys[:255], values[:255])
        cache.append(keys[255:], values[255:])
        fp16_bytes = 256 * 2 * 2 * head_dim * 2.0
        code_bytes = cache.quantized_memory_bytes() - 2 * cache.key_pq.codebook_memory_bytes()
        assert code_bytes < fp16_bytes / 3.0

    def test_outlier_corrections_reduce_error(self, mha_config, pq_pair, head_dim):
        rng = np.random.default_rng(11)
        keys, values = _random_kv(rng, 64, 2, head_dim)
        keys[rng.random(keys.shape) < 0.02] *= 25.0
        queries = rng.normal(size=(1, 2, head_dim)).astype(np.float32)
        q_pos = np.asarray([63])
        exact = dense_attention(queries, keys, values, q_pos, np.arange(64), 0.25)

        def run(outlier_fraction):
            cache = self._make_cache(mha_config, pq_pair, outlier_fraction=outlier_fraction)
            cache.append(keys[:60], values[:60])
            cache.append(keys[60:], values[60:])
            return cache.attend(queries, q_pos, 0.25)

        err_plain = np.abs(run(0.0) - exact).max()
        err_outlier = np.abs(run(0.02) - exact).max()
        assert err_outlier <= err_plain + 1e-6

    def test_sparse_corrections_materialize_is_zero_copy(self, mha_config, pq_pair, head_dim):
        """materialize() must read contiguous stores, not re-concatenate."""
        from repro.core.million_cache import _SparseCorrections

        corrections = _SparseCorrections()
        rng = np.random.default_rng(13)
        block = np.zeros((4, 2, head_dim), dtype=np.float32)
        block[rng.random(block.shape) < 0.2] = 1.5
        corrections.add_block(0, block)
        first = corrections.materialize()
        assert all(part.base is not None for part in first)  # views, no copies
        corrections.add_block(4, block)
        second = corrections.materialize()
        assert second[0].size == 2 * first[0].size == corrections.count
        tokens, heads, channels = np.nonzero(block)
        np.testing.assert_array_equal(second[0][tokens.size :], tokens + 4)
        np.testing.assert_array_equal(
            second[3], np.tile(block[tokens, heads, channels], 2)
        )
        corrections.clear()
        assert corrections.materialize()[0].size == 0

    def test_stored_codes_are_views_not_copies(self, mha_config, pq_pair, head_dim):
        """Decode-path reads must be zero-copy views of the contiguous store."""
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(14)
        keys, values = _random_kv(rng, 48, 2, head_dim)
        cache.append(keys[:32], values[:32])
        cache.append(keys[32:], values[32:])
        codes = cache._stored_key_codes()
        assert codes.base is not None  # a view into the growable buffer
        assert codes.shape[0] == cache.stored_tokens
        # Repeated reads return the same buffer, not fresh concatenations.
        assert cache._stored_key_codes().base is codes.base

    def test_reset(self, mha_config, pq_pair, head_dim):
        cache = self._make_cache(mha_config, pq_pair)
        rng = np.random.default_rng(12)
        keys, values = _random_kv(rng, 16, 2, head_dim)
        cache.append(keys[:8], values[:8])
        cache.append(keys[8:], values[8:])
        cache.reset()
        assert cache.seq_len == 0 and cache.stored_tokens == 0 and cache.pending_tokens == 0

    def test_dimension_mismatch_rejected(self, pq_pair):
        key_pq, value_pq = pq_pair
        bad_config = ModelConfig(vocab_size=64, d_model=64, n_layers=1, n_heads=2, max_seq_len=64)
        million = MillionConfig(m_subspaces=8, nbits=6)
        with pytest.raises(Exception):
            MillionKVCacheLayer(bad_config, key_pq, value_pq, million)


class TestMultiQueryAttend:
    """Every call, decode included, attends over reconstructed keys/values
    with GEMMs; it matches the ADC kernels up to float rounding."""

    @pytest.mark.parametrize("n_queries", [1, 2, 17, 128])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.05])
    @pytest.mark.parametrize("recent_window", [0, 32])
    @pytest.mark.parametrize("positional", ["rope", "alibi"])
    @pytest.mark.parametrize("n_heads", [2, 4], ids=["mha", "gqa"])
    def test_matches_adc_reference(
        self, pq_pair, head_dim, n_heads, positional, recent_window,
        outlier_fraction, n_queries,
    ):
        key_pq, value_pq = pq_pair
        config = ModelConfig(
            vocab_size=64,
            d_model=n_heads * head_dim,
            n_layers=1,
            n_heads=n_heads,
            n_kv_heads=2,
            max_seq_len=512,
        )
        million = MillionConfig(
            m_subspaces=key_pq.m_subspaces,
            nbits=key_pq.nbits,
            recent_window=recent_window,
            outlier_fraction=outlier_fraction,
        )
        cache = MillionKVCacheLayer(config, key_pq, value_pq, million)
        rng = np.random.default_rng(n_queries + 1000 * n_heads)
        n_tokens = 96 + n_queries
        keys, values = _random_kv(rng, n_tokens, 2, head_dim)
        keys[rng.random(keys.shape) < 0.02] *= 25.0
        queries = rng.normal(size=(n_queries, n_heads, head_dim)).astype(np.float32)
        positions = np.arange(n_tokens)
        slopes = None
        if positional == "rope":
            rope = RotaryEmbedding(head_dim, max_seq_len=512)
            keys = rope.apply(keys, positions)
            queries = rope.apply(queries, positions[96:])
        else:
            slopes = alibi_slopes(n_heads)
        # Two history chunks, then the chunk whose queries attend.
        for start, stop in ((0, 48), (48, 96), (96, n_tokens)):
            cache.append(keys[start:stop], values[start:stop])
        assert cache.stored_tokens > 0 and cache.pending_tokens >= n_queries
        assert bool(cache._key_corrections.count) == (outlier_fraction > 0)
        out = cache.attend(queries, positions[96:], 0.25, alibi_head_slopes=slopes)
        expected = reference_adc_attend(
            cache, queries, positions[96:], 0.25, alibi_head_slopes=slopes
        )
        assert out.shape == expected.shape and out.dtype == np.float32
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_chunk_memory_at_serving_shape(self):
        """A 128-query chunk over 1,024 stored tokens (H = kv = 4, d = 64,
        M = 32, K = 256) stays small and keeps nothing."""
        rng = np.random.default_rng(0)
        pq = ProductQuantizer(SubspaceCodebooks(rng.normal(size=(32, 256, 2))))
        config = ModelConfig(
            vocab_size=64, d_model=256, n_layers=1, n_heads=4, max_seq_len=2048
        )
        cache = MillionKVCacheLayer(
            config, pq, pq, MillionConfig(m_subspaces=32, nbits=8)
        )
        keys, values = _random_kv(rng, 1152, 4, 64)
        cache.append(keys[:1024], values[:1024])
        cache.append(keys[1024:], values[1024:])
        assert cache.flush_state == (1024, 128)
        queries = rng.normal(size=(128, 4, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            cache.attend(queries, np.arange(1024, 1152), 0.125)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert retained < 2**16


class TestMillionCacheFactory:
    def test_create_and_missing_layer(self, mha_config, pq_pair):
        key_pq, value_pq = pq_pair
        million = MillionConfig(m_subspaces=key_pq.m_subspaces, nbits=key_pq.nbits)
        factory = MillionCacheFactory({0: (key_pq, value_pq)}, million)
        assert isinstance(factory.create(0, mha_config), MillionKVCacheLayer)
        with pytest.raises(KeyError):
            factory.create(3, mha_config)

    def test_bits_per_value(self, pq_pair, head_dim):
        key_pq, value_pq = pq_pair
        million = MillionConfig(m_subspaces=key_pq.m_subspaces, nbits=key_pq.nbits)
        factory = MillionCacheFactory({0: (key_pq, value_pq)}, million)
        assert factory.bits_per_value(head_dim) == pytest.approx(8 * 6 / head_dim)
