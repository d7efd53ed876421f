"""Cross-cutting property-based tests (hypothesis) for the core invariants.

These complement the per-module tests with randomized checks of the
invariants the rest of the system relies on:

* quantize/de-quantize round trips stay within their theoretical error bounds,
* PQ's ADC scores are *exactly* the scores of the de-quantized keys,
* streaming caches never lose or duplicate tokens regardless of the append
  pattern, and their attention output is always finite,
* the performance model responds monotonically to context length and bits,
* batched k-means fits each problem bit-identically to clustering it alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MillionConfig, ProductQuantizer
from repro.core.million_cache import MillionKVCacheLayer
from repro.models.config import ModelConfig
from repro.perf import FP16_BASELINE, LLAMA_2_7B, MILLION_4BIT, estimate_tpot, kv_cache_bytes
from repro.quant import KiviConfig, KiviKVCache, quantize_uniform
from repro.quant.kmeans import kmeans, kmeans_batch
from repro.utils.rng import spawn_rngs
from support.reference import reference_kmeans


CACHE_CONFIG = ModelConfig(
    vocab_size=64, d_model=32, n_layers=1, n_heads=2, max_seq_len=4096
)

_PQ_VECTORS = np.random.default_rng(1234).normal(size=(2048, 16)).astype(np.float32)
_SHARED_PQ = ProductQuantizer.fit(_PQ_VECTORS, m_subspaces=4, nbits=5, kmeans_iters=6, seed=0)


class TestQuantizationProperties:
    @given(
        nbits=st.integers(min_value=2, max_value=8),
        scale=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_roundtrip_error_bounded(self, nbits, scale, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(32, 8)) * scale).astype(np.float32)
        quantized = quantize_uniform(x, nbits)
        error = np.abs(quantized.dequantize() - x)
        step = float(quantized.params.scale.max())
        assert error.max() <= 0.51 * step + 1e-5 * scale

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_adc_equals_dequantized_scores(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n, 16)).astype(np.float32)
        queries = rng.normal(size=(3, 16)).astype(np.float32)
        codes = _SHARED_PQ.encode(keys)
        adc = _SHARED_PQ.adc_scores(_SHARED_PQ.build_score_luts(queries), codes)
        exact = queries @ _SHARED_PQ.decode(codes).T
        np.testing.assert_allclose(adc, exact, atol=1e-3)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_pq_reconstruction_never_worse_than_single_centroid(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(64, 16)).astype(np.float32)
        mse_pq = _SHARED_PQ.reconstruction_mse(x)
        global_mean_mse = float(np.mean((x - _PQ_VECTORS.mean(axis=0)) ** 2))
        assert mse_pq <= global_mean_mse * 1.05

    @given(
        k=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=12, max_value=100),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_kmeans_inertia_non_negative_and_bounded(self, k, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 3))
        result = kmeans(data, k, seed=seed)
        assert result.inertia >= 0.0
        total_variance = float(np.sum((data - data.mean(axis=0)) ** 2))
        assert result.inertia <= total_variance + 1e-6

    @given(
        n_problems=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=48),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=16),
        distinct=st.integers(min_value=1, max_value=48),
        n_iters=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(n_problems=3, n=8, d=2, k=8, distinct=8, n_iters=2, seed=0)  # n == K
    @example(n_problems=3, n=9, d=2, k=8, distinct=9, n_iters=2, seed=1)  # n == K+1
    @example(n_problems=4, n=32, d=1, k=8, distinct=32, n_iters=2, seed=2)  # d == 1
    @example(n_problems=2, n=24, d=3, k=6, distinct=1, n_iters=2, seed=3)  # identical
    @example(n_problems=3, n=40, d=2, k=12, distinct=3, n_iters=3, seed=4)  # empty clusters
    @settings(max_examples=40, deadline=None)
    def test_kmeans_batch_matches_per_problem_oracle(
        self, n_problems, n, d, k, distinct, n_iters, seed
    ):
        """Every problem's centroids, iteration count and generator state equal
        those of the per-problem oracle run on that problem alone."""
        rng = np.random.default_rng(seed)
        # Half the problems draw from ``distinct`` points: all-identical data
        # (the uniform-pick branch of k-means++) and, with K above the
        # distinct count, duplicate seeds that leave clusters empty.
        data = rng.normal(size=(n_problems, n, d))
        for p in range(0, n_problems, 2):
            data[p] = data[p, rng.integers(min(distinct, n), size=n)]
        got_rngs, want_rngs = spawn_rngs(seed, n_problems), spawn_rngs(seed, n_problems)
        centroids, n_iter = kmeans_batch(data, k, got_rngs, n_iters=n_iters)
        for p in range(n_problems):
            want = reference_kmeans(data[p], k, n_iters=n_iters, seed=want_rngs[p])
            np.testing.assert_array_equal(centroids[p].astype(np.float32), want.centroids)
            assert n_iter[p] == want.n_iter
            assert got_rngs[p].random() == want_rngs[p].random()


class TestStreamingCacheProperties:
    @staticmethod
    def _million_cache(recent_window: int) -> MillionKVCacheLayer:
        config = MillionConfig(m_subspaces=4, nbits=5, recent_window=recent_window)
        return MillionKVCacheLayer(CACHE_CONFIG, _SHARED_PQ, _SHARED_PQ, config)

    @given(
        block_sizes=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=8),
        recent_window=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_million_token_accounting(self, block_sizes, recent_window, seed):
        """stored + pending == appended, and pending covers the recent window."""
        rng = np.random.default_rng(seed)
        cache = self._million_cache(recent_window)
        total = 0
        for size in block_sizes:
            keys = rng.normal(size=(size, 2, 16)).astype(np.float32)
            values = rng.normal(size=(size, 2, 16)).astype(np.float32)
            cache.append(keys, values)
            total += size
            assert cache.stored_tokens + cache.pending_tokens == total == cache.seq_len
            assert cache.pending_tokens >= min(recent_window, total) - max(block_sizes)

    @given(
        block_sizes=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_million_attention_always_finite_and_bounded(self, block_sizes, seed):
        """Attention output is finite and inside the convex hull bound of values."""
        rng = np.random.default_rng(seed)
        cache = self._million_cache(recent_window=4)
        all_values = []
        total = 0
        for size in block_sizes:
            keys = rng.normal(size=(size, 2, 16)).astype(np.float32)
            values = rng.normal(size=(size, 2, 16)).astype(np.float32)
            all_values.append(values)
            cache.append(keys, values)
            total += size
        queries = rng.normal(size=(1, 2, 16)).astype(np.float32)
        out = cache.attend(queries, np.asarray([total - 1]), 0.25)
        assert np.isfinite(out).all()
        stacked = np.concatenate(all_values, axis=0)
        # Softmax-weighted sums of (approximately reconstructed) values cannot
        # stray far outside the range of the true values.
        margin = 3.0 * np.abs(stacked).max()
        assert np.abs(out).max() <= margin

    @given(
        group_size=st.integers(min_value=1, max_value=16),
        residual=st.integers(min_value=0, max_value=16),
        n_blocks=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_kivi_cache_accounting(self, group_size, residual, n_blocks, seed):
        rng = np.random.default_rng(seed)
        cache = KiviKVCache(
            CACHE_CONFIG, KiviConfig(nbits=4, group_size=group_size, residual_length=residual)
        )
        total = 0
        for _ in range(n_blocks):
            size = int(rng.integers(1, 20))
            cache.append(
                rng.normal(size=(size, 2, 16)).astype(np.float32),
                rng.normal(size=(size, 2, 16)).astype(np.float32),
            )
            total += size
        assert cache.stored_tokens + cache.pending_tokens == total
        assert cache.stored_tokens % group_size == 0


class TestPerfModelProperties:
    @given(context=st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_kv_bytes_monotone_in_context(self, context):
        smaller = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, context)
        larger = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, context + 128)
        assert larger > smaller

    @given(prefill=st.sampled_from([1024, 2048, 4096, 8192, 16384, 32768]))
    @settings(max_examples=12, deadline=None)
    def test_million_never_slower_than_baseline_beyond_1k(self, prefill):
        """Table IV starts at 1K context; below that the two are within noise."""
        baseline = estimate_tpot(LLAMA_2_7B, FP16_BASELINE, prefill)
        million = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, prefill)
        if not baseline.oom and not million.oom:
            assert million.tpot_ms <= baseline.tpot_ms * 1.02
