"""Micro-benchmarks of the MILLION computational kernels (NumPy host versions).

These time the actual library code (encode, LUT build, ADC gather, weighted
decode, full cache attention) rather than the analytic GPU model — useful for
tracking host-side regressions of the reproduction itself.

Registered as the ``kernels`` suite of the unified harness; absolute call
times are informational (CI machines are too noisy to gate on), while the
vectorized-vs-naive ADC speedup ratio is gated against the baseline.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np

from _bench_shared import run_registered
from repro.bench import HIGHER, BenchContext, benchmark_case
from repro.core import MillionConfig, ProductQuantizer
from repro.core.million_cache import MillionKVCacheLayer
from repro.models.config import ModelConfig


@lru_cache(maxsize=None)
def kernel_setup(smoke: bool = False):
    rng = np.random.default_rng(0)
    head_dim = 64
    n_vectors = 2048 if smoke else 8192
    n_tokens = 512 if smoke else 2048
    vectors = rng.normal(size=(n_vectors, head_dim)).astype(np.float32)
    vectors[:, 5] *= 6.0
    pq = ProductQuantizer.fit(
        vectors, m_subspaces=32, nbits=8, kmeans_iters=3 if smoke else 6, seed=0
    )
    keys = rng.normal(size=(n_tokens, 2, head_dim)).astype(np.float32)
    values = rng.normal(size=(n_tokens, 2, head_dim)).astype(np.float32)
    queries = rng.normal(size=(1, 4, head_dim)).astype(np.float32)
    codes = pq.encode(keys.reshape(-1, head_dim))
    config = ModelConfig(
        vocab_size=512, d_model=256, n_layers=1, n_heads=4, n_kv_heads=2, max_seq_len=8192
    )
    return {
        "pq": pq,
        "vectors": vectors,
        "keys": keys,
        "values": values,
        "queries": queries,
        "codes": codes,
        "config": config,
        "n_tokens": n_tokens,
    }


def _repeats(ctx: BenchContext) -> int:
    return 5 if ctx.smoke else 20


#: Call sizes of ``kernels.pq_encode``: a decode-step flush, a prefill
#: chunk's flush, and a call whose untiled score tensor was 128 MiB.
ENCODE_SIZES = (64, 512, 4096)


@benchmark_case("kernels.pq_encode", suite="kernels", budget_s=60.0, smoke_budget_s=20.0)
def bench_pq_encode(ctx: BenchContext) -> None:
    """Encode time per call size, and the bytes one call holds beyond its
    output (tracemalloc peak, untimed)."""
    setup = kernel_setup(ctx.smoke)
    pq, n = setup["pq"], setup["n_tokens"]
    batch = setup["vectors"][:n]
    ctx.set_params(
        n_vectors=n, sizes=list(ENCODE_SIZES), m_subspaces=pq.m_subspaces, nbits=pq.nbits
    )
    per_call = ctx.measure(lambda: pq.encode(batch), repeats=_repeats(ctx))
    assert pq.encode(batch).shape == (n, pq.m_subspaces)
    ctx.record("encode_us", per_call * 1e6, unit="us", gated=False)
    ctx.emit(f"pq.encode of {n} vectors: {per_call * 1e6:.1f} us/call")
    rng = np.random.default_rng(1)
    ctx.emit("n_vectors  encode_us  peak_transient_bytes")
    for size in ENCODE_SIZES:
        vectors = rng.normal(size=(size, pq.dim)).astype(np.float32)
        size_call = ctx.measure(lambda: pq.encode(vectors), repeats=_repeats(ctx))
        tracemalloc.start()
        try:
            codes = pq.encode(vectors)
            transient = tracemalloc.get_traced_memory()[1] - codes.nbytes
        finally:
            tracemalloc.stop()
        ctx.record(f"encode_us@{size}", size_call * 1e6, unit="us", gated=False)
        ctx.record(
            f"encode_peak_transient_bytes@{size}", transient, unit="B", gated=False
        )
        ctx.emit(f"{size:9d}  {size_call * 1e6:9.1f}  {transient:20d}")


@benchmark_case("kernels.lut_build", suite="kernels", budget_s=60.0, smoke_budget_s=20.0)
def bench_lut_build(ctx: BenchContext) -> None:
    setup = kernel_setup(ctx.smoke)
    pq = setup["pq"]
    queries = setup["queries"].reshape(-1, 64)
    per_call = ctx.measure(lambda: pq.build_score_luts(queries), repeats=_repeats(ctx))
    assert pq.build_score_luts(queries).shape == (4, pq.m_subspaces, 2**pq.nbits)
    ctx.record("lut_build_us", per_call * 1e6, unit="us", gated=False)
    ctx.emit(f"pq.build_score_luts for 4 queries: {per_call * 1e6:.1f} us/call")


@benchmark_case("kernels.adc_scores", suite="kernels", budget_s=90.0, smoke_budget_s=25.0)
def bench_adc_scores(ctx: BenchContext) -> None:
    """Vectorized ADC gather, including the speedup over the naive loop."""
    setup = kernel_setup(ctx.smoke)
    pq, codes = setup["pq"], setup["codes"]
    luts = pq.build_score_luts(setup["queries"].reshape(-1, 64))
    ctx.set_params(n_codes=int(codes.shape[0]))

    def naive_adc():
        # The pre-optimization fancy-indexing loop, kept for speedup comparison.
        scores = np.zeros((luts.shape[0], codes.shape[0]), dtype=np.float32)
        for m in range(pq.m_subspaces):
            scores += luts[:, m, :][:, codes[:, m]]
        return scores

    np.testing.assert_array_equal(naive_adc(), pq.adc_scores(luts, codes))
    fast = ctx.measure(lambda: pq.adc_scores(luts, codes), repeats=_repeats(ctx))
    naive = ctx.measure(naive_adc, repeats=_repeats(ctx))
    ctx.record("adc_us", fast * 1e6, unit="us", gated=False)
    ctx.record("naive_adc_us", naive * 1e6, unit="us", gated=False)
    ctx.record(
        "adc_speedup_vs_naive_x",
        naive / fast,
        unit="x",
        direction=HIGHER,
        tolerance_pct=60.0,
    )
    ctx.emit(
        f"adc_scores over {codes.shape[0]} codes: {fast * 1e6:.1f} us vectorized, "
        f"{naive * 1e6:.1f} us naive ({naive / fast:.2f}x speedup)"
    )


@benchmark_case("kernels.weighted_decode", suite="kernels", budget_s=60.0, smoke_budget_s=20.0)
def bench_weighted_decode(ctx: BenchContext) -> None:
    setup = kernel_setup(ctx.smoke)
    pq, codes = setup["pq"], setup["codes"]
    probs = np.random.default_rng(1).random((4, codes.shape[0])).astype(np.float32)
    per_call = ctx.measure(lambda: pq.weighted_decode(probs, codes), repeats=_repeats(ctx))
    assert pq.weighted_decode(probs, codes).shape == (4, 64)
    ctx.record("weighted_decode_us", per_call * 1e6, unit="us", gated=False)
    ctx.emit(f"pq.weighted_decode over {codes.shape[0]} codes: {per_call * 1e6:.1f} us/call")


def _filled_cache(setup) -> MillionKVCacheLayer:
    """A MILLION cache holding the setup's ``n_tokens`` keys/values."""
    million = MillionConfig(m_subspaces=32, nbits=8, recent_window=32)
    cache = MillionKVCacheLayer(setup["config"], setup["pq"], setup["pq"], million)
    keys, values = setup["keys"], setup["values"]
    for start in range(0, setup["n_tokens"], 256):
        cache.append(keys[start : start + 256], values[start : start + 256])
    return cache


@benchmark_case(
    "kernels.cache_decode_attend", suite="kernels", budget_s=90.0, smoke_budget_s=25.0
)
def bench_cache_decode_attend(ctx: BenchContext) -> None:
    setup = kernel_setup(ctx.smoke)
    n_tokens = setup["n_tokens"]
    cache = _filled_cache(setup)
    queries = setup["queries"]
    positions = np.asarray([n_tokens - 1])
    ctx.set_params(context_tokens=n_tokens, recent_window=32)
    per_call = ctx.measure(
        lambda: cache.attend(queries, positions, 0.125), repeats=_repeats(ctx)
    )
    assert cache.attend(queries, positions, 0.125).shape == (1, 4, 64)
    ctx.record("decode_attend_us", per_call * 1e6, unit="us", gated=False)
    ctx.emit(
        f"MillionKVCacheLayer.attend at {n_tokens} context tokens: "
        f"{per_call * 1e6:.1f} us/step"
    )


@benchmark_case(
    "kernels.cache_chunk_attend", suite="kernels", budget_s=90.0, smoke_budget_s=25.0
)
def bench_cache_chunk_attend(ctx: BenchContext) -> None:
    """A 128-query prefill chunk: GEMMs over the reconstructed history."""
    setup = kernel_setup(ctx.smoke)
    n_tokens, n_queries = setup["n_tokens"], 128
    cache = _filled_cache(setup)
    queries = np.random.default_rng(2).normal(size=(n_queries, 4, 64)).astype(np.float32)
    positions = np.arange(n_tokens - n_queries, n_tokens)
    ctx.set_params(context_tokens=n_tokens, n_queries=n_queries, recent_window=32)
    per_call = ctx.measure(
        lambda: cache.attend(queries, positions, 0.125), repeats=_repeats(ctx)
    )
    assert cache.attend(queries, positions, 0.125).shape == (n_queries, 4, 64)
    ctx.record("chunk_attend_us", per_call * 1e6, unit="us", gated=False)
    ctx.emit(
        f"MillionKVCacheLayer.attend of {n_queries} queries at {n_tokens} context "
        f"tokens: {per_call * 1e6:.1f} us/chunk"
    )


# ---------------------------------------------------------------------------
# pytest entry points (``PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -s``)
# ---------------------------------------------------------------------------


def test_kernel_pq_encode(results_writer):
    result = run_registered("kernels.pq_encode")
    results_writer("kernels_pq_encode", result.text)
    assert result.metric("encode_us").value > 0


def test_kernel_lut_build(results_writer):
    result = run_registered("kernels.lut_build")
    results_writer("kernels_lut_build", result.text)
    assert result.metric("lut_build_us").value > 0


def test_kernel_adc_scores(results_writer):
    result = run_registered("kernels.adc_scores")
    results_writer("kernels_adc_scores", result.text)
    # The vectorized gather must not be slower than the fancy-indexing loop it
    # replaced (PR 1 measured ~2x; CI noise makes the exact factor ungateable
    # here — the gate tracks it against the committed baseline instead).
    assert result.metric("adc_speedup_vs_naive_x").value > 1.0


def test_kernel_weighted_decode(results_writer):
    result = run_registered("kernels.weighted_decode")
    results_writer("kernels_weighted_decode", result.text)
    assert result.metric("weighted_decode_us").value > 0


def test_kernel_million_cache_decode_attention(results_writer):
    result = run_registered("kernels.cache_decode_attend")
    results_writer("kernels_cache_decode_attend", result.text)
    assert result.metric("decode_attend_us").value > 0


def test_kernel_million_cache_chunk_attention(results_writer):
    result = run_registered("kernels.cache_chunk_attend")
    results_writer("kernels_cache_chunk_attend", result.text)
    assert result.metric("chunk_attend_us").value > 0
