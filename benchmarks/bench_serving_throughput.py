"""Serving-path benchmarks: flat decode-step storage cost and batched throughput.

Two claims introduced by the contiguous-storage refactor and the serving
layer are measured here:

1. **Decode-step storage cost is flat in context length.**  The seed
   implementation re-concatenated every stored code block and every pending
   full-precision block on each step, so the storage overhead of one decode
   step grew linearly with context (O(T²) traffic across a generation).  With
   ``CodeStore``/``PendingBuffer`` the append is amortized O(1) and reads are
   zero-copy views, so the per-step storage cost must not grow with how many
   tokens are already stored.  (The ADC *compute* term is intrinsically O(T)
   per step — that is the attention math itself, reported separately.)

2. **Continuous batching serves many sequences at sequential-loop cost.**
   ``BatchedMillionEngine`` swaps per-request contexts through one model; the
   benchmark verifies the swap overhead is small (aggregate tokens/s within a
   modest factor of the sequential loop at every batch size) and that larger
   batches keep aggregate throughput while interleaving progress across
   requests.  The sequential loop serves each prompt on its own single-slot
   engine, in turn, each step a batch-of-one fused forward; every engine
   gets a fresh block pool that never evicts.

Registered as part of the ``serving`` suite; run standalone with
``PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -s``
or through ``PYTHONPATH=src python -m repro.bench run --suite serving``.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from _bench_shared import never_evicting_factory, run_registered
from repro.bench import HIGHER, BenchContext, benchmark_case
from repro.core import MillionConfig, ProductQuantizer, calibrate_million
from repro.core.million_cache import MillionKVCacheLayer
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.serving import BatchedMillionEngine


@lru_cache(maxsize=None)
def storage_setup():
    rng = np.random.default_rng(0)
    head_dim = 64
    vectors = rng.normal(size=(4096, head_dim)).astype(np.float32)
    pq = ProductQuantizer.fit(vectors, m_subspaces=32, nbits=8, kmeans_iters=5, seed=0)
    config = ModelConfig(
        vocab_size=256, d_model=256, n_layers=1, n_heads=4, n_kv_heads=2, max_seq_len=65536
    )
    return {"pq": pq, "config": config, "head_dim": head_dim}


def _filled_cache(n_tokens: int) -> MillionKVCacheLayer:
    setup = storage_setup()
    pq, config = setup["pq"], setup["config"]
    million = MillionConfig(m_subspaces=32, nbits=8, recent_window=32)
    cache = MillionKVCacheLayer(config, pq, pq, million)
    rng = np.random.default_rng(1)
    block = 512
    for _ in range(n_tokens // block):
        keys = rng.normal(size=(block, 2, 64)).astype(np.float32)
        cache.append(keys, keys)
    return cache


def _context_lengths(ctx: BenchContext) -> list[int]:
    return ctx.pick(full=[1024, 4096, 16384], smoke=[1024, 4096])


@benchmark_case(
    "serving.decode_storage_flat", suite="serving", budget_s=120.0, smoke_budget_s=30.0
)
def bench_decode_storage_flat(ctx: BenchContext) -> None:
    """Append + stored/pending reads per decode step must not grow with context."""
    rng = np.random.default_rng(2)
    context_lengths = _context_lengths(ctx)
    repeats = ctx.pick(full=200, smoke=100)
    ctx.set_params(context_lengths=context_lengths, repeats=repeats)
    ctx.emit("context_tokens  storage_us_per_step")
    measured = {}
    for n_tokens in context_lengths:
        cache = _filled_cache(n_tokens)
        key = rng.normal(size=(1, 2, 64)).astype(np.float32)

        def storage_step():
            cache.append(key, key)
            cache._stored_key_codes()
            cache._stored_value_codes()

        per_step = ctx.measure(storage_step, repeats=repeats, warmup=3)
        measured[n_tokens] = per_step
        ctx.record(f"storage_us_per_step@{n_tokens}", per_step * 1e6, unit="us", gated=False)
        ctx.emit(f"{n_tokens:14d}  {per_step * 1e6:19.2f}")
    # Before the refactor this ratio tracked the context growth itself (16x
    # from 1k to 16k); flat-with-noise keeps it near 1 regardless of scale.
    ratio = measured[context_lengths[-1]] / measured[context_lengths[0]]
    span = context_lengths[-1] // context_lengths[0]
    ctx.record("flatness_ratio", ratio, unit="x", tolerance_pct=150.0)
    ctx.emit("", f"storage cost ratio {context_lengths[-1]}/{context_lengths[0]}: "
                 f"{ratio:.2f}x (linear growth would be {span}x)")


@benchmark_case("serving.decode_attend", suite="serving", budget_s=120.0, smoke_budget_s=30.0)
def bench_decode_attend(ctx: BenchContext) -> None:
    """Full attend per step (storage + ADC compute, the intrinsic O(T) term)."""
    context_lengths = _context_lengths(ctx)
    rng = np.random.default_rng(3)
    queries = rng.normal(size=(1, 4, 64)).astype(np.float32)
    repeats = ctx.pick(full=20, smoke=10)
    ctx.set_params(context_lengths=context_lengths, repeats=repeats)
    ctx.emit("context_tokens  attend_ms_per_step")
    for n_tokens in context_lengths:
        cache = _filled_cache(n_tokens)
        positions = np.asarray([cache.seq_len - 1])
        per_step = ctx.measure(
            lambda: cache.attend(queries, positions, 0.125), repeats=repeats, warmup=2
        )
        ctx.record(f"attend_ms_per_step@{n_tokens}", per_step * 1e3, unit="ms", gated=False)
        ctx.emit(f"{n_tokens:14d}  {per_step * 1e3:18.3f}")


@lru_cache(maxsize=None)
def serving_setup(smoke: bool = False):
    config = ModelConfig(
        name="serving-bench-lm",
        vocab_size=256,
        d_model=64,
        n_layers=2,
        n_heads=2,
        max_seq_len=2048,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    model = build_model(config, seed=0)
    calibration = load_corpus("wikitext2-syn", "train", 512, seed=0) % config.vocab_size
    million = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=3 if smoke else 4, calibration_samples=1024
    )
    factory = calibrate_million(model, calibration, million)
    n_prompts = 4 if smoke else 8
    prompts = [
        load_corpus("wikitext2-syn", "test", 64, seed=i) % config.vocab_size
        for i in range(n_prompts)
    ]
    return {"model": model, "factory": factory, "prompts": prompts}


@benchmark_case(
    "serving.batched_throughput", suite="serving", budget_s=300.0, smoke_budget_s=90.0
)
def bench_batched_throughput(ctx: BenchContext) -> None:
    """Aggregate decode throughput for N requests under varying batch caps."""
    setup = serving_setup(ctx.smoke)
    model, factory, prompts = setup["model"], setup["factory"], setup["prompts"]
    max_new = ctx.pick(full=24, smoke=8)
    batch_sizes = ctx.pick(full=(1, 2, 4, 8), smoke=(1, 4))
    ctx.set_params(n_prompts=len(prompts), max_new_tokens=max_new, batch_sizes=batch_sizes)
    ctx.emit("batch_size  wall_s  tokens_per_s")

    start = time.perf_counter()
    expected = [
        BatchedMillionEngine(
            model, never_evicting_factory(model, factory, 1), max_batch_size=1
        ).generate_batch([prompt], max_new_tokens=max_new)[0]
        for prompt in prompts
    ]
    sequential_wall = time.perf_counter() - start
    total_tokens = sum(len(tokens) for tokens in expected)
    sequential_throughput = total_tokens / sequential_wall
    ctx.record("sequential_tokens_per_s", sequential_throughput, unit="tok/s",
               direction=HIGHER, gated=False)
    ctx.emit(f"{'seq-loop':>10s}  {sequential_wall:6.2f}  {sequential_throughput:12.1f}")

    for batch_size in batch_sizes:
        engine = BatchedMillionEngine(
            model,
            never_evicting_factory(model, factory, len(prompts)),
            max_batch_size=batch_size,
        )
        start = time.perf_counter()
        results = engine.generate_batch(prompts, max_new_tokens=max_new)
        wall = time.perf_counter() - start
        for want, got in zip(expected, results):
            np.testing.assert_array_equal(want, got)  # token-identical under greedy
        tokens_per_s = total_tokens / wall
        ctx.record(f"batch{batch_size}_tokens_per_s", tokens_per_s, unit="tok/s",
                   direction=HIGHER, gated=False)
        # Relative throughput is far more CI-stable than absolute tok/s, so the
        # gate watches the swap-overhead ratio instead of the raw rate.
        ctx.record(f"batch{batch_size}_rel_throughput", tokens_per_s / sequential_throughput,
                   unit="x", direction=HIGHER, tolerance_pct=40.0)
        ctx.emit(f"{batch_size:10d}  {wall:6.2f}  {tokens_per_s:12.1f}")


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_decode_step_storage_cost_flat_in_context(results_writer):
    result = run_registered("serving.decode_storage_flat")
    results_writer("serving_decode_storage_flat", result.text)
    # Flat-with-noise means well under the 16x linear slope from 1k to 16k.
    assert result.metric("flatness_ratio").value < 4.0


def test_decode_attend_total_cost_reported(results_writer):
    result = run_registered("serving.decode_attend")
    results_writer("serving_decode_attend_total", result.text)
    assert result.metric("attend_ms_per_step@16384").value > 0


def test_throughput_across_batch_sizes(results_writer):
    result = run_registered("serving.batched_throughput")
    results_writer("serving_throughput_batch", result.text)
    # Context swapping must not tax throughput: every batch size stays within
    # a modest factor of the sequential loop.
    for batch_size in result.params["batch_sizes"]:
        rel = result.metric(f"batch{batch_size}_rel_throughput").value
        assert rel > 0.6, f"batch={batch_size} throughput collapsed to {rel:.2f}x sequential"
