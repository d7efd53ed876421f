"""Fused cross-request batched decode: tokens/sec vs batch size.

The serving engine's fused decode path runs **one** stacked forward per
engine step for the whole running batch (one paired-GEMM projection pass per
layer, one LUT build for all B*H query heads, one segment-ADC gather over
kept per-layer indices, one batched flush encode) instead of one full Python
model traversal per sequence.  The per-sequence reference serves the same B
prompts through B single-slot engines stepped round-robin, so every step is
B separate batch-of-one fused forwards.  Token streams are bit-identical
between the two — asserted here on the measured workload — so the only
difference is wall time.

This case records aggregate decode tokens/sec for fused vs per-sequence
("sequential") at B in {1, 4, 16} and gates the B=16 speedup ratio: the
fused path must stay at least 2x faster than the per-sequence reference on
the smoke model (ratios are far more CI-stable than absolute tok/s).

Run standalone with
``PYTHONPATH=src python -m pytest benchmarks/bench_serving_batched_decode.py -s``
or through ``PYTHONPATH=src python -m repro.bench run --suite serving``.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from _bench_shared import never_evicting_factory, run_registered
from repro.bench import HIGHER, BenchContext, benchmark_case
from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.serving import BatchedMillionEngine

BATCH_SIZES = (1, 4, 16)
#: Acceptance bar for the fused path at the largest batch size.
MIN_SPEEDUP_B16 = 2.0


@lru_cache(maxsize=None)
def decode_setup(smoke: bool = False):
    config = ModelConfig(
        name="batched-decode-bench-lm",
        vocab_size=256,
        d_model=128,
        n_layers=2,
        n_heads=4,
        max_seq_len=4096,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    model = build_model(config, seed=0)
    calibration = load_corpus("wikitext2-syn", "train", 768, seed=0) % config.vocab_size
    million = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=3 if smoke else 5,
        calibration_samples=1024,
    )
    factory = calibrate_million(model, calibration, million)
    rng = np.random.default_rng(12)
    prompts = [
        load_corpus("wikitext2-syn", "test", int(rng.integers(48, 128)), seed=i)
        % config.vocab_size
        for i in range(max(BATCH_SIZES))
    ]
    return {"model": model, "factory": factory, "prompts": prompts}


def _decode_tokens_per_s(
    model, factory, prompts, fused: bool, warmup_steps: int, steps: int
) -> tuple[float, list[np.ndarray]]:
    """Steady-state decode throughput plus the tokens decoded while timing.

    ``fused`` serves every prompt from one engine; otherwise each prompt gets
    its own single-slot engine, whose steps are batch-of-one fused forwards,
    and one round of steps advances them all.
    """
    groups = [prompts] if fused else [[prompt] for prompt in prompts]
    engines = []
    for group in groups:
        engine = BatchedMillionEngine(
            model,
            never_evicting_factory(model, factory, len(group)),
            max_batch_size=len(group),
        )
        for prompt in group:
            # A budget no request exhausts: every timed step decodes the full batch.
            engine.add_request(prompt, max_new_tokens=10_000)
        engines.append(engine)
    for _ in range(warmup_steps):
        for engine in engines:
            engine.step()
    streams: list[list[int]] = [[] for _ in prompts]
    start = time.perf_counter()
    decoded = 0
    for _ in range(steps):
        for first, engine in enumerate(engines):
            for output in engine.step():
                # Each engine numbers its requests from 0.
                index = first + int(output.request_id.split("-")[-1])
                streams[index].append(output.token)
                decoded += 1
    wall = time.perf_counter() - start
    return decoded / wall, [np.asarray(s) for s in streams]


@benchmark_case(
    "serving.batched_decode_scaling", suite="serving", budget_s=300.0,
    smoke_budget_s=90.0,
)
def bench_batched_decode_scaling(ctx: BenchContext) -> None:
    """Fused one-forward-per-step decode vs the per-sequence reference."""
    setup = decode_setup(ctx.smoke)
    model, factory = setup["model"], setup["factory"]
    steps = ctx.pick(full=48, smoke=16)
    warmup = ctx.pick(full=12, smoke=6)
    ctx.set_params(
        batch_sizes=list(BATCH_SIZES), steps=steps, warmup_steps=warmup,
        min_speedup_b16=MIN_SPEEDUP_B16,
    )
    ctx.emit("batch  sequential_tok_s  fused_tok_s  speedup")
    speedups = {}
    for batch in BATCH_SIZES:
        prompts = setup["prompts"][:batch]
        seq_rate, seq_streams = _decode_tokens_per_s(
            model, factory, prompts, fused=False, warmup_steps=warmup, steps=steps
        )
        fused_rate, fused_streams = _decode_tokens_per_s(
            model, factory, prompts, fused=True, warmup_steps=warmup, steps=steps
        )
        # The speedup claim only counts if the outputs are the same outputs.
        for want, got in zip(seq_streams, fused_streams):
            np.testing.assert_array_equal(want, got)
        speedup = fused_rate / seq_rate
        speedups[batch] = speedup
        ctx.record(f"sequential_b{batch}_tokens_per_s", seq_rate, unit="tok/s",
                   direction=HIGHER, gated=False)
        ctx.record(f"fused_b{batch}_tokens_per_s", fused_rate, unit="tok/s",
                   direction=HIGHER, gated=False)
        gated = batch == max(BATCH_SIZES)
        ctx.record(
            f"fused_speedup_b{batch}", speedup, unit="x", direction=HIGHER,
            tolerance_pct=35.0, gated=gated,
        )
        ctx.emit(f"{batch:5d}  {seq_rate:16.1f}  {fused_rate:11.1f}  {speedup:6.2f}x")
    ctx.emit(
        "",
        f"B={max(BATCH_SIZES)} fused/sequential speedup "
        f"{speedups[max(BATCH_SIZES)]:.2f}x (bar: >= {MIN_SPEEDUP_B16:.1f}x)",
    )


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_fused_decode_scaling_meets_speedup_bar(results_writer):
    result = run_registered("serving.batched_decode_scaling")
    results_writer("serving_batched_decode_scaling", result.text)
    top = max(BATCH_SIZES)
    speedup = result.metric(f"fused_speedup_b{top}").value
    assert speedup >= MIN_SPEEDUP_B16, (
        f"fused decode at B={top} is only {speedup:.2f}x the sequential loop "
        f"(bar: {MIN_SPEEDUP_B16:.1f}x)"
    )
    # Fused decode must never lose throughput at small batches either.
    assert result.metric("fused_speedup_b1").value > 0.7
