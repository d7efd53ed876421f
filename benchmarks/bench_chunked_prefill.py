#!/usr/bin/env python
"""Chunked prefill vs one-shot: ITL of running streams when a whale lands.

Drives one :class:`BatchedMillionEngine` directly (no HTTP — the stall this
bench measures happens inside ``engine.step()``, so step-granularity
timestamps are the honest measurement).  Four short decode streams warm up,
then a "whale" prompt arrives mid-decode:

* **oneshot** — ``prefill_token_budget=None``: the whale's schedule is one
  chunk, prefilled inside its admission step, and every running stream's
  inter-token gap for that step absorbs the full prefill wall;
* **chunked** — the whale prefills in block-aligned chunks under the
  per-step token budget, interleaved with the fused decode batch, so the
  running streams see gaps bounded by one chunk of work.

Gated claims: p99 ITL of the running streams improves ≥3x under chunking,
while the whale's own TTFT stays within 1.5x of one-shot (the chunks do
the same total work; the overhead is the decode work interleaved between
them).  A second chunked run must reproduce every stream's tokens exactly
— a chunk schedule is its own oracle (cold/warm/restore determinism is
covered in ``tests/serving/test_chunked_prefill.py``; the bench re-checks
cold-vs-cold on the measured workload).

The whale is 8192 tokens full-profile / 2048 smoke: the paper-scale 32k
whale is out of reach for the NumPy reference model (one-shot attention
scores alone would be gigabytes), and 8192 already makes the one-shot
stall two orders of magnitude above a decode step, which is the contrast
the gate certifies.  Registered as ``serving.chunked_prefill``; run
standalone with::

    PYTHONPATH=src python benchmarks/bench_chunked_prefill.py [--smoke]

or through ``python -m repro.bench run --suite serving``.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from _bench_shared import run_registered
from repro.bench import HIGHER, LOWER, BenchContext, benchmark_case
from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.serving import (
    BatchedMillionEngine,
    PooledPolicyCacheFactory,
)


@dataclass(frozen=True)
class Params:
    whale_tokens: int = 8192
    whale_output_tokens: int = 8
    short_streams: int = 4
    short_prompt_tokens: int = 32
    short_output_tokens: int = 96
    prefill_token_budget: int = 256
    block_tokens: int = 16
    pool_blocks: int = 1400
    # Decode steps every short stream completes before the whale arrives —
    # the "running mid-decode" precondition.
    warmup_tokens: int = 8
    seed: int = 11

    @classmethod
    def smoke(cls) -> "Params":
        return cls(
            whale_tokens=2048,
            short_output_tokens=48,
            prefill_token_budget=128,
            pool_blocks=560,
        )


def _build_calibration(params: Params):
    config = ModelConfig(
        name="bench-chunked-prefill",
        vocab_size=256,
        d_model=64,
        n_layers=2,
        n_heads=2,
        max_seq_len=params.whale_tokens + 256,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    calibration_model = build_model(config, seed=0)
    calibration = load_corpus("wikitext2-syn", "train", 768, seed=1) % config.vocab_size
    million = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=4, calibration_samples=1024
    )
    factory = calibrate_million(calibration_model, calibration, million)
    return config, million, factory


def _prompts(params: Params, vocab_size: int):
    corpus = load_corpus(
        "wikitext2-syn",
        "test",
        params.whale_tokens + params.short_streams * params.short_prompt_tokens,
        seed=params.seed,
    ) % vocab_size
    shorts = [
        corpus[i * params.short_prompt_tokens : (i + 1) * params.short_prompt_tokens]
        for i in range(params.short_streams)
    ]
    whale = corpus[params.short_streams * params.short_prompt_tokens :]
    return shorts, whale


def _drive(config, million, base_factory, params: Params, chunked: bool):
    """One whale-mid-decode scenario; returns timing + every stream's tokens.

    The step sequence is wall-clock independent (warm-up ends on a token
    count, the whale lands at a fixed step index), so two runs with the
    same parameters execute identical schedules — which is what makes the
    in-bench determinism check meaningful.
    """
    model = build_model(config, seed=0)
    engine = BatchedMillionEngine(
        model,
        PooledPolicyCacheFactory(
            config, {4: base_factory},
            num_blocks=params.pool_blocks, block_tokens=params.block_tokens,
        ),
        max_batch_size=params.short_streams + 1,
        prefill_token_budget=params.prefill_token_budget if chunked else None,
    )
    shorts, whale = _prompts(params, config.vocab_size)
    short_ids = [
        engine.add_request(prompt, max_new_tokens=params.short_output_tokens)
        for prompt in shorts
    ]
    token_times: dict[str, list[float]] = {rid: [] for rid in short_ids}

    def step_and_record(whale_id=None, whale_first=None):
        outputs = engine.step()
        now = time.perf_counter()
        for out in outputs:
            if out.token is None:
                continue
            if out.request_id in token_times:
                token_times[out.request_id].append(now)
            elif out.request_id == whale_id and whale_first is None:
                whale_first = now
        return whale_first

    while min(len(times) for times in token_times.values()) < params.warmup_tokens:
        step_and_record()

    whale_submitted = time.perf_counter()
    whale_id = engine.add_request(whale, max_new_tokens=params.whale_output_tokens)
    whale_first = None
    while engine.scheduler.has_work:
        whale_first = step_and_record(whale_id, whale_first)
    assert whale_first is not None, "whale never produced a token"

    itl_samples = [
        later - earlier
        for times in token_times.values()
        for earlier, later in zip(times, times[1:])
    ]
    tokens = {rid: engine.state_of(rid).generated_ids.copy() for rid in short_ids}
    tokens["whale"] = engine.state_of(whale_id).generated_ids.copy()
    return {
        "itl_p99_s": float(np.percentile(itl_samples, 99)),
        "whale_ttft_s": whale_first - whale_submitted,
        "tokens": tokens,
        "prefill_chunks": engine.prefill_chunks_total,
    }


def measure_chunked_prefill(ctx: BenchContext, params: Params) -> None:
    ctx.set_params(**vars(params))
    config, million, base_factory = _build_calibration(params)

    oneshot = _drive(config, million, base_factory, params, chunked=False)
    chunked = _drive(config, million, base_factory, params, chunked=True)
    replay = _drive(config, million, base_factory, params, chunked=True)

    # Chunked-vs-chunked determinism: the chunked path is its own oracle.
    assert chunked["tokens"].keys() == replay["tokens"].keys()
    for rid, want in chunked["tokens"].items():
        np.testing.assert_array_equal(
            want, replay["tokens"][rid],
            err_msg=f"chunked rerun diverged on stream {rid}",
        )
    assert chunked["prefill_chunks"] > params.short_streams, (
        "whale prefill never actually chunked"
    )

    itl_improvement = oneshot["itl_p99_s"] / chunked["itl_p99_s"]
    ttft_ratio = chunked["whale_ttft_s"] / oneshot["whale_ttft_s"]

    ctx.record("itl_p99_improvement_x", itl_improvement, unit="x",
               direction=HIGHER, tolerance_pct=60.0)
    ctx.record("whale_ttft_ratio_x", ttft_ratio, unit="x",
               direction=LOWER, tolerance_pct=40.0)
    ctx.record("chunked_itl_p99_ms", chunked["itl_p99_s"] * 1e3, unit="ms",
               direction=LOWER, gated=False)
    ctx.record("oneshot_itl_p99_ms", oneshot["itl_p99_s"] * 1e3, unit="ms",
               direction=LOWER, gated=False)
    ctx.record("chunked_whale_ttft_ms", chunked["whale_ttft_s"] * 1e3, unit="ms",
               direction=LOWER, gated=False)
    ctx.record("oneshot_whale_ttft_ms", oneshot["whale_ttft_s"] * 1e3, unit="ms",
               direction=LOWER, gated=False)

    ctx.emit(
        f"whale {params.whale_tokens} tokens over {params.short_streams} "
        f"running streams, budget {params.prefill_token_budget} tokens/step",
        f"stream ITL p99:  oneshot {oneshot['itl_p99_s'] * 1e3:9.1f} ms   "
        f"chunked {chunked['itl_p99_s'] * 1e3:9.1f} ms   "
        f"({itl_improvement:.1f}x better)",
        f"whale TTFT:      oneshot {oneshot['whale_ttft_s'] * 1e3:9.1f} ms   "
        f"chunked {chunked['whale_ttft_s'] * 1e3:9.1f} ms   "
        f"({ttft_ratio:.2f}x)",
        f"chunk sub-steps: {chunked['prefill_chunks']} "
        f"(chunked rerun token-identical on every stream)",
    )


@benchmark_case(
    "serving.chunked_prefill", suite="serving", budget_s=600.0, smoke_budget_s=180.0
)
def bench_chunked_prefill(ctx: BenchContext) -> None:
    measure_chunked_prefill(ctx, Params.smoke() if ctx.smoke else Params())


def _assert_claims(metrics: dict[str, float]) -> None:
    assert metrics["itl_p99_improvement_x"] >= 3.0, (
        "chunked prefill must improve running streams' p99 ITL >= 3x, got "
        f"{metrics['itl_p99_improvement_x']:.2f}x"
    )
    assert metrics["whale_ttft_ratio_x"] <= 1.5, (
        "chunked whale TTFT must stay within 1.5x of one-shot, got "
        f"{metrics['whale_ttft_ratio_x']:.2f}x"
    )


def test_chunked_prefill(results_writer):
    result = run_registered("serving.chunked_prefill")
    results_writer("chunked_prefill", result.text)
    _assert_claims({m.name: m.value for m in result.metrics})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--whale-tokens", type=int, default=None)
    parser.add_argument("--prefill-token-budget", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    params = Params.smoke() if args.smoke else Params()
    overrides = {
        field: getattr(args, field)
        for field in ("whale_tokens", "prefill_token_budget")
        if getattr(args, field) is not None
    }
    params = Params(**{**vars(params), **overrides})

    print("calibrating MILLION codebooks ...")
    ctx = BenchContext(smoke=args.smoke)
    measure_chunked_prefill(ctx, params)
    print(ctx.text)
    _assert_claims({m.name: m.value for m in ctx.metrics})
    print("OK")


if __name__ == "__main__":
    main()
