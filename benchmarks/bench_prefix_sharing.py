#!/usr/bin/env python
"""Prefix-sharing benchmark: shared-prompt prefill throughput and pool memory.

N requests share a long prompt prefix (the "thousands of users behind one
system prompt" workload from the roadmap).  With the serving block pool, the
first request quantizes the aligned prefix into published blocks and every
later request adopts them, so the prefix's prefill compute and pool blocks
are paid once.  The benchmark measures:

* **prefill throughput** (prompt tokens / wall time until every request
  has its first token) for the shared-prefix workload versus the same
  shapes with unique prefixes, and asserts the sharing speedup is at least
  2x;
* **peak pool blocks and modelled KV bytes** at that point, right after all
  prefills, where sharing should hold the prefix cost constant in N;
* **decode time per token** after that point, unique over shared
  (``shared_decode_speedup_x``, ungated): sequences decoding over one
  adopted prefix reconstruct it once per layer per step instead of once
  per sequence.

Registered as ``serving.prefix_sharing`` in the unified harness.  Run
standalone with::

    PYTHONPATH=src python benchmarks/bench_prefix_sharing.py [--smoke]

or through ``python -m repro.bench run --suite serving``.  ``--smoke``
shrinks every dimension so the benchmark finishes in seconds.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from _bench_shared import run_registered
from repro.bench import HIGHER, BenchContext, benchmark_case
from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.serving import BatchedMillionEngine, PooledPolicyCacheFactory


@dataclass(frozen=True)
class Params:
    requests: int = 8
    prefix_tokens: int = 1024
    suffix_tokens: int = 24
    max_new_tokens: int = 8
    block_tokens: int = 32

    @classmethod
    def smoke(cls) -> "Params":
        return cls(
            requests=4, prefix_tokens=256, suffix_tokens=8, max_new_tokens=2, block_tokens=16
        )


def build_engine(model, factory, million_config, params: Params, n_requests: int):
    per_request_blocks = (
        (params.prefix_tokens + params.suffix_tokens + params.max_new_tokens)
        // params.block_tokens
        + 2
    )
    num_blocks = n_requests * per_request_blocks * model.config.n_layers + 8
    pooled = PooledPolicyCacheFactory(
        model.config, {4: factory}, num_blocks=num_blocks, block_tokens=params.block_tokens
    )
    return BatchedMillionEngine(model, pooled, max_batch_size=n_requests)


def run_workload(model, factory, million_config, params: Params, prompts):
    """Serve ``prompts`` on a fresh pool; returns timing and peak stats.

    Prefill is every step until each request has its first token (sharers
    of a prefix adopt it after the step that publishes it); the pool and
    KV figures are read at that point, and decode is the rest of the run.
    """
    engine = build_engine(model, factory, million_config, params, len(prompts))
    states = [
        engine.state_of(engine.add_request(prompt, max_new_tokens=params.max_new_tokens))
        for prompt in prompts
    ]
    start = time.perf_counter()
    while not all(state.generated for state in states):
        engine.step()
    prefill_seconds = time.perf_counter() - start
    peak = engine.stats()
    start = time.perf_counter()
    engine.run()
    decode_seconds = time.perf_counter() - start
    decode_tokens = sum(len(state.generated) - 1 for state in states)
    total_prompt_tokens = sum(p.size for p in prompts)
    return {
        "prefill_seconds": prefill_seconds,
        "prefill_tokens_per_s": total_prompt_tokens / prefill_seconds,
        "decode_ms_per_token": 1e3 * decode_seconds / decode_tokens,
        "computed": peak["prefill_tokens_computed"],
        "reused": peak["prefill_tokens_reused"],
        "peak_used_blocks": peak["pool"]["used_blocks"],
        "peak_kv_bytes": peak["active_cache_memory_bytes"],
        "shared_rows": engine.stats()["pool"]["reconstructed_rows"]["shared"],
    }


def measure_prefix_sharing(ctx: BenchContext, params: Params) -> None:
    """Core measurement shared by the registered case and the CLI script."""
    config = ModelConfig(
        name="bench-prefix-sharing",
        vocab_size=256,
        d_model=64,
        n_layers=2,
        n_heads=2,
        max_seq_len=params.prefix_tokens + params.suffix_tokens + params.max_new_tokens + 64,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    ctx.set_params(**vars(params))
    model = build_model(config, seed=0)
    vocab = config.vocab_size
    calibration = load_corpus("wikitext2-syn", "train", 1024, seed=1) % vocab
    million_config = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=4, calibration_samples=1024
    )
    factory = calibrate_million(model, calibration, million_config)

    prefix = load_corpus("wikitext2-syn", "test", params.prefix_tokens, seed=2) % vocab
    suffixes = [
        load_corpus("wikitext2-syn", "test", params.suffix_tokens, seed=10 + i) % vocab
        for i in range(params.requests)
    ]
    shared_prompts = [np.concatenate([prefix, suffix]) for suffix in suffixes]
    unique_prompts = [
        np.concatenate(
            [
                load_corpus("wikitext2-syn", "test", params.prefix_tokens, seed=100 + i)
                % vocab,
                suffix,
            ]
        )
        for i, suffix in enumerate(suffixes)
    ]

    unshared = run_workload(model, factory, million_config, params, unique_prompts)
    shared = run_workload(model, factory, million_config, params, shared_prompts)
    speedup = shared["prefill_tokens_per_s"] / unshared["prefill_tokens_per_s"]
    block_ratio = unshared["peak_used_blocks"] / shared["peak_used_blocks"]
    kv_ratio = unshared["peak_kv_bytes"] / shared["peak_kv_bytes"]
    decode_speedup = unshared["decode_ms_per_token"] / shared["decode_ms_per_token"]

    ctx.record("prefill_speedup_x", speedup, unit="x", direction=HIGHER, tolerance_pct=60.0)
    # Block/token accounting is deterministic (integer block bookkeeping), so
    # it gates tightly — a prefix-sharing regression shows up here first.
    ctx.record("peak_block_ratio_x", block_ratio, unit="x", direction=HIGHER,
               tolerance_pct=10.0)
    ctx.record("peak_kv_ratio_x", kv_ratio, unit="x", direction=HIGHER, tolerance_pct=10.0)
    ctx.record("prefix_tokens_reused", shared["reused"], unit="tokens", direction=HIGHER,
               tolerance_pct=5.0)
    ctx.record("shared_prefill_tokens_per_s", shared["prefill_tokens_per_s"],
               unit="tok/s", direction=HIGHER, gated=False)
    ctx.record("unique_prefill_tokens_per_s", unshared["prefill_tokens_per_s"],
               unit="tok/s", direction=HIGHER, gated=False)
    ctx.record("shared_decode_speedup_x", decode_speedup, unit="x", direction=HIGHER,
               gated=False)

    ctx.emit(
        "workload   prefill_tok/s  computed  reused  peak_blocks  peak_kv_bytes  "
        "decode_ms/tok  shared_rows",
        *(
            f"{name:9}  {run['prefill_tokens_per_s']:13.1f}  {run['computed']:8d}  "
            f"{run['reused']:6d}  {run['peak_used_blocks']:11d}  "
            f"{run['peak_kv_bytes']:13.0f}  {run['decode_ms_per_token']:13.2f}  "
            f"{run['shared_rows']:11d}"
            for name, run in (("unique", unshared), ("shared", shared))
        ),
        "",
        f"prefill speedup from sharing: {speedup:.2f}x",
        f"peak pool blocks reduced:     {block_ratio:.2f}x",
        f"peak modelled KV reduced:     {kv_ratio:.2f}x",
        f"decode speedup from sharing:  {decode_speedup:.2f}x",
    )


@benchmark_case("serving.prefix_sharing", suite="serving", budget_s=300.0, smoke_budget_s=60.0)
def bench_prefix_sharing(ctx: BenchContext) -> None:
    measure_prefix_sharing(ctx, Params.smoke() if ctx.smoke else Params())


def _assert_claims(metrics: dict[str, float]) -> None:
    speedup = metrics["prefill_speedup_x"]
    block_ratio = metrics["peak_block_ratio_x"]
    assert speedup >= 2.0, f"prefix sharing must speed up prefill by >= 2x, got {speedup:.2f}x"
    assert block_ratio > 1.5, f"sharing must reduce peak pool blocks, got {block_ratio:.2f}x"


def test_prefix_sharing(results_writer):
    result = run_registered("serving.prefix_sharing")
    results_writer("prefix_sharing", result.text)
    _assert_claims({m.name: m.value for m in result.metrics})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--prefix-tokens", type=int, default=None)
    parser.add_argument("--suffix-tokens", type=int, default=None)
    parser.add_argument("--max-new-tokens", type=int, default=None)
    parser.add_argument("--block-tokens", type=int, default=None)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for CI smoke testing"
    )
    args = parser.parse_args()
    params = Params.smoke() if args.smoke else Params()
    overrides = {
        field: getattr(args, field)
        for field in vars(params)
        if getattr(args, field) is not None
    }
    params = Params(**{**vars(params), **overrides})

    print("calibrating MILLION codebooks ...")
    ctx = BenchContext(smoke=args.smoke)
    measure_prefix_sharing(ctx, params)
    print(ctx.text)
    _assert_claims({m.name: m.value for m in ctx.metrics})
    print("OK")


if __name__ == "__main__":
    main()
