#!/usr/bin/env python
"""Continuous-batching demo: many concurrent requests, one calibrated model.

Calibrates MILLION once, then submits a burst of requests with different
prompt lengths and generation budgets to :class:`BatchedMillionEngine`.  The
engine interleaves one decode step per running sequence, admits queued
requests the moment a slot frees up, and streams tokens back per request.

Every prompt shares a common system prefix.  Quantized KV blocks are
allocated from a bounded :class:`BlockPool` of ``--pool-blocks`` blocks and
shared across requests, so prefill of the prefix is paid once (the stats
show reused vs computed prefill tokens and pool utilization).  Making the
pool small forces preemption and restore, which keeps greedy outputs
unchanged: at the end the script verifies every request's batched output is
token-identical to serving that request alone on a single-slot engine, and
reports per-request finish reasons plus aggregate throughput and
``engine.stats()``.

Run with::

    python examples/batched_serving.py [--requests 6] [--batch-size 3]
    python examples/batched_serving.py --pool-blocks 64 --shared-prefix 96
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.models import load_model
from repro.serving import BatchedMillionEngine, BlockPool, PooledMillionCacheFactory


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=6, help="number of requests")
    parser.add_argument("--batch-size", type=int, default=3, help="running-set cap")
    parser.add_argument("--max-new-tokens", type=int, default=24)
    parser.add_argument(
        "--pool-blocks",
        type=int,
        default=512,
        help="blocks in the paged KV block pool (>= 1)",
    )
    parser.add_argument(
        "--block-tokens", type=int, default=16, help="tokens per pool block"
    )
    parser.add_argument(
        "--shared-prefix",
        type=int,
        default=96,
        help="system-prompt tokens shared by every request",
    )
    args = parser.parse_args()

    model = load_model("llama-2-7b-tiny", seed=0, max_seq_len=1024)
    vocab = model.config.vocab_size
    calibration = load_corpus("wikitext2-syn", "train", 768) % vocab
    million = MillionConfig.for_equivalent_bits(
        model.config.head_dim, bits=4, kmeans_iters=5, calibration_samples=1536
    )
    print("calibrating MILLION codebooks once for all requests ...")
    calibrated = calibrate_million(model, calibration, million)

    system_prefix = load_corpus("wikitext2-syn", "test", args.shared_prefix, seed=99) % vocab
    prompts = [
        np.concatenate(
            [system_prefix, load_corpus("wikitext2-syn", "test", 32 + 8 * i, seed=i) % vocab]
        )
        for i in range(args.requests)
    ]

    def engine(max_batch_size: int) -> BatchedMillionEngine:
        """An engine over a fresh pool.  A per-step prefill budget of one
        system prefix puts a chunk boundary at the prefix end, which makes
        the prefix adoptable."""
        pool = BlockPool.for_model(
            model.config, million, num_blocks=args.pool_blocks,
            block_tokens=args.block_tokens,
        )
        return BatchedMillionEngine(
            model,
            PooledMillionCacheFactory.from_factory(calibrated, pool),
            max_batch_size=max_batch_size,
            prefill_token_budget=args.shared_prefix or None,
        )

    server = engine(args.batch_size)
    for i, prompt in enumerate(prompts):
        budget = args.max_new_tokens - 2 * (i % 3)
        server.add_request(prompt, max_new_tokens=budget, request_id=f"user-{i}")

    print(
        f"serving {args.requests} requests with max_batch_size={args.batch_size} "
        f"pool_blocks={args.pool_blocks} ..."
    )
    start = time.perf_counter()
    step = 0
    while server.scheduler.has_work:
        outputs = server.step()
        step += 1
        finished = [o.request_id for o in outputs if o.finished]
        if finished:
            print(
                f"  step {step:3d}: running={server.running_count} "
                f"queued={server.queued_count} finished={', '.join(finished)}"
            )
    wall = time.perf_counter() - start

    total_tokens = 0
    for i, prompt in enumerate(prompts):
        state = server.state_of(f"user-{i}")
        total_tokens += len(state.generated)
        line = (
            f"  user-{i}: prompt={prompt.size:3d} tokens "
            f"generated={len(state.generated):2d} "
            f"finish={state.finish_reason.value:9s} "
            f"preemptions={state.preemptions}"
        )
        # The reference: the same request served alone, on its own pool.
        (alone,) = engine(1).generate_batch([prompt], state.request.max_new_tokens)
        identical = np.array_equal(alone, state.generated_ids)
        line += f" identical-to-alone={identical}"
        assert identical, "batched output diverged from the request served alone"
        print(line)
    print(
        f"served {total_tokens} tokens in {wall:.2f}s "
        f"({total_tokens / wall:.1f} tok/s aggregate)"
    )

    stats = server.stats()
    print("engine stats:")
    for key in (
        "finished",
        "preemptions",
        "prefill_tokens_computed",
        "prefill_tokens_reused",
        "active_cache_memory_bytes",
    ):
        print(f"  {key}: {stats[key]}")
    pool_stats = stats["pool"]
    print(
        f"  pool: {pool_stats['used_blocks']}/{pool_stats['num_blocks']} blocks used "
        f"({100 * pool_stats['utilization']:.1f}%), "
        f"{pool_stats['adoptions']} adoptions, "
        f"{pool_stats['evictions']} evictions"
    )


if __name__ == "__main__":
    main()
