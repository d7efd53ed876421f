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
``engine.stats()``.  Sequences decoding together over the adopted prefix
reconstruct it once per layer per step and all reuse it (the ``shared``
reconstructed rows), and so does the prompt of a request admitted beside
them; without ``--tiers`` the script asserts both happened.

``--tiers`` also serves every prompt on each quality tier — ``balanced``
(the default policy), ``quality`` (half of each layer's heads at 8 bits) and
``compact`` (half at 2 bits) — all over the one pool, and checks each
request the same way, alone on its tier.

Run with::

    python examples/batched_serving.py [--requests 6] [--batch-size 3]
    python examples/batched_serving.py --pool-blocks 64 --shared-prefix 96
    python examples/batched_serving.py --requests 3 --tiers
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import MillionCacheFactory, MillionConfig, calibrate_million
from repro.core.calibration import collect_kv_samples, train_million_quantizers
from repro.data import load_corpus
from repro.models import load_model
from repro.quant.policy import HeadAssignment, QuantPolicy, million_variant
from repro.serving import BatchedMillionEngine, PooledPolicyCacheFactory


def half_heads_at(config, bits: int) -> QuantPolicy:
    """Every layer's first half of KV heads at ``bits``, the rest at 4 bits."""
    half = config.kv_heads // 2
    row = [HeadAssignment("million", bits if h < half else 4) for h in range(config.kv_heads)]
    return QuantPolicy(config.n_layers, config.kv_heads, config.head_dim, [row] * config.n_layers)


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
    parser.add_argument(
        "--tiers",
        action="store_true",
        help="also serve every prompt on the balanced, quality and compact tiers",
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
    default = QuantPolicy.uniform(model.config, "million", 4)
    bank = {4: calibrated}
    tiers = {}
    if args.tiers:
        print("calibrating the 2- and 8-bit codebooks of the tiers ...")
        samples = collect_kv_samples(model, calibration, max_samples_per_layer=1536)
        for bits in (2, 8):
            variant = million_variant(
                model.config.head_dim, bits, kmeans_iters=5, calibration_samples=1536
            )
            bank[bits] = MillionCacheFactory(
                train_million_quantizers(samples, variant), variant
            )
        tiers = {
            "balanced": default,
            "quality": half_heads_at(model.config, 8),
            "compact": half_heads_at(model.config, 2),
        }

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
        the prefix adoptable.  Every tier allocates from its one pool."""
        factory = PooledPolicyCacheFactory(
            model.config, bank, num_blocks=args.pool_blocks,
            block_tokens=args.block_tokens, policy=default, tiers=tiers,
        )
        return BatchedMillionEngine(
            model,
            factory,
            max_batch_size=max_batch_size,
            prefill_token_budget=args.shared_prefix or None,
        )

    server = engine(args.batch_size)
    requests = [
        (f"user-{i}" + (f"-{tier}" if tier else ""), prompt, tier)
        for i, prompt in enumerate(prompts)
        for tier in (None, *tiers)
    ]
    for n, (request_id, prompt, tier) in enumerate(requests):
        budget = args.max_new_tokens - 2 * (n % 3)
        server.add_request(prompt, max_new_tokens=budget, request_id=request_id, tier=tier)

    print(
        f"serving {len(requests)} requests with max_batch_size={args.batch_size} "
        f"pool_blocks={args.pool_blocks} ..."
    )
    start = time.perf_counter()
    step = 0
    layers = model.config.n_layers
    # Steps that admitted one request, which adopted the system prefix,
    # while others decoded: (shared rows the step took, rows the decode
    # rows and one segment of the new request take from the prefix run).
    admissions = []
    while server.scheduler.has_work:
        running = {state.request_id for state in server.scheduler.running}
        decoding = sum(not state.prefilling for state in server.scheduler.running)
        shared = server.pool.reconstructed_rows["shared"]
        reused, preempted = server.prefill_tokens_reused, server.preemption_count
        outputs = server.step()
        step += 1
        admitted = [s for s in server.scheduler.running if s.request_id not in running]
        adopted = server.prefill_tokens_reused - reused
        if len(admitted) == 1 and adopted and decoding and server.preemption_count == preempted:
            admissions.append((
                server.pool.reconstructed_rows["shared"] - shared,
                2 * layers * adopted * (decoding + 1),
            ))
        finished = [o.request_id for o in outputs if o.finished]
        if finished:
            print(
                f"  step {step:3d}: running={server.running_count} "
                f"queued={server.queued_count} finished={', '.join(finished)}"
            )
    wall = time.perf_counter() - start

    total_tokens = 0
    for request_id, prompt, tier in requests:
        state = server.state_of(request_id)
        total_tokens += len(state.generated)
        line = (
            f"  {request_id}: prompt={prompt.size:3d} tokens "
            f"generated={len(state.generated):2d} "
            f"finish={state.finish_reason.value:9s} "
            f"preemptions={state.preemptions}"
        )
        # The reference: the same request served alone, on its own pool.
        alone_engine = engine(1)
        alone_id = alone_engine.add_request(prompt, state.request.max_new_tokens, tier=tier)
        alone = alone_engine.run()[alone_id]
        identical = np.array_equal(alone, state.generated_ids)
        line += f" identical-to-alone={identical}"
        assert identical, "batched output diverged from the request served alone"
        print(line)
    rows = server.stats()["pool"]["reconstructed_rows"]
    if not tiers:
        # The burst's sequences decode over one adopted system prefix, which
        # each step reconstructs once per layer for all of them; a request
        # admitted beside them takes the prefix from the same run for its
        # prompt segments.  A pool too small for two sequences (it preempts)
        # admits nobody beside a decoding one.
        assert rows["shared"] > 0, "no decode step shared the system prefix"
        if args.requests > args.batch_size and not server.preemption_count:
            assert admissions, "no request was admitted while others decoded"
        for taken, lowest in admissions:
            assert taken >= lowest, "an admitted request gathered its adopted prefix"
        print(
            f"  {len(admissions)} admissions beside decoding requests took "
            "the prefix from its run"
        )
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
    print(
        f"  reconstructed rows: {rows['gathered']} gathered, "
        f"{rows['shared']} taken from shared prefix runs"
    )


if __name__ == "__main__":
    main()
