"""The engine configuration every workload uses, and the after-run checks.

One fixed configuration — the production path: pooled blocks, fused decode,
chunked prefill, priority-aware admission, 4-bit MILLION on
``llama-2-7b-tiny`` — built through the public
:class:`~repro.gateway.bootstrap.GatewayConfig` / ``build_engines`` (or the
``python -m repro.gateway`` CLI with the same values, see
:func:`gateway_flags`).  ``chunked_prefill`` is set explicitly because the
gateway default is off, and ``trace_capacity``/``profiler`` are off unless
the run is traced, because the gateway CLI defaults turn both on.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from perfbench.loop import Record
from perfbench.workloads import BLOCK_TOKENS, Workload

#: GatewayConfig fields every workload uses; ``profiler`` follows the trace
#: flag.  ``max_seq_len`` fits the 1024-token document plus question and
#: answer; the pool holds the document and every client's blocks without
#: evicting.
ENGINE_CONFIG = {
    "model": "llama-2-7b-tiny",
    "seed": 0,
    "bits": 4,
    "max_seq_len": 2048,
    "replicas": 1,
    "max_batch_size": 4,
    "max_queue_size": 64,
    "pool_blocks": 1024,
    "block_tokens": BLOCK_TOKENS,
    "priority_aware": 1,
    "chunked_prefill": 1,
    "trace_capacity": 0,
}


def gateway_config(traced: bool):
    from repro.gateway.bootstrap import GatewayConfig

    return GatewayConfig(**ENGINE_CONFIG, profiler=int(traced))


def gateway_flags(traced: bool) -> list[str]:
    """The same configuration as ``python -m repro.gateway`` flags."""
    flags = []
    for key, value in {**ENGINE_CONFIG, "profiler": int(traced)}.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


def build_engine(traced: bool):
    from repro.gateway.bootstrap import build_engines

    (engine,) = build_engines(gateway_config(traced))
    return engine


# Checks run after the timed window --------------------------------------------


@dataclass
class Agreement:
    """Generated tokens equal to the full-precision model's greedy choice."""

    agree: int
    total: int

    @property
    def share(self) -> float:
        return self.agree / self.total if self.total else float("nan")


def fp_top1_agreement(
    records: list[Record], shared_prefixes: tuple[tuple[int, ...], ...] = ()
) -> Agreement:
    """Teacher-forced top-1 agreement with the full-precision model.

    For each record, the full-precision model (same weights, uncompressed
    KV cache) reads the prompt and the tokens the engine generated, and each
    generated token is compared with its greedy choice at that position.
    One flipped token moves the share by one token, not by the rest of the
    sequence.  A prompt that starts with one of ``shared_prefixes`` reuses
    a copy of that prefix's cache, computed once.
    """
    from repro.models.model_zoo import load_model

    model = load_model(
        ENGINE_CONFIG["model"],
        seed=ENGINE_CONFIG["seed"],
        max_seq_len=ENGINE_CONFIG["max_seq_len"],
    )
    contexts: dict[tuple[int, ...], object] = {}
    agree = total = 0
    for record in records:
        prompt = record.request.prompt
        prefix = next((p for p in shared_prefixes if prompt[: len(p)] == p), ())
        model.reset_cache()
        if prefix:
            if prefix not in contexts:
                _forward_chunked(model, np.asarray(prefix, dtype=np.int64))
                contexts[prefix] = model.save_context()
            model.restore_context(copy.deepcopy(contexts[prefix]))
        start = len(prefix)
        history = np.asarray(prompt + tuple(record.tokens[:-1]), dtype=np.int64)
        logits = _forward_chunked(model, history[start:])
        first = len(prompt) - 1 - start
        predicted = np.argmax(logits[first:], axis=-1)
        agree += int(np.sum(predicted == np.asarray(record.tokens)))
        total += len(record.tokens)
    return Agreement(agree, total)


def _forward_chunked(model, ids: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Full-precision forward in chunks (same logits, smaller score arrays)."""
    return np.concatenate(
        [model.forward(ids[i : i + chunk]) for i in range(0, ids.size, chunk)]
    )


def solo_mismatches(engine, records: list[Record]) -> list[str]:
    """Re-generate each record alone; ids whose tokens differ from the batch."""
    bad = []
    for record in records:
        (solo,) = engine.generate_batch(
            [np.asarray(record.request.prompt, dtype=np.int64)],
            record.request.max_new_tokens,
        )
        if [int(t) for t in solo] != record.tokens:
            bad.append(record.request.request_id)
    return bad


def prime(engine, workload: Workload) -> Optional[float]:
    """Serve the workload's primers to completion; returns their wall seconds."""
    if not workload.primers:
        return None
    start = time.perf_counter()
    engine.generate_batch([np.asarray(p, dtype=np.int64) for p in workload.primers], 1)
    return time.perf_counter() - start


def engine_counters(engine) -> dict:
    """Cumulative engine, pool and profiler counters (for window deltas)."""
    stats = engine.stats()
    timing = stats["step_timing"]
    pool = stats["pool"] or {}
    hist = stats["histograms"]
    return {
        "prefill_s": timing["prefill_seconds_total"],
        "decode_s": timing["decode_seconds_total"],
        "chunk_substeps": timing["prefill_chunks_total"],
        "prefill_tokens_computed": stats["prefill_tokens_computed"],
        "prefill_tokens_reused": stats["prefill_tokens_reused"],
        "block_hits": stats["prefix_block_hits"],
        "block_misses": stats["prefix_block_misses"],
        "preemptions": stats["preemptions"],
        "adoptions": pool.get("adoptions", 0),
        "evictions": pool.get("evictions", 0),
        "decode_steps": hist["decode_step_seconds"]["count"],
        "fused_batch_sum": hist["fused_batch_size"]["sum"],
        "fused_batch_count": hist["fused_batch_size"]["count"],
        "phases": {k: v["total_s"] for k, v in stats["phases"].items()},
    }
