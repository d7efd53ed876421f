"""Per-layer spans, counters and the closure of layer self times.

Layers are named after the program's modules:

=====================  ==================================================
``engine``             ``serving.engine``: ``BatchedMillionEngine.step``/``submit``
``scheduler``          ``serving.scheduler``: ``submit``, ``admit_next``
``memory``             ``serving.memory``: ``BlockPool`` publish/adopt/allocate/lookup
``model``              ``models.transformer``: ``forward``, ``fused_decode_step``, ``decode_step``
``pq``                 ``core.attention_pq``/``core.pq`` as the caches call them
``attn``               ``core.attention_fused`` phases from the engine's ``PhaseProfiler``
``calib``              ``core.calibration`` as ``gateway.bootstrap`` calls it
=====================  ==================================================

Closure: inside every ``engine.step`` span, self times are split by layer.
The ``engine`` layer's self time is the engine's own prefill+decode timer
minus its child spans; the rest of the step span, outside the engine's own
timer, is ``closure.unattributed``.  So the layer shares plus the
unattributed share sum to the busy time (the step spans) by construction,
and the unattributed share measures how much of ``step()`` the engine's own
accounting misses.
"""

from __future__ import annotations

import statistics
from typing import Optional

from perfbench.spans import Span, Tracer, descendants_of, self_times
from perfbench.stats import percentile

#: The fused-attention phases recorded under the profiler's ``decode`` root,
#: all of them inside ``TransformerLM.fused_decode_step``.
ATTN_PHASES = (
    "flush_encode",
    "pack_codes",
    "lut_build",
    "adc_gather",
    "softmax_merge",
    "scatter_add",
)
LAYERS = ("engine", "scheduler", "memory", "model", "pq", "attn")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points, where their callers look them up."""
    from repro.core import million_cache
    from repro.core.pq import ProductQuantizer
    from repro.gateway import bootstrap
    from repro.models.transformer import TransformerLM
    from repro.serving.engine import BatchedMillionEngine
    from repro.serving.memory import BlockPool
    from repro.serving.scheduler import ContinuousBatchingScheduler

    def admitted(args, result):
        return result.request_id if result is not None else None

    tracer.wrap(BatchedMillionEngine, "step", "engine.step", after=_sample_pool)
    tracer.wrap(BatchedMillionEngine, "submit", "engine.submit", request_id=lambda a, r: r)
    tracer.wrap(
        ContinuousBatchingScheduler, "submit", "scheduler.submit",
        request_id=lambda a, r: a[1].request_id,
    )
    tracer.wrap(
        ContinuousBatchingScheduler, "admit_next", "scheduler.admit_next",
        request_id=admitted,
    )
    for method, name in (
        ("publish", "memory.publish"),
        ("adopt", "memory.adopt"),
        ("allocate_block", "memory.allocate"),
        ("longest_prefix", "memory.lookup"),
    ):
        tracer.wrap(BlockPool, method, name)
    tracer.wrap(TransformerLM, "forward", "model.forward")
    tracer.wrap(TransformerLM, "fused_decode_step", "model.fused_decode")
    tracer.wrap(TransformerLM, "decode_step", "model.decode_step")
    # The MILLION cache imported these by name: wrap them where it looks.
    tracer.wrap(million_cache, "pq_attention_scores", "pq.adc_scores")
    tracer.wrap(million_cache, "pq_weighted_values", "pq.weighted_decode")
    tracer.wrap(ProductQuantizer, "encode", "pq.encode")
    tracer.wrap(bootstrap, "calibrate_million", "calib.calibrate")


def _sample_pool(tracer: Tracer, args: tuple, result) -> None:
    """After each step: pool occupancy, plus the static code sizes once."""
    engine = args[0]
    pool = engine.pool
    tracer.sample("memory.used_blocks", pool.used_block_count)
    if "sizes" not in tracer.once:
        tracer.once.add("sizes")
        tracer.sample("memory.kv_bytes_per_token", kv_bytes_per_token(engine))
        tracer.sample("attn.code_bytes_per_token", code_bytes_per_token(engine))


def kv_bytes_per_token(engine) -> float:
    """Pool bytes one token occupies across all layers (from block sizes)."""
    pool = engine.pool
    return pool.bytes_per_block * pool.n_layers / pool.block_tokens


def code_bytes_per_token(engine) -> float:
    """PQ code bytes the ADC reads per history token per step, all layers.

    Computed from tensor sizes (code rows per token times their dtype), not
    measured: kv heads x (key + value subspaces) x code itemsize x layers.
    """
    import numpy as np

    from repro.utils.bitpack import code_dtype

    factory = engine.factory
    config = engine.model.config
    key_pq, value_pq = factory.quantizers[0]
    per_layer = config.kv_heads * (
        key_pq.m_subspaces * np.dtype(code_dtype(key_pq.nbits)).itemsize
        + value_pq.m_subspaces * np.dtype(code_dtype(value_pq.nbits)).itemsize
    )
    return float(per_layer * config.n_layers)


def _delta(c1: dict, c0: dict, key: str) -> float:
    return c1[key] - c0[key]


def layer_metrics(
    spans: list[Span],
    samples: list[tuple[float, str, float]],
    window: tuple[float, float],
    c0: dict,
    c1: dict,
    client: dict,
) -> tuple[dict, dict]:
    """Per-layer metrics over ``window`` and the closure table.

    ``c0``/``c1`` are cumulative engine counters at the window's ends (see
    :func:`perfbench.inproc.engine_counters`); ``client`` carries what the
    client loop saw (gaps, tokens, accept latencies, refusals, wall time).
    Returns ``(metrics, closure)``.
    """
    lo, hi = window
    inside = descendants_of(spans, "engine.step", lo, hi)
    own = self_times(spans)
    durations = [s.end - s.start for s in spans]

    def total(name: str, exclude_parent: Optional[str] = None) -> tuple[int, float]:
        """Calls and seconds of ``name`` spans in the window."""
        count, seconds = 0, 0.0
        for i, s in enumerate(spans):
            if not inside[i] or s.name != name:
                continue
            if exclude_parent is not None and s.parent >= 0 and spans[s.parent].name == exclude_parent:
                continue
            count += 1
            seconds += durations[i]
        return count, seconds

    steps = [durations[i] for i, s in enumerate(spans) if inside[i] and s.name == "engine.step"]
    busy = sum(steps)
    wall = client["wall_s"]
    phases0, phases1 = c0["phases"], c1["phases"]

    def phase(name: str) -> float:
        return phases1.get(name, 0.0) - phases0.get(name, 0.0)

    # Self time by layer inside the step spans.
    by_layer = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if inside[i] and s.name != "engine.step":
            by_layer[s.name.split(".", 1)[0]] += own[i]
    engine_timer = _delta(c1, c0, "prefill_s") + _delta(c1, c0, "decode_s")
    child_of_step = sum(
        durations[i]
        for i, s in enumerate(spans)
        if inside[i] and s.parent >= 0 and spans[s.parent].name == "engine.step"
    )
    by_layer["engine"] = engine_timer - child_of_step
    # Attention phases nest inside model.fused_decode.  Its only wrapped
    # children (pq.encode and memory.allocate of the batched flush) run
    # inside the flush_encode phase, so their time is theirs, not attn's.
    in_fused = sum(
        durations[i]
        for i, s in enumerate(spans)
        if inside[i] and s.parent >= 0 and spans[s.parent].name == "model.fused_decode"
    )
    attn = {p: phase(f"decode/{p}") for p in ATTN_PHASES}
    attn["flush_encode"] -= in_fused
    by_layer["attn"] = sum(attn.values())
    by_layer["model"] -= by_layer["attn"]
    unattributed = busy - sum(by_layer.values())
    closure = {
        "busy_s": busy,
        **{f"{layer}_share": by_layer[layer] / busy for layer in LAYERS},
        "unattributed_share": unattributed / busy,
    }

    decode_children = sum(
        v for k, v in phases1.items() if k.startswith("decode/")
    ) - sum(v for k, v in phases0.items() if k.startswith("decode/"))
    forward_calls, forward_s = total("model.forward", exclude_parent="model.decode_step")
    fused_calls, fused_s = total("model.fused_decode")
    decode_step_calls, decode_step_s = total("model.decode_step")

    waits = _queue_waits(spans, lo, hi)
    submits = [
        durations[i] for i, s in enumerate(spans)
        if s.name == "scheduler.submit" and lo <= s.start <= hi
    ]
    admissions = sum(
        1 for i, s in enumerate(spans)
        if inside[i] and s.name == "scheduler.admit_next" and s.request_id is not None
    )
    used = [v for t, name, v in samples if name == "memory.used_blocks" and lo <= t <= hi]
    static = {name: v for _, name, v in samples if name != "memory.used_blocks"}
    prefill_s = _delta(c1, c0, "prefill_s")
    decode_s = _delta(c1, c0, "decode_s")
    computed = _delta(c1, c0, "prefill_tokens_computed")
    reused = _delta(c1, c0, "prefill_tokens_reused")
    hits, misses = _delta(c1, c0, "block_hits"), _delta(c1, c0, "block_misses")
    fused_count = _delta(c1, c0, "fused_batch_count")
    decode_steps = _delta(c1, c0, "decode_steps")
    metrics = {
        "gateway.headers_ms_p50": 1e3 * statistics.median(client["accept_s"]),
        "gateway.itl_overhead_ms": 1e3 * (
            statistics.fmean(client["gaps"]) - decode_s / decode_steps
        ),
        "gateway.non200": client["refused"],
        "scheduler.submit_us_p50": 1e6 * statistics.median(submits),
        "scheduler.queue_wait_ms_p50": 1e3 * statistics.median(waits),
        "scheduler.admissions": admissions,
        "scheduler.preemptions": _delta(c1, c0, "preemptions"),
        "engine.steps": len(steps),
        "engine.step_ms_p50": 1e3 * statistics.median(steps),
        "engine.step_ms_p90": 1e3 * percentile(steps, 90.0).value,
        "engine.prefill_s": prefill_s,
        "engine.decode_s": decode_s,
        "engine.prefill_tokens": computed,
        "engine.prefill_ms_per_token": 1e3 * prefill_s / computed if computed else 0.0,
        "engine.decode_ms_per_token": 1e3 * decode_s / client["tokens"],
        "engine.chunk_substeps": _delta(c1, c0, "chunk_substeps"),
        "engine.fused_batch_mean": (
            _delta(c1, c0, "fused_batch_sum") / fused_count if fused_count else 0.0
        ),
        "engine.busy_share": busy / wall,
        "memory.prefix_reuse_share": reused / (reused + computed),
        "memory.block_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "memory.adoptions": _delta(c1, c0, "adoptions"),
        "memory.evictions": _delta(c1, c0, "evictions"),
        "memory.peak_used_blocks": max(used) if used else 0,
        "memory.kv_bytes_per_token": static.get("memory.kv_bytes_per_token", 0.0),
        "model.forward_s": forward_s,
        "model.forward_calls": forward_calls,
        "model.fused_decode_s": fused_s,
        "model.fused_decode_calls": fused_calls,
        "model.decode_step_s": decode_step_s,
        "model.decode_step_calls": decode_step_calls,
        "pq.adc_scores_s": total("pq.adc_scores")[1],
        "pq.weighted_decode_s": total("pq.weighted_decode")[1],
        "pq.encode_s": total("pq.encode")[1],
        **{f"attn.{p}_s": attn[p] for p in ATTN_PHASES},
        "attn.decode_self_s": phase("decode") - decode_children,
        "attn.code_bytes_per_token": static.get("attn.code_bytes_per_token", 0.0),
        "client.gaps": len(client["gaps"]),
        "split.prefill_share": prefill_s / busy,
        "split.decode_share": decode_s / busy,
        **{f"closure.{k}": v for k, v in closure.items()},
    }
    return metrics, closure


def _queue_waits(spans: list[Span], lo: float, hi: float) -> list[float]:
    """Scheduler submit start to first admission end, per request."""
    submitted: dict[str, float] = {}
    waits = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.request_id is None or not lo <= s.start <= hi:
            continue
        if s.name == "scheduler.submit":
            submitted.setdefault(s.request_id, s.start)
        elif s.name == "scheduler.admit_next" and s.request_id in submitted:
            waits.append(s.end - submitted.pop(s.request_id))
    return waits


def calibration_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.name == "calib.calibrate")
