"""The one definition of the benchmark's workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``) and a test keeps the two
equal.
"""

from __future__ import annotations

import json

from perfbench.workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 24

#: name -> (unit, better, bound).  Every metric is reported on every workload.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ttft_p50_ms": ("ms", "lower", 0.25),
    "itl_p50_ms": ("ms", "lower", 0.25),
    "itl_p99_ms": ("ms", "lower", 0.25),
    "output_tok_s": ("tok/s", "higher", 0.25),
    "req_s": ("req/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "fp16_top1_agree": ("share", "higher", 0.25),
}

#: name -> (unit, better).  Emitted by the traced run of every workload.
PER_LAYER = {
    "gateway.headers_ms_p50": ("ms", "lower"),
    "gateway.itl_overhead_ms": ("ms", "lower"),
    "gateway.non200": ("count", "lower"),
    "scheduler.submit_us_p50": ("us", "lower"),
    "scheduler.queue_wait_ms_p50": ("ms", "lower"),
    "scheduler.admissions": ("count", "higher"),
    "scheduler.preemptions": ("count", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.step_ms_p50": ("ms", "lower"),
    "engine.step_ms_p90": ("ms", "lower"),
    "engine.prefill_s": ("s", "lower"),
    "engine.decode_s": ("s", "lower"),
    "engine.prefill_tokens": ("count", "lower"),
    "engine.prefill_ms_per_token": ("ms", "lower"),
    "engine.decode_ms_per_token": ("ms", "lower"),
    "engine.chunk_substeps": ("count", "lower"),
    "engine.fused_batch_mean": ("count", "higher"),
    "engine.busy_share": ("share", "lower"),
    "memory.prefix_reuse_share": ("share", "higher"),
    "memory.block_hit_ratio": ("share", "higher"),
    "memory.adoptions": ("count", "higher"),
    "memory.evictions": ("count", "lower"),
    "memory.peak_used_blocks": ("count", "lower"),
    "memory.kv_bytes_per_token": ("B", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.fused_decode_s": ("s", "lower"),
    "model.fused_decode_calls": ("count", "lower"),
    "model.decode_step_s": ("s", "lower"),
    "model.decode_step_calls": ("count", "lower"),
    "pq.adc_scores_s": ("s", "lower"),
    "pq.weighted_decode_s": ("s", "lower"),
    "pq.encode_s": ("s", "lower"),
    "attn.flush_encode_s": ("s", "lower"),
    "attn.pack_codes_s": ("s", "lower"),
    "attn.lut_build_s": ("s", "lower"),
    "attn.adc_gather_s": ("s", "lower"),
    "attn.softmax_merge_s": ("s", "lower"),
    "attn.scatter_add_s": ("s", "lower"),
    "attn.decode_self_s": ("s", "lower"),
    "attn.code_bytes_per_token": ("B", "lower"),
    "calib.calibrate_s": ("s", "lower"),
    "calib.other_setup_s": ("s", "lower"),
    "client.gaps": ("count", "higher"),
    "split.prefill_share": ("share", "lower"),
    "split.decode_share": ("share", "lower"),
    "closure.busy_s": ("s", "lower"),
    "closure.engine_share": ("share", "lower"),
    "closure.scheduler_share": ("share", "lower"),
    "closure.memory_share": ("share", "lower"),
    "closure.model_share": ("share", "lower"),
    "closure.pq_share": ("share", "lower"),
    "closure.attn_share": ("share", "lower"),
    "closure.unattributed_share": ("share", "lower"),
    "obs.trace_overhead_share": ("share", "lower"),
}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, _, _, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
