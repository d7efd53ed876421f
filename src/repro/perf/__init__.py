"""Analytic GPU performance model (TPOT, latency breakdown, memory/OOM)."""

from repro.perf.breakdown import (
    LatencyBreakdown,
    SpeedupPoint,
    breakdown_sweep,
    latency_breakdown,
)
from repro.perf.device import A40, A100_80GB, DEVICE_PRESETS, DeviceSpec, get_device
from repro.perf.memory import (
    MemoryFootprint,
    is_oom,
    max_context_length,
    memory_footprint,
)
from repro.perf.operators import (
    ATTENTION_OPERATORS,
    OpCost,
    decode_step_ops,
    kv_cache_bytes,
)
from repro.perf.presets import LLAMA_2_7B, LLAMA_2_13B, PERF_MODEL_PRESETS, weights_bytes
from repro.perf.roofline import OpTiming, op_time, time_decode_ops
from repro.perf.schemes import (
    FP16_BASELINE,
    KIVI_4BIT,
    KVQUANT_4BIT,
    KVQUANT_4BIT_OUTLIER,
    MILLION_3BIT,
    MILLION_4BIT,
    MILLION_4BIT_SYNC,
    SCHEME_PRESETS,
    KVSchemeSpec,
    get_scheme,
)
from repro.perf.streams import (
    DEFAULT_OVERLAP_FRACTION,
    StepTiming,
    schedule_step,
)
from repro.perf.tpot import TPOTResult, decode_step_latency_ms, estimate_tpot, tpot_table

__all__ = [
    "LatencyBreakdown",
    "SpeedupPoint",
    "breakdown_sweep",
    "latency_breakdown",
    "A40",
    "A100_80GB",
    "DEVICE_PRESETS",
    "DeviceSpec",
    "get_device",
    "MemoryFootprint",
    "is_oom",
    "max_context_length",
    "memory_footprint",
    "ATTENTION_OPERATORS",
    "OpCost",
    "decode_step_ops",
    "kv_cache_bytes",
    "LLAMA_2_7B",
    "LLAMA_2_13B",
    "PERF_MODEL_PRESETS",
    "weights_bytes",
    "OpTiming",
    "op_time",
    "time_decode_ops",
    "FP16_BASELINE",
    "KIVI_4BIT",
    "KVQUANT_4BIT",
    "KVQUANT_4BIT_OUTLIER",
    "MILLION_3BIT",
    "MILLION_4BIT",
    "MILLION_4BIT_SYNC",
    "SCHEME_PRESETS",
    "KVSchemeSpec",
    "get_scheme",
    "DEFAULT_OVERLAP_FRACTION",
    "StepTiming",
    "schedule_step",
    "TPOTResult",
    "decode_step_latency_ms",
    "estimate_tpot",
    "tpot_table",
]
