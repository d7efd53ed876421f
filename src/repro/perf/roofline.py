"""Roofline timing of operator costs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.perf.device import DeviceSpec
from repro.perf.operators import OpCost
from repro.perf.schemes import KVSchemeSpec


@dataclass
class OpTiming:
    """Time attribution of one operator."""

    name: str
    time_s: float
    memory_time_s: float
    compute_time_s: float
    launch_time_s: float
    stream: str = "main"


def op_time(cost: OpCost, device: DeviceSpec) -> OpTiming:
    """Roofline execution time of one operator.

    The operator takes the maximum of its memory time and its compute time
    (tensor-core and CUDA-core work modelled as separate pipes), plus kernel
    launch latency for each kernel it issues.
    """
    memory_time = cost.bytes_total / (
        device.memory_bandwidth_bytes_per_s * cost.memory_efficiency
    )
    tensor_time = cost.tensor_flops / (device.fp16_flops_per_s * cost.compute_efficiency)
    cuda_time = cost.cuda_flops / (device.fp32_flops_per_s * cost.compute_efficiency)
    compute_time = tensor_time + cuda_time
    launch_time = cost.n_kernels * device.kernel_launch_s
    total = max(memory_time, compute_time) + launch_time
    return OpTiming(
        name=cost.name,
        time_s=total,
        memory_time_s=memory_time,
        compute_time_s=compute_time,
        launch_time_s=launch_time,
        stream=cost.stream,
    )


def time_decode_ops(
    ops: list[OpCost],
    scheme: KVSchemeSpec,
    config: ModelConfig,
    device: DeviceSpec,
) -> list[OpTiming]:
    """Time every operator of a decode step, including scheme fixed overhead.

    ``scheme_overhead`` is the calibrated per-layer kernel overhead of the
    baseline implementations (see :mod:`repro.perf.schemes`); it has no
    traffic of its own, so its time is injected here rather than derived from
    a roofline.
    """
    timings: list[OpTiming] = []
    for cost in ops:
        if cost.name == "scheme_overhead":
            fixed = scheme.fixed_overhead_us_per_layer * 1e-6 * config.n_layers
            timings.append(
                OpTiming(
                    name=cost.name,
                    time_s=fixed,
                    memory_time_s=0.0,
                    compute_time_s=fixed,
                    launch_time_s=0.0,
                    stream=cost.stream,
                )
            )
        else:
            timings.append(op_time(cost, device))
    return timings
