"""Dual-stream scheduling model (main stream + async quantization stream).

The decode phase is memory-bound, so the low-priority quantization stream can
use compute and bandwidth the main stream leaves idle (paper Fig. 5).  The
model exposes a single knob — the fraction of main-stream time during which
the quantization kernels can make progress — and reports how much
quantization time stays hidden versus spills onto the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.roofline import OpTiming
from repro.utils.validation import require

DEFAULT_OVERLAP_FRACTION = 0.85


@dataclass
class StepTiming:
    """Latency of one decode step after stream scheduling."""

    main_time_s: float
    quant_time_s: float
    hidden_quant_time_s: float
    exposed_quant_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.main_time_s + self.exposed_quant_time_s

    @property
    def total_time_ms(self) -> float:
        return self.total_time_s * 1e3


def schedule_step(
    timings: list[OpTiming],
    async_enabled: bool,
    overlap_fraction: float = DEFAULT_OVERLAP_FRACTION,
) -> StepTiming:
    """Combine main-stream and quantization-stream operator times.

    With ``async_enabled`` the quantization stream overlaps with up to
    ``overlap_fraction`` of the main-stream time; any remainder is exposed on
    the critical path.  Without it, all quantization time is serialised.
    """
    require(0.0 <= overlap_fraction <= 1.0, "overlap_fraction must be in [0, 1]")
    main_time = sum(t.time_s for t in timings if t.stream == "main")
    quant_time = sum(t.time_s for t in timings if t.stream == "quant")
    if async_enabled:
        hidden = min(quant_time, overlap_fraction * main_time)
    else:
        hidden = 0.0
    exposed = quant_time - hidden
    return StepTiming(
        main_time_s=main_time,
        quant_time_s=quant_time,
        hidden_quant_time_s=hidden,
        exposed_quant_time_s=exposed,
    )

