"""Self times, window deltas and the closure of the layer table."""

from __future__ import annotations

import pytest

from perfbench import layers
from perfbench.spans import Span, Tracer, descendants_of, self_times


def span(name, start, end, parent=-1, request_id=None):
    return Span(name, start, end, parent, request_id)


def test_self_time_subtracts_direct_children():
    spans = [
        span("engine.step", 0.0, 10.0),
        span("model.forward", 1.0, 6.0, 0),
        span("pq.encode", 2.0, 3.0, 1),
        span("memory.publish", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == [4.0, 4.0, 1.0, 1.0]


def test_descendants_limited_to_window():
    spans = [
        span("engine.step", 0.0, 1.0),
        span("model.forward", 0.1, 0.9, 0),
        span("engine.step", 2.0, 3.0),
        span("model.forward", 2.1, 2.9, 2),
        span("engine.submit", 2.5, 2.6),
    ]
    assert descendants_of(spans, "engine.step", 1.5, 3.5) == [False, False, True, True, False]


def test_tracer_wraps_nests_and_restores():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(Thing, "outer", "engine.step")
    tracer.wrap(Thing, "inner", "model.forward", request_id=lambda a, r: f"r{r}")
    assert Thing().outer() == 2
    tracer.restore()
    assert Thing.outer.__name__ == "outer" and not hasattr(Thing.outer, "__wrapped__")
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert inner.request_id == "r1"
    assert outer.start < inner.start < inner.end < outer.end


def counters(prefill_s, decode_s, computed, reused, decode_steps, phases=None):
    return {
        "prefill_s": prefill_s, "decode_s": decode_s, "chunk_substeps": 0,
        "prefill_tokens_computed": computed, "prefill_tokens_reused": reused,
        "block_hits": 0, "block_misses": 0, "preemptions": 0, "adoptions": 0,
        "evictions": 0, "decode_steps": decode_steps, "fused_batch_sum": 4,
        "fused_batch_count": 2, "phases": phases or {},
    }


def test_closure_sums_to_busy_time_and_uses_window_deltas():
    # Two steps of 10 s; the engine's own timer covers 9.5 s of each.
    spans = [
        span("engine.step", 0.0, 10.0),
        span("scheduler.admit_next", 0.0, 1.0, 0, "w0"),
        span("model.forward", 1.0, 5.0, 0),
        span("pq.adc_scores", 2.0, 3.0, 2),
        span("engine.step", 10.0, 20.0),
        span("model.fused_decode", 11.0, 18.0, 4),
        span("pq.encode", 12.0, 13.0, 5),
        span("scheduler.submit", -0.5, -0.499, -1, "w0"),
    ]
    # Idle steps, so the step p90 has its hundred samples.
    spans += [span("engine.step", 20.5, 20.5) for _ in range(98)]
    c0 = counters(100.0, 50.0, 1000, 0, 2, {"decode": 5.0, "decode/adc_gather": 1.0,
                                         "decode/flush_encode": 0.0})
    c1 = counters(109.0, 60.0, 1100, 300, 4, {"decode": 14.5, "decode/adc_gather": 4.0,
                                           "decode/flush_encode": 2.0})
    client = {"wall_s": 25.0, "gaps": [1.0, 3.0], "tokens": 4, "accept_s": [0.001],
              "refused": 0}
    metrics, closure = layers.layer_metrics(spans, [], (-1.0, 21.0), c0, c1, client)
    shares = [closure[f"{layer}_share"] for layer in layers.LAYERS]
    assert sum(shares) + closure["unattributed_share"] == pytest.approx(1.0)
    assert closure["busy_s"] == 20.0
    # 19 s on the engine's timer inside 20 s of step spans.
    assert closure["unattributed_share"] == pytest.approx(1.0 / 20.0)
    # attn = adc_gather 3 + flush_encode (2 minus the 1 s pq.encode inside it).
    assert closure["attn_share"] == pytest.approx(4.0 / 20.0)
    assert closure["pq_share"] == pytest.approx(2.0 / 20.0)
    # model self: forward 4-1, fused 7-1-4.
    assert closure["model_share"] == pytest.approx(5.0 / 20.0)
    assert metrics["engine.prefill_s"] == pytest.approx(9.0)
    assert metrics["memory.prefix_reuse_share"] == pytest.approx(300 / 400)
    assert metrics["gateway.itl_overhead_ms"] == pytest.approx(1e3 * (2.0 - 5.0))
    assert metrics["scheduler.queue_wait_ms_p50"] == pytest.approx(1.5e3)
    assert metrics["engine.busy_share"] == pytest.approx(20.0 / 25.0)
    assert metrics["engine.steps"] == 100
    assert metrics["engine.step_ms_p90"] == 0.0  # rank 90 of 98 idle steps and two busy
