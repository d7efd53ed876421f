"""Engine-level observability: trace spans, histograms, counters.

These tests drive the real batched engine with a live
:class:`TraceRecorder` and assert the request lifecycle is reconstructible
from the buffer — queue wait, prefill, decode steps, per-token instants,
preemption and cancellation — and that the latency histograms `stats()`
reports are consistent with the work performed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.serving import BatchedMillionEngine
from support.reference import BLOCK_TOKENS, pooled


@pytest.fixture()
def traced_engine_factory(tiny_model, million_factory):
    """Fresh engine (own pool) + recorder per call."""

    def build(pool_blocks=256, max_batch_size=4, **kwargs):
        trace = TraceRecorder(capacity=4096)
        factory = pooled(tiny_model, million_factory, num_blocks=pool_blocks)
        engine = BatchedMillionEngine(
            tiny_model, factory, max_batch_size=max_batch_size,
            trace=trace, trace_track="replica-0", **kwargs,
        )
        return engine, trace

    yield build
    tiny_model.reset_cache(FullPrecisionCacheFactory())


def _names(trace, request_id=None):
    return [e.name for e in trace.snapshot(request_id=request_id)]


class TestLifecycleSpans:
    def test_request_journey_is_reconstructible(
        self, traced_engine_factory, calibration_tokens
    ):
        engine, trace = traced_engine_factory()
        request_id = engine.add_request(calibration_tokens[:12], max_new_tokens=4)
        engine.run()
        names = _names(trace, request_id=request_id)
        assert names[0] == "queued"
        assert "queue_wait" in names
        assert "prefill" in names
        # The final token rides the finish marker, so N tokens show up as
        # N-1 "token" instants plus one "finish".
        assert names.count("token") == 3
        assert names[-1] == "finish"
        # Span ordering: queue_wait ends where prefill begins the admission.
        events = trace.snapshot(request_id=request_id)
        wait = next(e for e in events if e.name == "queue_wait")
        prefills = [e for e in events if e.name == "prefill"]
        assert wait.ts <= prefills[0].ts
        # One span per chunk sub-step: aligned prefix, then residual tail.
        assert sum(e.args["tokens_computed"] for e in prefills) == 12
        assert all(e.args["is_restore"] is False for e in prefills)

    def test_decode_steps_list_their_batch(
        self, traced_engine_factory, calibration_tokens
    ):
        engine, trace = traced_engine_factory()
        ids = [
            engine.add_request(calibration_tokens[i : i + 8], max_new_tokens=3)
            for i in range(0, 16, 8)
        ]
        engine.run()
        steps = [e for e in trace.snapshot() if e.name == "decode_step"]
        assert steps, "no decode_step spans recorded"
        # Every request appears in at least one step's batch listing.
        listed = {rid for e in steps for rid in e.args["requests"]}
        assert set(ids) <= listed
        assert all(e.dur > 0.0 for e in steps)
        assert all(e.args["batch"] >= 1 for e in steps)

    def test_cancel_records_instant(self, traced_engine_factory, calibration_tokens):
        engine, trace = traced_engine_factory()
        request_id = engine.add_request(calibration_tokens[:8], max_new_tokens=64)
        engine.step()
        engine.cancel(request_id)
        names = _names(trace, request_id=request_id)
        assert "cancelled" in names and names[-1] == "finish"

    def test_preemption_and_restore_traced(
        self, traced_engine_factory, calibration_tokens
    ):
        # A pool too small for two long sequences forces preemption; the
        # victim's eviction and exact-replay restore must both be visible.
        engine, trace = traced_engine_factory(pool_blocks=14, max_batch_size=4)
        prompt = calibration_tokens[:BLOCK_TOKENS]
        for i in range(4):
            engine.add_request(prompt.copy(), max_new_tokens=24, request_id=f"r{i}")
        engine.run()
        assert engine.preemption_count > 0
        all_names = _names(trace)
        assert "preempted" in all_names
        restores = [e for e in trace.snapshot() if e.name == "restore"]
        assert restores
        assert all(e.args["is_restore"] for e in restores)
        preempted = next(e for e in trace.snapshot() if e.name == "preempted")
        assert preempted.request_id is not None
        assert preempted.args["preemptions"] >= 1

    def test_prefix_adoption_reported_as_reuse(
        self, traced_engine_factory, calibration_tokens
    ):
        engine, trace = traced_engine_factory()
        prompt = calibration_tokens[: 4 * BLOCK_TOKENS + 2]
        engine.add_request(prompt.copy(), max_new_tokens=2, request_id="cold")
        engine.run()
        engine.add_request(prompt.copy(), max_new_tokens=2, request_id="warm")
        engine.run()
        warm_prefill = next(
            e for e in trace.snapshot(request_id="warm") if e.name == "prefill"
        )
        assert warm_prefill.args["tokens_reused"] == 4 * BLOCK_TOKENS
        pool_adopts = [e for e in trace.snapshot() if e.name == "pool_adopt"]
        assert len(pool_adopts) == 4


class TestHistograms:
    def test_stats_histograms_match_work(
        self, traced_engine_factory, calibration_tokens
    ):
        engine, _ = traced_engine_factory()
        n_requests, n_tokens = 3, 4
        for i in range(n_requests):
            engine.add_request(calibration_tokens[i : i + 8], max_new_tokens=n_tokens)
        engine.run()
        hist = engine.stats()["histograms"]
        assert hist["queue_wait_seconds"]["count"] == n_requests
        assert hist["queue_wait_seconds"]["sum"] >= 0.0
        assert hist["prefill_step_seconds"]["count"] >= 1
        assert hist["decode_step_seconds"]["count"] >= n_tokens
        fused = hist["fused_batch_size"]
        assert fused["count"] == engine.fused_decode_steps

    def test_stats_histograms_match_work_under_preemption(
        self, traced_engine_factory, calibration_tokens
    ):
        """Restore replay rows are fused steps too: the batch histogram sees
        every fused step, including those whose rows are all replay rows."""
        engine, _ = traced_engine_factory(pool_blocks=14, max_batch_size=4)
        prompt = calibration_tokens[:BLOCK_TOKENS]
        for i in range(4):
            engine.add_request(prompt.copy(), max_new_tokens=24)
        engine.run()
        assert engine.preemption_count > 0
        hist = engine.stats()["histograms"]
        assert hist["fused_batch_size"]["count"] == engine.fused_decode_steps
        assert hist["decode_step_seconds"]["count"] >= engine.fused_decode_steps

    def test_restore_does_not_double_count_queue_wait(
        self, traced_engine_factory, calibration_tokens
    ):
        engine, _ = traced_engine_factory(pool_blocks=14, max_batch_size=4)
        prompt = calibration_tokens[:BLOCK_TOKENS]
        for i in range(4):
            engine.add_request(prompt.copy(), max_new_tokens=24)
        engine.run()
        assert engine.preemption_count > 0
        hist = engine.stats()["histograms"]
        assert hist["queue_wait_seconds"]["count"] == 4

    def test_disabled_recorder_records_nothing(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        assert engine.trace is NULL_RECORDER
        engine.add_request(calibration_tokens[:8], max_new_tokens=2)
        engine.run()
        assert len(engine.trace) == 0
        # Histograms observe regardless: they are always-on metrics.
        assert engine.stats()["histograms"]["queue_wait_seconds"]["count"] == 1
        tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestTokenIdentityUnderTracing:
    def test_tracing_does_not_change_tokens(
        self, traced_engine_factory, tiny_model, million_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[i : i + 10].copy() for i in (0, 20, 40)]
        engine, _ = traced_engine_factory()
        traced = engine.generate_batch(prompts, max_new_tokens=6)
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        plain = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory)
        ).generate_batch([p.copy() for p in prompts], max_new_tokens=6)
        for a, b in zip(traced, plain):
            np.testing.assert_array_equal(a, b)
