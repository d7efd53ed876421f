"""Cold-start contract for the debug endpoints and the metrics scrape.

A gateway that has served **zero** completed requests must still answer
``GET /debug/prof`` and ``GET /debug/trace`` with schema-valid (empty)
payloads, and ``GET /metrics`` must already expose the engine timing
families — a collector or profiler UI that starts alongside the gateway
sees well-formed data, not a crash or a gap until the first request lands.
These tests pin that contract so a refactor of the payload builders can't
quietly regress the empty case.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.export import validate_chrome_trace
from repro.obs.prof import PhaseProfiler, validate_prof_payload
from repro.obs.trace import TraceRecorder
from repro.serving import BatchedMillionEngine, PooledPolicyCacheFactory


def _make_server(tiny_config, million_config, million_factory, profiled=True):
    """A pooled chunked-prefill replica that has never served a request."""
    model = build_model(tiny_config, seed=7)
    engine = BatchedMillionEngine(
        model,
        PooledPolicyCacheFactory(
            tiny_config, {4: million_factory}, num_blocks=64, block_tokens=4
        ),
        trace=TraceRecorder(capacity=1024),
        trace_track="replica-0",
        prof=PhaseProfiler() if profiled else None,
        prefill_token_budget=32,
    )
    runner = AsyncEngineRunner(engine, name="replica-0")
    return GatewayServer(ReplicaRouter([runner]), tokenizer=ByteTokenizer())


async def _cold_get(tiny_config, million_config, million_factory, gw, path,
                    profiled=True):
    server = _make_server(tiny_config, million_config, million_factory, profiled)
    host, port = await server.start(port=0)
    try:
        return await gw.raw_request(host, port, "GET", path)
    finally:
        await server.stop()


class TestColdStart:
    def test_debug_prof_valid_and_empty_before_any_request(
        self, tiny_config, million_config, million_factory, gw
    ):
        status, headers, body = asyncio.run(
            _cold_get(tiny_config, million_config, million_factory, gw, "/debug/prof")
        )
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        payload = json.loads(body)
        validate_prof_payload(payload)
        assert payload["enabled"] is True
        assert payload["phases"] == []  # nothing ran, nothing attributed

    def test_debug_prof_disabled_profiler_is_still_valid(
        self, tiny_config, million_config, million_factory, gw
    ):
        status, _, body = asyncio.run(
            _cold_get(tiny_config, million_config, million_factory, gw,
                      "/debug/prof", profiled=False)
        )
        assert status == 200
        payload = json.loads(body)
        validate_prof_payload(payload)
        assert payload["enabled"] is False

    def test_debug_trace_valid_and_empty_before_any_request(
        self, tiny_config, million_config, million_factory, gw
    ):
        status, headers, body = asyncio.run(
            _cold_get(tiny_config, million_config, million_factory, gw, "/debug/trace")
        )
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        trace = json.loads(body)
        validate_chrome_trace(trace)
        # Only metadata (track names) may be present — no request events.
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
        assert trace["otherData"]["truncated"] is False

    def test_metrics_scrape_exposes_engine_families_cold(
        self, tiny_config, million_config, million_factory, gw
    ):
        status, _, body = asyncio.run(
            _cold_get(tiny_config, million_config, million_factory, gw, "/metrics")
        )
        assert status == 200
        text = body.decode()
        # Engine timing families exist from scrape one, including the
        # chunked-prefill counter and budget gauge, all at their zero state.
        for needle in (
            "repro_engine_fused_decode_steps_total",
            "repro_engine_prefill_chunks_total",
            "repro_engine_step_budget_utilization",
        ):
            assert needle in text, needle
        assert 'repro_engine_prefill_chunks_total{replica="0"} 0' in text
        assert 'repro_engine_step_budget_utilization{replica="0"} 0.0' in text
