"""Every ``/metrics`` scrape must be valid Prometheus text exposition.

These tests scrape the live gateway and push the body through
:func:`repro.obs.promtext.parse_exposition`, which raises on the failure
modes the renderer must never produce: missing HELP/TYPE, duplicate
samples, non-cumulative histogram buckets, ``_count``/``+Inf`` mismatch,
and Python-style ``inf``/``nan`` floats.  On top of the structural check
they pin the PR's acceptance criteria: the TTFT/ITL histogram families are
present from the very first scrape (zero-valued, no first-scrape gap),
carry per-tier labels, and their ``_count`` matches the requests served.
"""

from __future__ import annotations

import asyncio

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.promtext import parse_exposition
from repro.quant.policy import QuantPolicy
from repro.serving import BatchedMillionEngine
from support.reference import pooled


def _make_server(config, factory, tiers=None, **engine_kwargs):
    """One replica; the default tier and every named tier share its pool."""
    model = build_model(config, seed=7)
    engine = BatchedMillionEngine(model, pooled(model, factory, tiers=tiers), **engine_kwargs)
    runner = AsyncEngineRunner(engine, name="replica-0")
    return GatewayServer(ReplicaRouter([runner]), tokenizer=ByteTokenizer())


async def _scrape(gw, host, port):
    status, _, body = await gw.raw_request(host, port, "GET", "/metrics")
    assert status == 200
    return parse_exposition(body.decode())


class TestFirstScrape:
    def test_first_scrape_valid_with_zero_valued_latency_families(
        self, tiny_config, million_factory, gw
    ):
        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        # No first-scrape gap: latency families exist before any request,
        # with the "default" tier pre-seeded at zero.
        for name in ("repro_gateway_ttft_seconds", "repro_gateway_itl_seconds"):
            family = families[name]
            assert family.type == "histogram"
            assert family.value(tier="default", le="+Inf") == 0.0
        assert (
            families["repro_gateway_http_requests_total"].value(
                path="/v1/completions", status="200"
            )
            == 0.0
        )
        # Engine-side histograms render from boot too.
        assert families["repro_engine_queue_wait_seconds"].value(
            replica="0", le="+Inf"
        ) == 0.0
        for kind in ("prefill", "decode"):
            assert families["repro_engine_step_seconds"].value(
                replica="0", kind=kind, le="+Inf"
            ) == 0.0
        assert "repro_engine_fused_batch_size" in families


class TestServedScrapes:
    def test_latency_counts_match_requests_served(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        n_requests, n_tokens = 3, 5
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                for _ in range(n_requests):
                    status, _, _ = await gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": n_tokens, "stream": True},
                    )
                    assert status == 200
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        ttft = families["repro_gateway_ttft_seconds"]
        itl = families["repro_gateway_itl_seconds"]
        # One TTFT observation per request; every later token is one ITL gap.
        assert ttft.value(tier="default", le="+Inf") == n_requests
        assert itl.value(tier="default", le="+Inf") == n_requests * (n_tokens - 1)
        # Engine saw the same requests.
        assert families["repro_engine_queue_wait_seconds"].value(
            replica="0", le="+Inf"
        ) == n_requests
        assert families["repro_gateway_http_requests_total"].value(
            path="/v1/completions", status="200"
        ) == n_requests

    def test_tiered_requests_get_tier_labelled_histograms(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(
                tiny_config, million_factory,
                tiers={"quality": QuantPolicy.uniform(tiny_config, "million", 4)},
            )
            host, port = await server.start(port=0)
            try:
                for tier, count in (("quality", 2), (None, 1)):
                    for _ in range(count):
                        payload = {"prompt": prompt, "max_tokens": 3}
                        if tier is not None:
                            payload["tier"] = tier
                        status, _, _ = await gw.raw_request(
                            host, port, "POST", "/v1/completions", payload
                        )
                        assert status == 200
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        ttft = families["repro_gateway_ttft_seconds"]
        assert ttft.value(tier="quality", le="+Inf") == 2.0
        assert ttft.value(tier="default", le="+Inf") == 1.0
        itl = families["repro_gateway_itl_seconds"]
        assert itl.value(tier="quality", le="+Inf") == 2.0 * 2
        assert itl.value(tier="default", le="+Inf") == 1.0 * 2

    def test_error_paths_keep_exposition_valid(
        self, tiny_config, million_factory, gw
    ):
        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                status, _, _ = await gw.raw_request(
                    host, port, "POST", "/v1/completions", {"max_tokens": 2}
                )
                assert status == 400
                status, _, _ = await gw.raw_request(host, port, "GET", "/nope")
                assert status == 404
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        assert families["repro_gateway_http_requests_total"].value(
            path="/v1/completions", status="400"
        ) == 1.0
        # Errored requests never reach a first token.
        assert families["repro_gateway_ttft_seconds"].value(
            tier="default", le="+Inf"
        ) == 0.0


class TestPriorityFamilies:
    def test_priority_labelled_latency_and_engine_families(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                for priority, count in (("best_effort", 2), (None, 1)):
                    for _ in range(count):
                        payload = {"prompt": prompt, "max_tokens": 3}
                        if priority is not None:
                            payload["priority"] = priority
                        status, _, _ = await gw.raw_request(
                            host, port, "POST", "/v1/completions", payload
                        )
                        assert status == 200
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        ttft = families["repro_gateway_priority_ttft_seconds"]
        assert ttft.type == "histogram"
        assert ttft.value(priority="best_effort", le="+Inf") == 2.0
        # Omitting the field means interactive — the default class.
        assert ttft.value(priority="interactive", le="+Inf") == 1.0
        itl = families["repro_gateway_priority_itl_seconds"]
        assert itl.value(priority="best_effort", le="+Inf") == 2.0 * 2
        # Per-replica scheduler state and lifetime counters render for both
        # classes even when nothing was preempted or shed.
        for label in ("interactive", "best_effort"):
            assert families["repro_engine_priority_queued"].value(
                replica="0", priority=label
            ) == 0.0
            assert families["repro_engine_priority_running"].value(
                replica="0", priority=label
            ) == 0.0
            assert families["repro_engine_priority_preemptions_total"].value(
                replica="0", priority=label
            ) == 0.0
            assert families["repro_engine_slo_rejections_total"].value(
                replica="0", priority=label
            ) == 0.0

    def test_pool_pressure_gauge_renders_with_pooled_engine(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                status, _, _ = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 3},
                )
                assert status == 200
                return await _scrape(gw, host, port)
            finally:
                await server.stop()

        families = asyncio.run(scenario())
        pressure = families["repro_pool_pressure"]
        assert pressure.type == "gauge"
        assert 0.0 <= pressure.value(replica="0") <= 1.0
