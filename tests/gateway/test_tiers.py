"""Gateway-level tests for per-request quality tiers.

The wire format gains an optional ``tier`` field; the gateway validates its
shape at the protocol layer (400 on malformed), passes it through to the
engine verbatim, and the engine rejects unknown tiers at submission (also
mapped to 400).  ``/metrics`` exposes per-tier counters.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.calibration import train_million_quantizers
from repro.core.million_cache import MillionCacheFactory
from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.gateway.protocol import CompletionRequest, ProtocolError
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.quant.policy import QuantPolicy, million_variant
from repro.serving import BatchedMillionEngine
from support.reference import BLOCK_TOKENS, pooled


@pytest.fixture(scope="module")
def tiered_engine_parts(tiny_config, million_factory, kv_samples):
    variant = million_variant(
        tiny_config.head_dim, 8, kmeans_iters=3, calibration_samples=768
    )
    quality = MillionCacheFactory(
        train_million_quantizers(kv_samples, variant), variant
    )
    return million_factory, quality


def _make_tiered_server(config, default_factory, quality_factory):
    model = build_model(config, seed=7)
    factory = pooled(
        model,
        {4: default_factory, 8: quality_factory},
        policy=QuantPolicy.uniform(config, "million", 4),
        tiers={
            "quality": QuantPolicy.uniform(config, "million", 8),
            "balanced": QuantPolicy.uniform(config, "million", 4),
        },
    )
    engine = BatchedMillionEngine(model, factory, max_batch_size=4)
    runner = AsyncEngineRunner(engine, name="replica-0")
    return GatewayServer(ReplicaRouter([runner]), tokenizer=ByteTokenizer())


class TestTierProtocol:
    def test_tier_parses_and_passes_through(self):
        request = CompletionRequest.from_json(
            {"prompt": [1, 2, 3], "max_tokens": 2, "tier": "quality"}
        )
        assert request.tier == "quality"
        assert request.to_generation_request().tier == "quality"

    def test_tier_defaults_to_none(self):
        request = CompletionRequest.from_json({"prompt": [1, 2, 3]})
        assert request.tier is None
        assert request.to_generation_request().tier is None

    @pytest.mark.parametrize("bad", [123, "", True, ["quality"]])
    def test_malformed_tier_rejected(self, bad):
        with pytest.raises(ProtocolError):
            CompletionRequest.from_json({"prompt": [1, 2], "tier": bad})


class TestTieredServing:
    def test_tiered_completions_and_metrics(
        self, tiny_config, tiered_engine_parts, calibration_tokens, gw
    ):
        default_factory, quality_factory = tiered_engine_parts
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_tiered_server(tiny_config, default_factory, quality_factory)
            host, port = await server.start(port=0)
            try:
                results = {}
                for tier in (None, "quality", "balanced"):
                    payload = {"prompt": prompt, "max_tokens": 4}
                    if tier is not None:
                        payload["tier"] = tier
                    status, _, body = await gw.raw_request(
                        host, port, "POST", "/v1/completions", payload
                    )
                    assert status == 200, body
                    results[tier] = json.loads(body)["choices"][0]["token_ids"]

                status, _, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 2, "tier": "turbo"},
                )
                assert status == 400
                assert b"unknown tier" in body

                status, _, metrics_body = await gw.raw_request(
                    host, port, "GET", "/metrics"
                )
                assert status == 200
                return results, metrics_body.decode()
            finally:
                await server.stop()

        results, metrics = asyncio.run(scenario())
        # The balanced tier shares the default policy: identical tokens.
        assert results["balanced"] == results[None]
        assert len(results["quality"]) == 4

        samples = {}
        for line in metrics.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                samples[key] = float(value)
        for tier in ("default", "quality", "balanced"):
            key = (
                'repro_engine_tier_requests_total'
                f'{{replica="0",tier="{tier}"}}'
            )
            assert samples[key] == 1.0, (key, samples)
            running = f'repro_engine_tier_running{{replica="0",tier="{tier}"}}'
            assert samples[running] == 0.0


class TestTieredRouting:
    def test_tiered_prompt_routes_by_prefix_only_to_its_tier(
        self, tiny_config, tiered_engine_parts, calibration_tokens
    ):
        """The same 40-token prompt served untiered on replica 0 and
        ``compact`` on replica 1: each tier's prompt routes by prefix to the
        replica holding that tier's blocks, the only ones it can adopt."""
        default_factory, quality_factory = tiered_engine_parts
        prompt = calibration_tokens[:40]
        runners = []
        for index, tier in enumerate((None, "compact")):
            model = build_model(tiny_config, seed=7)
            factory = pooled(
                model,
                {4: default_factory, 8: quality_factory},
                policy=QuantPolicy.uniform(tiny_config, "million", 8),
                tiers={"compact": QuantPolicy.uniform(tiny_config, "million", 4)},
            )
            engine = BatchedMillionEngine(model, factory, max_batch_size=4)
            engine.add_request(prompt, max_new_tokens=2, tier=tier)
            engine.run()
            assert engine.pool.cached_group_count > 0
            runners.append(AsyncEngineRunner(engine, name=f"replica-{index}"))

        for tier, holder in (("compact", 1), (None, 0)):
            decision = ReplicaRouter(runners).route(prompt, tier)
            assert (decision.replica_index, decision.reason) == (holder, "prefix")
            assert decision.affinity_blocks == (prompt.size - 1) // BLOCK_TOKENS
        # An unknown tier gets no affinity; the engine refuses it at submission.
        assert ReplicaRouter(runners).route(prompt, "turbo").reason == "least_loaded"
