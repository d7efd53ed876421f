"""Health endpoints end to end: liveness vs readiness, SLO burn, routing.

The PR's acceptance criterion lives here: drive a live gateway into SLO
burn with real HTTP traffic and watch ``/healthz`` flip to degraded with
the offending rule named, then confirm the router shifts new work away
from a degraded replica.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.health import HealthEngine, HealthPolicy
from repro.obs.prof import PhaseProfiler
from repro.serving import BatchedMillionEngine
from support.reference import pooled


def _make_server(config, factory, replicas=1, pool_blocks=256, health=None,
                 **engine_kwargs):
    engines = []
    for _ in range(replicas):
        model = build_model(config, seed=7)
        engine_factory = pooled(model, factory, num_blocks=pool_blocks, block_tokens=32)
        engines.append(BatchedMillionEngine(model, engine_factory, **engine_kwargs))
    runners = [
        AsyncEngineRunner(engine, name=f"replica-{i}")
        for i, engine in enumerate(engines)
    ]
    return GatewayServer(
        ReplicaRouter(runners), tokenizer=ByteTokenizer(), health=health
    )


async def _complete(gw, host, port, prompt, max_tokens=4):
    status, _, body = await gw.raw_request(
        host, port, "POST", "/v1/completions",
        {"prompt": prompt, "max_tokens": max_tokens},
    )
    assert status == 200
    return json.loads(body)


class TestReadiness:
    def test_readyz_503_until_startup_finishes(
        self, tiny_config, million_factory, gw
    ):
        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start_listening(port=0)
            try:
                # Liveness answers immediately, but admits it is not ready.
                live_status, _, live_body = await gw.raw_request(
                    host, port, "GET", "/healthz"
                )
                ready_status, _, ready_body = await gw.raw_request(
                    host, port, "GET", "/readyz"
                )
                await server.finish_startup()
                after_status, _, after_body = await gw.raw_request(
                    host, port, "GET", "/readyz"
                )
            finally:
                await server.stop()
            return (
                live_status, json.loads(live_body),
                ready_status, json.loads(ready_body),
                after_status, json.loads(after_body),
            )

        (live_status, live, ready_status, not_ready,
         after_status, ready) = asyncio.run(scenario())
        assert live_status == 200 and live["ready"] is False
        assert ready_status == 503
        assert not_ready["ready"] is False
        assert not_ready["reason"] == "replicas are not started"
        assert after_status == 200
        assert ready == {"ready": True, "status": "ok", "reason": "ok"}

    def test_healthz_shape(self, tiny_config, million_factory, gw):
        async def scenario():
            server = _make_server(tiny_config, million_factory, replicas=2)
            host, port = await server.start(port=0)
            try:
                status, _, body = await gw.raw_request(host, port, "GET", "/healthz")
            finally:
                await server.stop()
            return status, json.loads(body)

        status, report = asyncio.run(scenario())
        assert status == 200
        assert report["status"] == "ok"
        assert report["ready"] is True
        assert report["replicas"] == 2
        assert set(report) >= {
            "status", "ready", "model", "replicas", "in_flight",
            "window_s", "burn_rates", "checks", "replica_health",
        }
        assert [r["state"] for r in report["replica_health"]] == ["ok", "ok"]


class TestSloBurn:
    def test_traffic_breaching_slo_flips_healthz_degraded(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        # An impossible TTFT SLO: every served request breaches it.  With a
        # 50% objective the burn rate lands at 1/0.5 = 2x — degraded, not
        # unhealthy, so the verdict and the named rule are both exercised.
        health = HealthEngine(
            HealthPolicy(
                window_s=60.0, objective=0.5, ttft_slo_s={"interactive": 1e-9}
            )
        )
        prompt = calibration_tokens[:12].tolist()

        async def scenario():
            server = _make_server(
                tiny_config, million_factory, health=health,
                prof=PhaseProfiler(),
            )
            host, port = await server.start(port=0)
            try:
                _, _, before = await gw.raw_request(host, port, "GET", "/healthz")
                for _ in range(3):
                    await _complete(gw, host, port, prompt)
                _, _, after = await gw.raw_request(host, port, "GET", "/healthz")
                _, _, metrics = await gw.raw_request(host, port, "GET", "/metrics")
            finally:
                await server.stop()
            return json.loads(before), json.loads(after), metrics.decode()

        before, after, metrics = asyncio.run(scenario())
        # First scrape has no window delta yet — cumulative state alone
        # must never fire the burn rule.
        assert before["status"] == "ok"
        assert after["status"] == "degraded"
        assert after["burn_rates"]["interactive"] >= 1.0
        [check] = [c for c in after["checks"] if c["rule"] == "slo_burn"]
        assert check["state"] == "degraded"
        assert "interactive" in check["reason"]
        # The verdict, the burn rate and the phase attribution all surface
        # as first-class metric families.
        assert "repro_health_state 1" in metrics
        assert 'repro_slo_burn_rate{priority="interactive"}' in metrics
        assert 'repro_engine_phase_seconds{replica="0",phase="decode"}' in metrics


class TestRouterHealthShift:
    def test_load_shifts_away_from_degraded_replica(
        self, tiny_config, million_factory, gw
    ):
        health = HealthEngine(HealthPolicy(max_pool_pressure=0.9))

        async def scenario():
            server = _make_server(
                tiny_config, million_factory, replicas=2,
                pool_blocks=64, health=health,
            )
            # Replica 0's pool reports saturation: the next health scrape
            # must degrade it and steer fresh prompts to replica 1.
            pool = server.router.runners[0].engine.pool
            real_stats = pool.stats
            pool.stats = lambda: {**real_stats(), "pressure": 0.99}
            host, port = await server.start(port=0)
            try:
                _, _, verdict = await gw.raw_request(host, port, "GET", "/healthz")
                # Distinct prompts so neither prefix nor sticky affinity
                # can pin a request to the saturated replica.
                for seed in range(4):
                    await _complete(gw, host, port, [seed + 1, seed + 2, seed + 3])
                decode_walls = [
                    runner.engine.decode_seconds_total
                    for runner in server.router.runners
                ]
            finally:
                await server.stop()
            return json.loads(verdict), decode_walls, server.router.stats()

        verdict, decode_walls, router_stats = asyncio.run(scenario())
        assert verdict["status"] == "degraded"
        [check] = [c for c in verdict["checks"] if c["rule"] == "pool_pressure"]
        assert check["scope"] == "replica-0"
        assert [r["state"] for r in verdict["replica_health"]] == ["degraded", "ok"]
        # All four fresh prompts landed on the healthy replica.
        assert decode_walls[0] == 0.0 and decode_walls[1] > 0.0
        assert router_stats["health_avoided"] >= 4
