"""End-to-end gateway tests over real HTTP on an ephemeral localhost port.

Covers the PR's acceptance criteria:

* a streamed completion through the gateway is token-identical to
  :meth:`BatchedMillionEngine.run` for the same request;
* two concurrent requests sharing a 1k-token prefix are routed to the same
  replica by the :class:`ReplicaRouter` and reuse published pool blocks,
  asserted through the ``/metrics`` prefix-hit counters;

plus protocol errors, 429 backpressure, and disconnect-driven cancellation
(including a disconnect that lands while the request is still prefilling).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.gateway import AsyncEngineRunner, GatewayConfig, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.serving import BatchedMillionEngine, FinishReason
from support.reference import pooled


def _engine(config, factory, pool_blocks=256, block_tokens=32, **engine_kwargs):
    """A fresh model (identical weights via the fixture seed) over its own pool."""
    model = build_model(config, seed=7)
    return BatchedMillionEngine(
        model,
        pooled(model, factory, num_blocks=pool_blocks, block_tokens=block_tokens),
        **engine_kwargs,
    )


def _make_server(config, factory, replicas=1, **engine_kwargs):
    """One :func:`_engine` per replica → runners → server."""
    engines = [_engine(config, factory, **engine_kwargs) for _ in range(replicas)]
    runners = [
        AsyncEngineRunner(engine, name=f"replica-{i}")
        for i, engine in enumerate(engines)
    ]
    return GatewayServer(ReplicaRouter(runners), tokenizer=ByteTokenizer())


def _pin_running_slot(engine):
    """Hold the engine's steps while a request runs, until released.

    A ``max_tokens`` stream is capped by the model's ``max_seq_len``, so a
    "long" stream can finish before a test's checks if decode is fast.  Once
    a request is admitted, steps are skipped instead; the stepper keeps
    looping and releasing its lock, so submissions, queueing and admission
    control still run.  Returns the release function.
    """
    step = engine.step
    pinned = threading.Event()
    pinned.set()

    def held_step():
        if pinned.is_set() and engine.running_count:
            time.sleep(0.001)
            return []
        return step()

    engine.step = held_step
    return pinned.clear


async def _until(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` on the event loop until it holds."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


def _parse_prometheus(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


class TestCompletionEndpoint:
    def test_streamed_tokens_identical_to_engine_run(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:16]
        reference_engine = _engine(tiny_config, million_factory)
        request_id = reference_engine.add_request(prompt, max_new_tokens=10)
        expected = reference_engine.run()[request_id]

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                status, headers, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt.tolist(), "max_tokens": 10, "stream": True},
                )
                assert status == 200
                assert headers["content-type"].startswith("text/event-stream")
                assert body.endswith(b"data: [DONE]\n\n")
                assert gw.sse_finish_reason(body) == "length"
                return gw.sse_token_ids(body)
            finally:
                await server.stop()

        streamed = asyncio.run(scenario())
        np.testing.assert_array_equal(np.asarray(streamed), expected)

    def test_non_streaming_response_and_usage(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:12]

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                status, _, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt.tolist(), "max_tokens": 5},
                )
                return status, json.loads(body)
            finally:
                await server.stop()

        status, payload = asyncio.run(scenario())
        assert status == 200
        choice = payload["choices"][0]
        assert len(choice["token_ids"]) == 5
        assert choice["finish_reason"] == "length"
        assert payload["usage"]["prompt_tokens"] == 12
        assert payload["usage"]["total_tokens"] == 17

    def test_stop_token_streams_stop_finish(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:16]
        reference_engine = _engine(tiny_config, million_factory)
        request_id = reference_engine.add_request(prompt, max_new_tokens=12)
        reference = reference_engine.run()[request_id]
        stop = int(reference[2])

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                _, _, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {
                        "prompt": prompt.tolist(), "max_tokens": 12,
                        "stream": True, "stop_token_id": stop,
                    },
                )
                return gw.sse_token_ids(body), gw.sse_finish_reason(body)
            finally:
                await server.stop()

        tokens, finish = asyncio.run(scenario())
        assert finish == "stop"
        assert tokens == reference[: len(tokens)].tolist()
        assert tokens[-1] == stop


class TestErrorPaths:
    def test_config_without_pool_refused(self):
        with pytest.raises(ValueError, match="pool_blocks"):
            GatewayConfig(pool_blocks=0)

    def test_protocol_and_routing_errors(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            results = {}
            try:
                results["bad_json"] = await gw.raw_request(
                    host, port, "POST", "/v1/completions", raw_body=b"{nope"
                )
                results["missing_prompt"] = await gw.raw_request(
                    host, port, "POST", "/v1/completions", {"max_tokens": 4}
                )
                results["bad_max_tokens"] = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": [1, 2], "max_tokens": 0},
                )
                results["oversized_prompt"] = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {
                        "prompt": list(range(2)) * tiny_config.max_seq_len,
                        "max_tokens": 4,
                    },
                )
                results["not_found"] = await gw.raw_request(
                    host, port, "GET", "/v2/everything"
                )
                results["wrong_method"] = await gw.raw_request(
                    host, port, "GET", "/v1/completions"
                )
                return results
            finally:
                await server.stop()

        results = asyncio.run(scenario())
        for name, status in [
            ("bad_json", 400), ("missing_prompt", 400), ("bad_max_tokens", 400),
            ("oversized_prompt", 400), ("not_found", 404), ("wrong_method", 405),
        ]:
            got_status, _, body = results[name]
            assert got_status == status, (name, got_status)
            assert "error" in json.loads(body), name

    def test_stepper_death_fails_request_instead_of_hanging(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        """An exception inside engine.step() kills the stepper; the client
        must get a 500 (not hang forever) and the failed replica must refuse
        new work."""
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            runner = server.router.runners[0]

            def failing_step():
                raise RuntimeError("injected engine fault")

            runner.engine.step = failing_step
            host, port = await server.start(port=0)
            try:
                status, _, body = await asyncio.wait_for(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 4},
                    ),
                    timeout=30,
                )
                assert status == 500, body
                assert runner.error is not None
                # The dead replica is routed around: backpressure, not a hang.
                status, _, _ = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": [1, 2, 3], "max_tokens": 2},
                )
                assert status == 429
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_request_larger_than_pool_is_refused_and_replica_survives(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        """A request its pool cannot hold is a client error (400) refused at
        submit, so the replica keeps serving."""
        big = np.resize(calibration_tokens, 300).tolist()

        async def scenario():
            # 8 blocks of 32 tokens cannot hold a 300-token sequence.
            server = _make_server(
                tiny_config, million_factory, pool_blocks=8, block_tokens=32,
            )
            runner = server.router.runners[0]
            host, port = await server.start(port=0)
            try:
                status, _, body = await asyncio.wait_for(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": big, "max_tokens": 4},
                    ),
                    timeout=30,
                )
                assert status == 400, body
                assert "pool blocks" in json.loads(body)["error"]["message"]
                status, _, body = await asyncio.wait_for(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": calibration_tokens[:10].tolist(), "max_tokens": 4},
                    ),
                    timeout=30,
                )
                assert status == 200, body
                assert runner.error is None
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_deep_queue_returns_429(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        """One running + one queued at max_queue_size=1 → the third gets 429."""
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(
                tiny_config, million_factory, max_batch_size=1, max_queue_size=1
            )
            host, port = await server.start(port=0)
            engine = server.router.runners[0].engine
            release = _pin_running_slot(engine)
            try:
                # A long-running stream occupies the single batch slot...
                first = asyncio.create_task(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2000, "stream": True},
                    )
                )
                await _until(lambda: engine.running_count == 1)
                # ... the second fills the wait queue (it will stay queued the
                # whole time the first decodes — max_batch_size is 1) ...
                second = asyncio.create_task(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2},
                    )
                )
                await _until(lambda: engine.queued_count == 1)
                # ... so the third must be refused with backpressure.
                status, headers, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 2},
                )
                assert status == 429, body
                assert headers.get("retry-after") == "1"
                assert "queue" in json.loads(body)["error"]["message"]
                release()
                first_status, _, _ = await first
                second_status, _, _ = await second
                assert first_status == 200 and second_status == 200
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_slo_admission_returns_429_with_projected_retry_hint(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        """With an (absurdly tight) interactive SLO, a submission whose
        projected queue wait exceeds it is shed with 429 — and the
        ``Retry-After`` hint comes from the projection, not the coarse
        hard-cap default.  Best-effort has no SLO and still queues."""
        from repro.serving import SloPolicy

        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(
                tiny_config, million_factory, max_batch_size=1,
                slo_policy=SloPolicy(interactive_slo_s=1e-4),
            )
            host, port = await server.start(port=0)
            engine = server.router.runners[0].engine
            try:
                # Two sequential completions establish the scheduler's
                # admission-interval estimate (a cold scheduler never sheds).
                for _ in range(2):
                    status, _, _ = await gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2},
                    )
                    assert status == 200
                # A long stream pins the single batch slot ...
                release = _pin_running_slot(engine)
                stream = asyncio.create_task(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2000, "stream": True},
                    )
                )
                await _until(lambda: engine.running_count == 1)
                # ... a queued interactive request sits ahead of any newcomer
                # (its own projected wait was 0 — nothing was queued) ...
                queued = asyncio.create_task(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2},
                    )
                )
                await _until(lambda: engine.queued_count == 1)
                # ... so the next interactive projection is ≥ one admission
                # interval > the SLO: shed with a Retry-After hint.
                status, headers, body = await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 2},
                )
                assert status == 429, body
                assert int(headers.get("retry-after")) >= 1
                assert "SLO" in json.loads(body)["error"]["message"]
                # Best-effort work has no SLO: same backlog, still accepted
                # (it blocks behind the stream, so just check it queued).
                best_effort = asyncio.create_task(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prompt, "max_tokens": 2,
                         "priority": "best_effort"},
                    )
                )
                await _until(lambda: engine.queued_count == 2)
                assert not best_effort.done()  # queued, not 429ed
                release()
                stream_status, _, _ = await stream
                assert stream_status == 200
                queued_status, _, _ = await queued
                best_status, _, _ = await best_effort
                assert queued_status == 200 and best_status == 200
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestDisconnectCancellation:
    async def _open_stream(self, host, port, payload):
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"POST /v1/completions HTTP/1.1\r\nHost: gw\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        return reader, writer

    async def _await_cancelled(self, engine, deadline=5.0):
        elapsed = 0.0
        while elapsed < deadline:
            finished = engine.scheduler.finished_states()
            if finished and finished[0].finish_reason is FinishReason.CANCELLED:
                return finished[0]
            await asyncio.sleep(0.02)
            elapsed += 0.02
        raise AssertionError("request was not cancelled within the deadline")

    def test_mid_stream_disconnect_cancels_request(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            engine = server.router.runners[0].engine
            host, port = await server.start(port=0)
            try:
                reader, writer = await self._open_stream(
                    host, port, {"prompt": prompt, "max_tokens": 500, "stream": True}
                )
                # Read a couple of streamed chunks, then vanish mid-stream.
                buffered = b""
                while buffered.count(b"data: ") < 3:
                    chunk = await reader.read(1024)
                    assert chunk, "stream ended before any token arrived"
                    buffered += chunk
                writer.close()
                state = await self._await_cancelled(engine)
                # Generation stopped early: far fewer tokens than requested.
                assert 0 < len(state.generated) < 500
                assert server.metrics.streams_cancelled == 1
                assert not engine.scheduler.has_work  # slot freed immediately
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_disconnect_before_first_token_cancels_during_prefill(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        """Client vanishes right after submitting: the cancel lands while the
        request is queued or still prefilling, before any chunk is written."""
        prompt = np.resize(calibration_tokens, 400).tolist()  # long prefill

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            engine = server.router.runners[0].engine
            host, port = await server.start(port=0)
            try:
                _, writer = await self._open_stream(
                    host, port, {"prompt": prompt, "max_tokens": 100, "stream": True}
                )
                writer.close()  # never read a single byte of the response
                state = await self._await_cancelled(engine)
                assert len(state.generated) < 100
                assert state.context is None  # caches released on cancel
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestObservability:
    def test_healthz_and_metrics_render(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:8].tolist()

        async def scenario():
            server = _make_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                status, _, body = await gw.raw_request(host, port, "GET", "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok" and health["replicas"] == 1
                await gw.raw_request(
                    host, port, "POST", "/v1/completions",
                    {"prompt": prompt, "max_tokens": 3},
                )
                status, headers, body = await gw.raw_request(
                    host, port, "GET", "/metrics"
                )
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                return _parse_prometheus(body.decode())
            finally:
                await server.stop()

        samples = asyncio.run(scenario())
        assert samples["repro_gateway_tokens_streamed_total"] == 3
        assert (
            samples['repro_gateway_http_requests_total{path="/v1/completions",status="200"}']
            == 1
        )
        assert samples['repro_engine_finished{replica="0"}'] == 1
        assert samples["repro_gateway_requests_in_flight"] == 0


class TestPrefixAffinityAcrossReplicas:
    def test_concurrent_shared_1k_prefix_lands_on_one_replica(
        self, long_config, long_factory, long_prefix, gw
    ):
        """Acceptance criteria: two concurrent requests sharing a 1k-token
        prefix are routed to the same replica and the second reuses the
        first's published pool blocks (visible in /metrics prefix-hit
        counters); the other replica computes nothing."""
        rng = np.random.default_rng(3)
        suffix_a = rng.integers(0, long_config.vocab_size, size=8).tolist()
        suffix_b = rng.integers(0, long_config.vocab_size, size=8).tolist()
        prefix = long_prefix.tolist()
        block_tokens = 32

        async def scenario():
            server = _make_server(
                long_config, long_factory, replicas=2, pool_blocks=512,
                block_tokens=block_tokens, max_batch_size=2,
            )
            host, port = await server.start(port=0)
            try:
                responses = await asyncio.gather(
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prefix + suffix_a, "max_tokens": 4, "stream": True},
                    ),
                    gw.raw_request(
                        host, port, "POST", "/v1/completions",
                        {"prompt": prefix + suffix_b, "max_tokens": 4},
                    ),
                )
                for status, _, _ in responses:
                    assert status == 200
                _, _, metrics_body = await gw.raw_request(host, port, "GET", "/metrics")
                return _parse_prometheus(metrics_body.decode())
            finally:
                await server.stop()

        samples = asyncio.run(scenario())
        prefix_blocks = len(long_prefix) // block_tokens  # 32 blocks of shared prefix
        hits = [
            samples[f'repro_engine_prefix_block_hits_total{{replica="{i}"}}']
            for i in range(2)
        ]
        computed = [
            samples[f'repro_engine_prefill_tokens_computed_total{{replica="{i}"}}']
            for i in range(2)
        ]
        reused = [
            samples[f'repro_engine_prefill_tokens_reused_total{{replica="{i}"}}']
            for i in range(2)
        ]
        adoptions = [
            samples[f'repro_pool_adoptions_total{{replica="{i}"}}'] for i in range(2)
        ]
        serving = int(np.argmax(computed))
        other = 1 - serving
        # Both requests landed on one replica; the other replica stayed cold.
        assert computed[other] == 0 and reused[other] == 0 and hits[other] == 0
        # The second request adopted the full published 1k prefix chain.
        assert hits[serving] == prefix_blocks
        assert reused[serving] == prefix_blocks * block_tokens
        assert adoptions[serving] >= prefix_blocks
        # Router placed at least one request by affinity (sticky or pool).
        prefix_routed = samples['repro_router_decisions_total{strategy="prefix"}']
        sticky_routed = samples['repro_router_decisions_total{strategy="sticky"}']
        assert prefix_routed + sticky_routed >= 1
