"""Trace endpoints: ``/debug/trace`` and ``/v1/requests/<id>/trace``.

The PR's acceptance criterion lives here: an exported Chrome trace pulled
from the live gateway must validate against the trace-event schema and
contain the *correlated* gateway→engine lifecycle — queue wait, prefill,
at least one decode step listing the request, and a first-token instant —
for every request served, stitched across tracks by flow events.
"""

from __future__ import annotations

import asyncio
import json

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.export import validate_chrome_trace
from repro.obs.trace import TraceRecorder
from repro.serving import BatchedMillionEngine
from support.reference import pooled


def _make_traced_server(config, factory, capacity=8192, **engine_kwargs):
    model = build_model(config, seed=7)
    engine = BatchedMillionEngine(
        model, pooled(model, factory),
        trace=TraceRecorder(capacity=capacity), trace_track="replica-0",
        **engine_kwargs,
    )
    runner = AsyncEngineRunner(engine, name="replica-0")
    return GatewayServer(ReplicaRouter([runner]), tokenizer=ByteTokenizer())


def _events_for(trace: dict, request_id: str) -> list[dict]:
    return [
        e for e in trace["traceEvents"]
        if e.get("args", {}).get("request_id") == request_id
    ]


def _track_names(trace: dict) -> dict[int, str]:
    return {
        e["tid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


async def _serve_requests(gw, host, port, prompt, n_requests, max_tokens=4):
    """POST ``n_requests`` completions; return their engine request ids."""
    ids = []
    for _ in range(n_requests):
        status, _, body = await gw.raw_request(
            host, port, "POST", "/v1/completions",
            {"prompt": prompt, "max_tokens": max_tokens},
        )
        assert status == 200
        ids.append(json.loads(body)["id"][len("cmpl-"):])
    return ids


class TestDebugTrace:
    def test_exported_trace_correlates_every_request(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:12].tolist()

        async def scenario():
            server = _make_traced_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                ids = await _serve_requests(gw, host, port, prompt, n_requests=3)
                status, headers, body = await gw.raw_request(
                    host, port, "GET", "/debug/trace"
                )
                assert status == 200
                assert headers["content-type"].startswith("application/json")
                return ids, json.loads(body)
            finally:
                await server.stop()

        ids, trace = asyncio.run(scenario())
        validate_chrome_trace(trace)
        assert trace["otherData"]["truncated"] is False
        tracks = _track_names(trace)
        assert set(tracks.values()) == {"gateway", "replica-0"}

        decode_steps = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "decode_step"
        ]
        for request_id in ids:
            events = _events_for(trace, request_id)
            by_name = {}
            for event in events:
                by_name.setdefault(event["name"], []).append(event)
            # The full lifecycle, correlated by request id across tracks.
            for name in ("request", "queue_wait", "prefill", "first_token"):
                assert by_name.get(name), f"{name} missing for {request_id}"
            assert tracks[by_name["request"][0]["tid"]] == "gateway"
            assert tracks[by_name["prefill"][0]["tid"]] == "replica-0"
            assert by_name["first_token"][0]["ph"] == "i"
            # Queue wait ends no later than prefill starts.
            wait, prefill = by_name["queue_wait"][0], by_name["prefill"][0]
            assert wait["ts"] <= prefill["ts"]
            # At least one decode step served this request.
            assert any(
                request_id in step["args"]["requests"] for step in decode_steps
            )
            # Flow arrows stitch the request's spans into one chain that
            # crosses from the gateway track to the engine track.
            flow = [
                e for e in trace["traceEvents"]
                if e["ph"] in ("s", "t", "f")
                and e["name"] == f"request:{request_id}"
            ]
            assert [e["ph"] for e in flow][:1] == ["s"]
            assert flow[-1]["ph"] == "f"
            assert len({e["id"] for e in flow}) == 1
            assert len({e["tid"] for e in flow}) == 2

    def test_since_filter_and_validation(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_traced_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                await _serve_requests(gw, host, port, prompt, n_requests=1)
                _, _, all_body = await gw.raw_request(
                    host, port, "GET", "/debug/trace"
                )
                _, _, late_body = await gw.raw_request(
                    host, port, "GET", "/debug/trace?since=1e12"
                )
                bad_status, _, _ = await gw.raw_request(
                    host, port, "GET", "/debug/trace?since=yesterday"
                )
                return json.loads(all_body), json.loads(late_body), bad_status
            finally:
                await server.stop()

        full, late, bad_status = asyncio.run(scenario())
        assert full["otherData"]["events"] > 0
        assert late["otherData"]["events"] == 0
        assert late["traceEvents"] == []
        assert bad_status == 400

    def test_non_finite_since_rejected(self, tiny_config, million_factory, gw):
        # float('nan')/float('inf') parse fine, so a plain float() guard
        # would let them through and silently break the filter comparison.
        async def scenario():
            server = _make_traced_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                statuses = []
                for value in ("nan", "inf", "-inf", "NaN"):
                    status, _, body = await gw.raw_request(
                        host, port, "GET", f"/debug/trace?since={value}"
                    )
                    statuses.append((status, json.loads(body)))
                return statuses
            finally:
                await server.stop()

        for status, body in asyncio.run(scenario()):
            assert status == 400
            assert "finite" in body["error"]["message"]

    def test_truncated_flag_set_when_ring_wraps(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            # An 8-event ring cannot hold three requests' lifecycles.
            server = _make_traced_server(tiny_config, million_factory, capacity=8)
            host, port = await server.start(port=0)
            try:
                await _serve_requests(gw, host, port, prompt, n_requests=3)
                _, _, body = await gw.raw_request(host, port, "GET", "/debug/trace")
                return json.loads(body)
            finally:
                await server.stop()

        trace = asyncio.run(scenario())
        validate_chrome_trace(trace)
        assert trace["otherData"]["truncated"] is True
        assert trace["otherData"]["dropped_events"] > 0

    def test_request_id_filter(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:10].tolist()

        async def scenario():
            server = _make_traced_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                ids = await _serve_requests(gw, host, port, prompt, n_requests=2)
                _, _, body = await gw.raw_request(
                    host, port, "GET", f"/debug/trace?request_id={ids[0]}"
                )
                return ids, json.loads(body)
            finally:
                await server.stop()

        (wanted, other), trace = asyncio.run(scenario())
        assert _events_for(trace, wanted)
        assert not _events_for(trace, other)


class TestPerRequestTrace:
    def test_single_request_trace_and_404(
        self, tiny_config, million_factory, calibration_tokens, gw
    ):
        prompt = calibration_tokens[:12].tolist()

        async def scenario():
            server = _make_traced_server(tiny_config, million_factory)
            host, port = await server.start(port=0)
            try:
                ids = await _serve_requests(gw, host, port, prompt, n_requests=2)
                status, _, body = await gw.raw_request(
                    host, port, "GET", f"/v1/requests/{ids[0]}/trace"
                )
                missing_status, _, _ = await gw.raw_request(
                    host, port, "GET", "/v1/requests/no-such-request/trace"
                )
                return ids, status, json.loads(body), missing_status
            finally:
                await server.stop()

        (wanted, other), status, trace, missing_status = asyncio.run(scenario())
        assert status == 200
        assert missing_status == 404
        validate_chrome_trace(trace)
        named = [
            e["name"] for e in trace["traceEvents"] if e["ph"] in ("X", "i")
        ]
        assert "request" in named and "prefill" in named
        assert not _events_for(trace, other)


class TestUntracedGateway:
    def test_debug_trace_reports_disabled_recorder(
        self, tiny_config, million_factory, gw
    ):
        async def scenario():
            model = build_model(tiny_config, seed=7)
            engine = BatchedMillionEngine(model, pooled(model, million_factory))
            runner = AsyncEngineRunner(engine, name="replica-0")
            server = GatewayServer(
                ReplicaRouter([runner]), tokenizer=ByteTokenizer()
            )
            host, port = await server.start(port=0)
            try:
                status, _, body = await gw.raw_request(
                    host, port, "GET", "/debug/trace"
                )
                return status, json.loads(body)
            finally:
                await server.stop()

        status, trace = asyncio.run(scenario())
        assert status == 200
        assert trace["traceEvents"] == []
        assert trace["otherData"]["enabled"] is False
