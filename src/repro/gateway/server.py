"""Asyncio HTTP front door: streaming completions over stdlib only.

:class:`GatewayServer` is a minimal HTTP/1.1 server built directly on
``asyncio.start_server`` (the repo takes no third-party dependencies), with
three endpoints:

* ``POST /v1/completions`` — OpenAI-style completion; ``"stream": true``
  responds with server-sent events, one ``data:`` chunk per decoded token
  as the engine produces it, else a single JSON body.
* ``GET /healthz`` — liveness + the health engine's rolling-window verdict
  (``ok``/``degraded``/``unhealthy`` with per-rule checks, SLO burn rates
  and per-replica reasons); always 200 while the process serves.
* ``GET /readyz`` — readiness: 503 until :meth:`GatewayServer.finish_startup`
  brings the replicas up (and again if the gateway turns unhealthy), so a
  booting/calibrating gateway reports not-ready instead of ok.
* ``GET /metrics`` — Prometheus text format (see :mod:`repro.gateway.metrics`),
  including per-tier TTFT/ITL histograms observed by the completion handlers.
* ``GET /debug/trace`` — Chrome trace-event JSON of the shared
  :class:`~repro.obs.trace.TraceRecorder` (load it in Perfetto); supports
  ``?since=<seconds>`` on the recorder's clock.
* ``GET /debug/prof`` — the phase profiler's aggregated view: per-phase
  self-time table, collapsed stacks and a speedscope flamegraph JSON.
* ``GET /v1/requests/<id>/trace`` — one request's slice of the same trace.

Design points:

* every connection is ``Connection: close`` — one exchange per socket keeps
  the parser small and makes disconnect detection unambiguous;
* requests are routed by :class:`~repro.gateway.router.ReplicaRouter`;
  capacity refusals — the ``max_queue_size`` hard cap, or an
  :class:`~repro.serving.scheduler.SloCapacityError` when the replica's SLO
  admission gate projects the request would miss its class's queue-wait SLO
  — surface as **429** with a ``Retry-After`` hint rather than unbounded
  buffering;
* a *disconnect watcher* reads the socket while a stream is in flight —
  client EOF (curl hit Ctrl-C) cancels the request inside the engine via
  :meth:`AsyncEngineRunner.cancel`, freeing its batch slot and pool blocks
  immediately.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional, Sequence
from urllib.parse import parse_qsl

from repro.gateway.metrics import GatewayMetrics, render_prometheus
from repro.obs.context import bind_request_id, reset_request_id
from repro.obs.health import HealthEngine, HealthSample, state_value
from repro.obs.prof import (
    merge_phase_snapshots,
    phase_table,
    to_collapsed,
    to_speedscope,
)
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.gateway.protocol import (
    SSE_DONE,
    CompletionRequest,
    ProtocolError,
    chunk_json,
    completion_json,
    sse_event,
)
from repro.gateway.router import ReplicaRouter
from repro.serving.request import FinishReason, StepOutput
from repro.serving.scheduler import QueueFullError
from repro.utils.logging import get_logger

logger = get_logger("gateway")

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: dict,
        body: bytes,
        query: Optional[dict] = None,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.query = query or {}


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.1 request; ``None`` on immediate EOF."""
    try:
        request_line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:
        # StreamReader.readline wraps a line longer than the reader limit
        # (64 KiB default) in ValueError — a client error, not a server one.
        raise _HttpError(400, "request line too long") from None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = len(request_line)
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _HttpError(400, "header line too long") from None
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if n < 0:
            raise _HttpError(400, "invalid Content-Length")
        if n > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body larger than {_MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(n)
    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string)) if query_string else {}
    return _Request(method, path, headers, body, query)


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Sequence[tuple[str, str]] = (),
) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _error_body(status: int, message: str) -> bytes:
    return _json_body(
        {"error": {"message": message, "type": "invalid_request_error", "code": status}}
    )


class GatewayServer:
    """Serve one :class:`ReplicaRouter` over HTTP."""

    def __init__(
        self,
        router: ReplicaRouter,
        tokenizer=None,
        model_name: str = "repro-million",
        trace: Optional[TraceRecorder] = None,
        health: Optional[HealthEngine] = None,
    ) -> None:
        self.router = router
        self.tokenizer = tokenizer
        self.model_name = model_name
        self.metrics = GatewayMetrics()
        # The process-wide recorder.  Bootstrap hands every replica engine
        # the same instance, so defaulting to the first engine's recorder
        # picks up the shared one; without tracing this is NULL_RECORDER and
        # the trace endpoints serve an empty (disabled) trace.
        if trace is None:
            trace = next(
                (
                    runner.engine.trace
                    for runner in router.runners
                    if runner.engine.trace.enabled
                ),
                NULL_RECORDER,
            )
        self.trace = trace
        # SLO health: every /healthz, /readyz and /metrics scrape feeds the
        # engine one sample and gets the rolling-window verdict back.  The
        # default policy carries no SLOs, so a bare gateway is "ok" on
        # liveness alone; bootstrap wires thresholds from GatewayConfig.
        self.health = (
            health if health is not None else HealthEngine(trace=self.trace)
        )
        # String prompts fold into the smallest replica vocabulary (they are
        # homogeneous in practice; min() is the safe choice if not).
        self.vocab_size = min(
            runner.engine.model.config.vocab_size for runner in router.runners
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = False

    # Lifecycle ------------------------------------------------------------

    async def start_listening(
        self, host: str = "127.0.0.1", port: int = 8707
    ) -> tuple[str, int]:
        """Bind the listener without starting the replicas.

        Liveness (``/healthz``) answers immediately, but ``/readyz`` stays
        503 until :meth:`finish_startup` brings the runners up — the
        booting/calibrating window reports not-ready instead of ok, so a
        load balancer never routes traffic at an engine that cannot serve.
        """
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def finish_startup(self) -> None:
        """Start every replica runner and flip ``/readyz`` to ready."""
        for runner in self.router.runners:
            if not runner.started:
                await runner.start()
        self._ready = True

    async def start(self, host: str = "127.0.0.1", port: int = 8707) -> tuple[str, int]:
        """Start the listener and all replica runners; returns (host, port)."""
        bound = await self.start_listening(host, port)
        await self.finish_startup()
        return bound

    @property
    def ready(self) -> bool:
        """Readiness: runners are up and at least one replica can serve."""
        return self._ready and any(
            runner.error is None for runner in self.router.runners
        )

    async def stop(self) -> None:
        self._ready = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for runner in self.router.runners:
            await runner.stop()

    @property
    def port(self) -> int:
        assert self._server is not None, "server is not started"
        return self._server.sockets[0].getsockname()[1]

    # Connection handling ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        path = "?"
        try:
            try:
                request = await _read_request(reader)
            except _HttpError as exc:
                await self._send(
                    writer, exc.status, _error_body(exc.status, str(exc))
                )
                self.metrics.observe_request(path, exc.status)
                return
            if request is None:
                return
            path = request.path
            await self._dispatch(request, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; streaming paths already cancelled
        except Exception:
            logger.exception("unhandled error serving %s", path)
            try:
                await self._send(
                    writer, 500, _error_body(500, "internal server error")
                )
                self.metrics.observe_request(path, 500)
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _dispatch(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if request.path == "/healthz":
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            await self._healthz(request, writer)
        elif request.path == "/readyz":
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            await self._readyz(request, writer)
        elif request.path == "/debug/prof":
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            await self._debug_prof(request, writer)
        elif request.path == "/metrics":
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            await self._metrics(request, writer)
        elif request.path == "/v1/completions":
            if request.method != "POST":
                await self._simple(writer, request.path, 405, "use POST")
                return
            await self._completions(request, reader, writer)
        elif request.path == "/debug/trace":
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            await self._debug_trace(request, writer)
        elif request.path.startswith("/v1/requests/") and request.path.endswith(
            "/trace"
        ):
            if request.method != "GET":
                await self._simple(writer, request.path, 405, "use GET")
                return
            request_id = request.path[len("/v1/requests/") : -len("/trace")]
            await self._request_trace(request, writer, request_id)
        else:
            await self._simple(writer, request.path, 404, f"no route for {request.path}")

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Sequence[tuple[str, str]] = (),
    ) -> None:
        writer.write(_response_bytes(status, body, content_type, extra_headers))
        await writer.drain()

    async def _simple(
        self, writer: asyncio.StreamWriter, path: str, status: int, message: str
    ) -> None:
        await self._send(writer, status, _error_body(status, message))
        self.metrics.observe_request(path, status)

    # Endpoints --------------------------------------------------------------

    def _health_sample(self) -> HealthSample:
        """One scrape's worth of cumulative state for the health engine."""
        replicas = []
        for runner in self.router.runners:
            engine = runner.engine
            replicas.append(
                {
                    "queued": engine.queued_count,
                    "running": engine.running_count,
                    "pool_pressure": float(engine.pool.stats()["pressure"]),
                    "failed": runner.error is not None,
                    "error": str(runner.error) if runner.error is not None else "",
                }
            )
        # Probe endpoints are excluded: a /readyz 503 during boot is the
        # readiness contract working, not a serving error, and counting it
        # would let the probes themselves trip the error_rate rule.
        probes = {"/healthz", "/readyz"}
        http_total = sum(
            count
            for (path, _), count in self.metrics.http_requests.items()
            if path not in probes
        )
        http_errors = sum(
            count
            for (path, status), count in self.metrics.http_requests.items()
            if status.startswith("5") and path not in probes
        )
        return HealthSample(
            ts=TraceRecorder.now(),
            ttft={
                priority: hist.snapshot()
                for priority, hist in self.metrics.priority_ttft_seconds.items()
            },
            http_total=http_total,
            http_errors=http_errors,
            replicas=replicas,
        )

    def _evaluate_health(self) -> dict:
        """Feed one sample to the health engine and sync the router's view."""
        report = self.health.observe(self._health_sample())
        self.router.set_replica_health(
            [state_value(state) for state in self.health.replica_states]
        )
        return report

    async def _healthz(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        report = self._evaluate_health()
        body = _json_body(
            {
                "status": report["status"],
                "ready": self.ready,
                "model": self.model_name,
                "replicas": len(self.router.runners),
                "in_flight": self.metrics.in_flight,
                "window_s": report["window_s"],
                "burn_rates": report["burn_rates"],
                "checks": report["checks"],
                "replica_health": report["replicas"],
            }
        )
        # Liveness: /healthz is 200 as long as the process serves — the
        # verdict rides in the body.  Readiness semantics live on /readyz.
        await self._send(writer, 200, body)
        self.metrics.observe_request(request.path, 200)

    async def _readyz(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        report = self._evaluate_health()
        ready = self.ready and report["status"] != "unhealthy"
        status = 200 if ready else 503
        reason = (
            "ok"
            if ready
            else ("replicas are not started" if not self._ready else report["status"])
        )
        body = _json_body(
            {"ready": ready, "status": report["status"], "reason": reason}
        )
        await self._send(writer, status, body)
        self.metrics.observe_request(request.path, status)

    async def _debug_prof(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        snapshots = [
            runner.engine.prof.snapshot() for runner in self.router.runners
        ]
        merged = merge_phase_snapshots(snapshots)
        body = _json_body(
            {
                "enabled": any(
                    runner.engine.prof.enabled for runner in self.router.runners
                ),
                "phases": phase_table(merged),
                "collapsed": to_collapsed(merged),
                "speedscope": to_speedscope(merged),
                "per_replica": {
                    str(index): phase_table(snapshot)
                    for index, snapshot in enumerate(snapshots)
                },
            }
        )
        await self._send(writer, 200, body)
        self.metrics.observe_request(request.path, 200)

    async def _debug_trace(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        try:
            since = float(request.query.get("since", 0.0))
        except ValueError:
            await self._simple(
                writer, request.path, 400, "since must be a number (seconds)"
            )
            return
        if not math.isfinite(since):
            # float() happily parses "nan"/"inf", but a non-finite cutoff is
            # meaningless on the recorder's clock — reject, don't 500 later.
            await self._simple(
                writer, request.path, 400, "since must be a finite number (seconds)"
            )
            return
        body = _json_body(
            self.trace.to_chrome_trace(
                since=since, request_id=request.query.get("request_id")
            )
        )
        await self._send(writer, 200, body)
        self.metrics.observe_request(request.path, 200)

    async def _request_trace(
        self, request: _Request, writer: asyncio.StreamWriter, request_id: str
    ) -> None:
        if not request_id:
            await self._simple(writer, request.path, 404, "missing request id")
            return
        trace = self.trace.to_chrome_trace(request_id=request_id)
        if trace["otherData"]["events"] == 0:
            # Unknown id, or its events already fell off the ring buffer —
            # either way there is nothing to show, which a client must be
            # able to tell apart from an empty-but-real trace.
            await self._simple(
                writer,
                request.path,
                404,
                f"no trace events for request {request_id!r}",
            )
            return
        await self._send(writer, 200, _json_body(trace))
        # One normalized path label; per-request-id labels would explode
        # the http_requests family's cardinality.
        self.metrics.observe_request("/v1/requests/<id>/trace", 200)

    async def _metrics(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        replica_stats = [await runner.stats() for runner in self.router.runners]
        self._evaluate_health()
        text = render_prometheus(
            self.metrics, replica_stats, self.router.stats(), health=self.health
        )
        await self._send(
            writer, 200, text.encode(), content_type="text/plain; version=0.0.4"
        )
        self.metrics.observe_request(request.path, 200)

    async def _completions(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # TTFT is measured from HTTP accept, not engine submission — the
        # client's clock starts when its request arrives, and queue wait is
        # part of the latency it experiences.
        arrival = TraceRecorder.now()
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            await self._simple(writer, request.path, 400, "body is not valid JSON")
            return
        try:
            completion = CompletionRequest.from_json(
                payload, tokenizer=self.tokenizer, vocab_size=self.vocab_size
            )
        except ProtocolError as exc:
            await self._simple(writer, request.path, exc.status, str(exc))
            return

        try:
            decision = self.router.route(completion.prompt_ids, completion.tier)
            request_id, queue = await decision.runner.submit(
                completion.to_generation_request()
            )
        except QueueFullError as exc:
            # SloCapacityError carries a projected-wait-derived backoff hint;
            # the plain hard-cap refusal keeps the coarse 1s default.
            retry_after = getattr(exc, "retry_after_s", 1)
            await self._send(
                writer,
                429,
                _error_body(429, str(exc)),
                extra_headers=(("Retry-After", str(int(retry_after))),),
            )
            self.metrics.observe_request(request.path, 429)
            return
        except ValueError as exc:
            # Engine-side validation (e.g. prompt longer than max_seq_len).
            await self._simple(writer, request.path, 400, str(exc))
            return

        self.metrics.in_flight += 1
        log_token = bind_request_id(request_id)
        try:
            if completion.stream:
                await self._stream_completion(
                    request, reader, writer, decision.runner, request_id,
                    completion, queue, arrival,
                )
            else:
                await self._full_completion(
                    request, writer, request_id, completion, queue, arrival
                )
        finally:
            reset_request_id(log_token)
            self.metrics.in_flight -= 1
            decision.runner.release(request_id)
            if self.trace.enabled:
                self.trace.complete(
                    "request",
                    arrival,
                    TraceRecorder.now(),
                    track="gateway",
                    request_id=request_id,
                    args={
                        "tier": completion.tier or "default",
                        "priority": completion.priority,
                        "tenant": completion.tenant or "",
                        "stream": completion.stream,
                    },
                )

    def _observe_token_latency(
        self,
        request_id: str,
        tier: Optional[str],
        priority: str,
        arrival: float,
        last_token_at: Optional[float],
    ) -> float:
        """Record TTFT (first token) or ITL (later tokens); returns now."""
        now = TraceRecorder.now()
        if last_token_at is None:
            self.metrics.observe_ttft(now - arrival, tier, priority)
            if self.trace.enabled:
                self.trace.instant(
                    "first_token",
                    track="gateway",
                    request_id=request_id,
                    ts=now,
                    args={"ttft_s": now - arrival},
                )
        else:
            self.metrics.observe_itl(now - last_token_at, tier, priority)
        return now

    async def _full_completion(
        self,
        request: _Request,
        writer: asyncio.StreamWriter,
        request_id: str,
        completion: CompletionRequest,
        queue: "asyncio.Queue[StepOutput]",
        arrival: float,
    ) -> None:
        tokens: list[int] = []
        finish_reason = None
        last_token_at: Optional[float] = None
        while True:
            output = await queue.get()
            if output.token is not None:
                last_token_at = self._observe_token_latency(
                    request_id,
                    completion.tier,
                    completion.priority,
                    arrival,
                    last_token_at,
                )
                tokens.append(output.token)
            if output.finished:
                finish_reason = output.finish_reason
                break
        if finish_reason is FinishReason.ERROR:
            # The replica's stepper died mid-request (see AsyncEngineRunner);
            # an incomplete result must not look like a successful completion.
            await self._simple(writer, request.path, 500, "engine replica failed")
            return
        self.metrics.tokens_streamed += len(tokens)
        body = _json_body(
            completion_json(
                request_id, completion, tokens, finish_reason, tokenizer=self.tokenizer
            )
        )
        await self._send(writer, 200, body)
        self.metrics.observe_request(request.path, 200)

    async def _stream_completion(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        runner,
        request_id: str,
        completion: CompletionRequest,
        queue: "asyncio.Queue[StepOutput]",
        arrival: float,
    ) -> None:
        self.metrics.streams_started += 1
        last_token_at: Optional[float] = None
        header = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(header)
        disconnected = asyncio.Event()
        watcher = asyncio.create_task(_watch_disconnect(reader, disconnected))
        cancelled = False
        try:
            while True:
                get_output = asyncio.create_task(queue.get())
                disconnect_wait = asyncio.create_task(disconnected.wait())
                done, pending = await asyncio.wait(
                    {get_output, disconnect_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in pending:
                    task.cancel()
                if get_output not in done:
                    cancelled = True
                    break
                output: StepOutput = get_output.result()
                if output.finish_reason is FinishReason.CANCELLED:
                    cancelled = True
                    break
                try:
                    if output.token is not None:
                        last_token_at = self._observe_token_latency(
                            request_id,
                            completion.tier,
                            completion.priority,
                            arrival,
                            last_token_at,
                        )
                        self.metrics.tokens_streamed += 1
                        writer.write(
                            sse_event(
                                chunk_json(
                                    request_id,
                                    completion,
                                    output.token,
                                    output.finish_reason if output.finished else None,
                                    tokenizer=self.tokenizer,
                                )
                            )
                        )
                        await writer.drain()
                    if output.finished:
                        if output.token is None:
                            # Finish marker with no token (e.g. context full
                            # right at prefill) still needs a final chunk.
                            writer.write(
                                sse_event(
                                    chunk_json(
                                        request_id,
                                        completion,
                                        None,
                                        output.finish_reason,
                                        tokenizer=self.tokenizer,
                                    )
                                )
                            )
                        writer.write(SSE_DONE)
                        await writer.drain()
                        break
                except ConnectionError:
                    cancelled = True
                    break
        finally:
            watcher.cancel()
            try:
                await watcher
            except (asyncio.CancelledError, Exception):
                pass
            if cancelled:
                self.metrics.streams_cancelled += 1
                await runner.cancel(request_id)
            if self.trace.enabled:
                self.trace.instant(
                    "disconnect" if cancelled else "stream_end",
                    track="gateway",
                    request_id=request_id,
                )
        self.metrics.observe_request(request.path, 200)


async def _watch_disconnect(
    reader: asyncio.StreamReader, disconnected: asyncio.Event
) -> None:
    """Signal when the client half-closes or resets the connection."""
    try:
        while True:
            chunk = await reader.read(4096)
            if not chunk:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        disconnected.set()


__all__ = ["GatewayServer"]
