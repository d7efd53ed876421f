"""Open-loop replay of a workload schedule against a live gateway.

The client is a deliberately minimal asyncio HTTP/1.1 + SSE implementation
(the gateway speaks ``Connection: close``, one exchange per socket) so the
harness has zero dependencies beyond the standard library.  Replay is
**open-loop**: each request fires at its scheduled offset regardless of how
many earlier requests are still in flight — the arrival process models
independent clients, so server slowness must build queues, not thin the
offered load (closed-loop replay silently flatters an overloaded server).

Latency is measured at the SSE frame level: TTFT is scheduled-start to the
first ``data:`` frame carrying a token (queue wait + routing + prefill, the
user-visible "time to first character"), ITL is the gap between consecutive
token frames.  429 refusals are outcomes, not errors — under SLO admission
they are the mechanism, and the report counts them per class.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.loadgen.workload import ScheduledRequest

#: Guard against a wedged server pinning the harness forever.
REQUEST_TIMEOUT_S = 300.0


@dataclass
class RequestOutcome:
    """What one scheduled request actually experienced."""

    index: int
    priority: str
    tenant: str
    prefix_group: int
    status: int
    ttft_s: Optional[float] = None
    itl_s: list[float] = field(default_factory=list)
    tokens: int = 0
    finish_reason: Optional[str] = None
    retry_after_s: Optional[float] = None
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status == 200 and self.error is None


def _http_head(path: str, body: bytes, host: str) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode()


async def _read_headers(reader: asyncio.StreamReader) -> tuple[int, dict]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before responding")
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def run_one(
    host: str,
    port: int,
    scheduled: ScheduledRequest,
    started_at: float,
) -> RequestOutcome:
    """Fire one scheduled request and stream its SSE response.

    ``started_at`` is the replay epoch on ``time.perf_counter()``; TTFT is
    measured from the request's *scheduled* arrival, so time lost to event
    loop lag counts against the server the same way client-side queueing
    would in a real deployment.
    """
    outcome = RequestOutcome(
        index=scheduled.index,
        priority=scheduled.priority,
        tenant=scheduled.tenant,
        prefix_group=scheduled.prefix_group,
        status=0,
    )
    payload = {
        "prompt": [int(t) for t in scheduled.prompt_ids],
        "max_tokens": scheduled.max_tokens,
        "stream": True,
        "priority": scheduled.priority,
        "tenant": scheduled.tenant,
    }
    body = json.dumps(payload, separators=(",", ":")).encode()
    scheduled_start = started_at + scheduled.at_s
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        outcome.error = f"connect failed: {exc}"
        return outcome
    try:
        writer.write(_http_head("/v1/completions", body, host) + body)
        await writer.drain()
        status, headers = await asyncio.wait_for(
            _read_headers(reader), REQUEST_TIMEOUT_S
        )
        outcome.status = status
        if status != 200:
            if "retry-after" in headers:
                outcome.retry_after_s = float(headers["retry-after"])
            await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
            return outcome
        last_token_at: Optional[float] = None
        while True:
            line = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
            if not line:
                break
            text = line.decode("utf-8", "replace").strip()
            if not text.startswith("data: "):
                continue
            if text == "data: [DONE]":
                break
            now = time.perf_counter()
            event = json.loads(text[len("data: "):])
            choice = event["choices"][0]
            if choice.get("token_id") is not None:
                outcome.tokens += 1
                if last_token_at is None:
                    outcome.ttft_s = now - scheduled_start
                else:
                    outcome.itl_s.append(now - last_token_at)
                last_token_at = now
            if choice.get("finish_reason") is not None:
                outcome.finish_reason = choice["finish_reason"]
    except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return outcome


async def replay(
    host: str, port: int, schedule: Sequence[ScheduledRequest]
) -> list[RequestOutcome]:
    """Replay a schedule open-loop; outcomes in schedule order.

    Requests are launched at their arrival offsets (the schedule must be
    sorted by ``at_s``, which :func:`repro.loadgen.workload.synthesize`
    guarantees) and awaited together at the end.
    """
    started_at = time.perf_counter()
    tasks: list[asyncio.Task] = []
    for scheduled in schedule:
        delay = scheduled.at_s - (time.perf_counter() - started_at)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(run_one(host, port, scheduled, started_at))
        )
    return list(await asyncio.gather(*tasks))


__all__ = ["RequestOutcome", "REQUEST_TIMEOUT_S", "replay", "run_one"]
