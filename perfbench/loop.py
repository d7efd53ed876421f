"""Closed-loop clients stepped by the engine, never by the wall clock.

Clients join one per engine step (client ``c`` sends its first request
before step ``c + 1``), so the loop does not open with every client's
prompt landing in the same step.  Then the loop repeats: one
``engine.step()``, stamp the tokens it produced, and for each request that
finished submit that client's next one.  Which requests share a step
depends only on the workload and on the engine's deterministic scheduling,
so two runs of one seed do the same work; only the timestamps differ.

Tokens are stamped when ``step()`` returns, which is when an in-process
caller receives them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from perfbench.workloads import Request, Workload


@dataclass
class Record:
    """What one request saw, in the client loop's clock."""

    request: Request
    submitted: float = 0.0
    #: When the submission was acknowledged (``add_request`` returned, or
    #: the HTTP response headers arrived).
    accepted: float = 0.0
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    finish_reason: Optional[str] = None
    error: Optional[str] = None

    @property
    def ttft(self) -> Optional[float]:
        return self.token_times[0] - self.submitted if self.token_times else None

    @property
    def gaps(self) -> list[float]:
        t = self.token_times
        return [b - a for a, b in zip(t, t[1:])]

    @property
    def ok(self) -> bool:
        """Finished by length with exactly its token budget (no stop tokens)."""
        return (
            self.error is None
            and self.finish_reason == "length"
            and len(self.tokens) == self.request.max_new_tokens
        )


@dataclass
class LoopResult:
    records: list[Record]
    #: ``(start, end)`` of every ``engine.step()`` call.
    steps: list[tuple[float, float]]
    started: float
    ended: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def run_closed_loop(
    engine,
    workload: Workload,
    clock: Callable[[], float] = time.perf_counter,
) -> LoopResult:
    """Serve ``workload`` to completion on ``engine``.

    ``engine`` needs ``add_request(prompt_ids, max_new_tokens,
    request_id=...)`` and ``step()`` returning outputs with ``request_id``,
    ``token``, ``finished`` and ``finish_reason``.  A submission the engine
    refuses fails that request and the client moves on; an exception from
    ``step()`` fails every request still in flight and ends the run, as
    does an engine that stops making progress (more steps than tokens the
    workload could ever need).
    """
    pending = [list(stream) for stream in workload.streams]
    for stream in pending:
        stream.reverse()  # pop() from the end yields the stream in order
    records: dict[str, Record] = {}
    ordered: list[Record] = []
    in_flight: set[str] = set()
    steps: list[tuple[float, float]] = []
    max_steps = 4 * sum(
        len(r.prompt) + r.max_new_tokens for s in workload.streams for r in s
    )

    def submit_next(client: int) -> None:
        while pending[client]:
            request = pending[client].pop()
            record = Record(request)
            ordered.append(record)
            records[request.request_id] = record
            record.submitted = clock()
            try:
                engine.add_request(
                    np.asarray(request.prompt, dtype=np.int64),
                    request.max_new_tokens,
                    request_id=request.request_id,
                )
            except Exception as exc:  # refused: count it, keep the client going
                record.error = f"submit: {exc!r}"
                continue
            record.accepted = clock()
            in_flight.add(request.request_id)
            return

    started = clock()
    joined = 0
    while joined < workload.clients or in_flight:
        if joined < workload.clients:
            submit_next(joined)
            joined += 1
        if len(steps) >= max_steps:
            for request_id in in_flight:
                records[request_id].error = f"stalled after {len(steps)} steps"
            break
        step_start = clock()
        try:
            outputs = engine.step()
        except Exception as exc:
            for request_id in in_flight:
                records[request_id].error = f"step: {exc!r}"
            in_flight.clear()
            steps.append((step_start, clock()))
            break
        now = clock()
        steps.append((step_start, now))
        for output in outputs:
            record = records.get(output.request_id)
            if record is None:
                continue
            if output.token is not None:
                record.token_times.append(now)
                record.tokens.append(int(output.token))
            if output.finished:
                reason = output.finish_reason
                record.finish_reason = getattr(reason, "value", reason)
                in_flight.discard(output.request_id)
                submit_next(record.request.client)
    return LoopResult(ordered, steps, started, clock())
