"""The step-driven closed loop's bookkeeping, against a stub engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

from perfbench.loop import run_closed_loop
from perfbench.workloads import Request, Workload


class Clock:
    """Time advances only inside the stub's ``step()``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class Out:
    request_id: str
    token: Optional[int]
    finished: bool
    finish_reason: Optional[str] = None


class StubEngine:
    """FIFO engine: ``batch`` running requests, one token each per step."""

    def __init__(self, clock: Clock, batch: int = 1, step_s: float = 1.0,
                 refuse: frozenset = frozenset(), fail_at_step: int = -1) -> None:
        self.clock, self.batch, self.step_s = clock, batch, step_s
        self.refuse, self.fail_at_step = refuse, fail_at_step
        self.queue: list[list] = []
        self.steps = 0

    def add_request(self, prompt_ids, max_new_tokens, request_id=None):
        if request_id in self.refuse:
            raise ValueError("queue full")
        self.queue.append([request_id, max_new_tokens, 0])
        return request_id

    def step(self):
        self.steps += 1
        self.clock.now += self.step_s
        if self.steps == self.fail_at_step:
            raise RuntimeError("boom")
        outputs = []
        for entry in self.queue[: self.batch]:
            entry[2] += 1
            done = entry[2] == entry[1]
            outputs.append(Out(entry[0], 100 + entry[2], done, "length" if done else None))
        self.queue = [e for e in self.queue if e[2] < e[1]]
        return outputs


def workload(streams: list[list[int]]) -> Workload:
    """Streams of token budgets; indices numbered in order of appearance."""
    index = 0
    built = []
    for client, budgets in enumerate(streams):
        requests = []
        for budget in budgets:
            requests.append(Request(client, index, (1, 2, 3), budget))
            index += 1
        built.append(tuple(requests))
    return Workload("stub", "inproc", tuple(built))


def test_ttft_and_gaps_follow_engine_steps():
    clock = Clock()
    result = run_closed_loop(StubEngine(clock, batch=1), workload([[3], [3]]), clock)
    first, second = result.records
    assert first.token_times == [1.0, 2.0, 3.0]
    assert first.ttft == 1.0 and first.gaps == [1.0, 1.0]
    # The second client joined one step later and queued behind the first.
    assert second.submitted == 1.0 and second.ttft == 3.0
    assert sum(len(r.gaps) for r in result.records) == 4
    assert [r.ok for r in result.records] == [True, True]
    assert len(result.steps) == 6 and result.wall_s == 6.0


def test_next_request_is_sent_when_the_previous_finishes():
    clock = Clock()
    result = run_closed_loop(StubEngine(clock, batch=2), workload([[2, 3], [4]]), clock)
    a, b, c = sorted(result.records, key=lambda r: r.request.index)
    assert b.submitted == a.token_times[-1] == 2.0
    assert b.token_times == [3.0, 4.0, 5.0]
    assert c.submitted == 1.0 and c.token_times == [2.0, 3.0, 4.0, 5.0]
    assert [len(r.tokens) for r in (a, b, c)] == [2, 3, 4]


def test_clients_join_one_per_step():
    clock = Clock()
    result = run_closed_loop(StubEngine(clock, batch=4), workload([[5]] * 4), clock)
    assert [r.submitted for r in result.records] == [0.0, 1.0, 2.0, 3.0]
    assert [r.ttft for r in result.records] == [1.0] * 4


def test_refused_submission_fails_only_that_request():
    clock = Clock()
    engine = StubEngine(clock, refuse=frozenset({"w00000"}))
    result = run_closed_loop(engine, workload([[2, 2]]), clock)
    refused, served = result.records
    assert refused.error and not refused.ok and refused.accepted == 0.0
    assert served.ok and served.submitted == 0.0


def test_step_exception_fails_in_flight_requests():
    clock = Clock()
    engine = StubEngine(clock, batch=2, fail_at_step=2)
    result = run_closed_loop(engine, workload([[3], [3]]), clock)
    assert all(r.error and "boom" in r.error for r in result.records)
    assert len(result.steps) == 2


def test_budget_shortfall_is_not_ok():
    clock = Clock()

    class Stopper(StubEngine):
        def step(self):
            return [
                Out(o.request_id, o.token, True, "stop") for o in super().step()
            ]

    result = run_closed_loop(Stopper(clock), workload([[3]]), clock)
    (record,) = result.records
    assert record.finish_reason == "stop" and not record.ok


def test_stalled_engine_ends_the_run():
    clock = Clock()

    class Idle(StubEngine):
        def step(self):
            self.clock.now += 1.0
            return []

    result = run_closed_loop(Idle(clock), workload([[2]]), clock)
    (record,) = result.records
    assert record.error and "stalled" in record.error


@pytest.mark.parametrize("batch", [1, 3])
def test_same_workload_same_schedule(batch):
    w = workload([[2, 5, 1], [4, 4], [3]])
    runs = []
    for _ in range(2):
        clock = Clock()
        result = run_closed_loop(StubEngine(clock, batch=batch), w, clock)
        runs.append([(r.request.index, r.submitted, r.token_times) for r in result.records])
    assert runs[0] == runs[1]
