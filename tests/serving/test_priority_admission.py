"""Priority-class admission, preemption ordering and SLO backpressure.

The starvation/ordering guarantees here are the contract the
``serving.slo_load`` benchmark and the gateway's 429 behavior build on, so
they are tested property-style where the input space matters (arbitrary
submission interleavings, arbitrary admission orders) and example-style
where a single scenario pins the rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import (
    BatchedMillionEngine,
    ContinuousBatchingScheduler,
    GenerationRequest,
    QueueFullError,
    RequestState,
    RequestStatus,
    SloCapacityError,
    SloPolicy,
)
from repro.serving.request import PRIORITIES
from support.reference import pooled


def _state(request_id: str, priority: str = "interactive") -> RequestState:
    return RequestState(
        request=GenerationRequest(
            prompt_ids=np.asarray([1, 2, 3]),
            max_new_tokens=4,
            request_id=request_id,
            priority=priority,
        )
    )


class TestPriorityAdmission:
    def test_interactive_admits_ahead_of_queued_best_effort(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=4)
        for rid, prio in [
            ("b0", "best_effort"),
            ("b1", "best_effort"),
            ("i0", "interactive"),
        ]:
            scheduler.submit(_state(rid, prio))
        admitted = [s.request_id for s in scheduler.admit()]
        assert admitted == ["i0", "b0", "b1"]

    def test_within_class_is_arrival_order(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=8)
        for i in range(4):
            scheduler.submit(_state(f"i{i}", "interactive"))
        assert [s.request_id for s in scheduler.admit()] == [
            "i0", "i1", "i2", "i3"
        ]

    def test_fifo_mode_ignores_priority(self):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=4, priority_aware=False
        )
        for rid, prio in [
            ("b0", "best_effort"),
            ("i0", "interactive"),
            ("b1", "best_effort"),
        ]:
            scheduler.submit(_state(rid, prio))
        assert [s.request_id for s in scheduler.admit()] == ["b0", "i0", "b1"]

    def test_refused_interactive_head_blocks_best_effort(self):
        """Head-of-line in class order: the gate refusing the interactive
        head must not let queued best-effort work claim its memory."""
        scheduler = ContinuousBatchingScheduler(max_batch_size=4)
        scheduler.submit(_state("i0", "interactive"))
        scheduler.submit(_state("b0", "best_effort"))
        refused = scheduler.admit_next(gate=lambda s: s.priority != "interactive")
        assert refused is None
        assert scheduler.queued_count == 2

    @settings(deadline=None, max_examples=60)
    @given(
        priorities=st.lists(st.sampled_from(PRIORITIES), min_size=1, max_size=20),
        admit_gaps=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    )
    def test_best_effort_never_admitted_past_queued_interactive(
        self, priorities, admit_gaps
    ):
        """Under any interleaving of submissions and single admissions, a
        best-effort request is never admitted while an interactive one is
        queued — the no-priority-inversion half of the starvation story."""
        scheduler = ContinuousBatchingScheduler(max_batch_size=1000)
        pending = [
            _state(f"r{i}", priority) for i, priority in enumerate(priorities)
        ]
        gaps = iter(admit_gaps)
        while pending or scheduler.queued_count:
            for _ in range(next(gaps, 1)):
                if pending:
                    scheduler.submit(pending.pop(0))
            state = scheduler.admit_next()
            if state is None:
                if pending:
                    continue
                break
            queued = scheduler.queued_count_by_class()
            for label in PRIORITIES:
                if PRIORITIES.index(label) < PRIORITIES.index(state.priority):
                    assert queued[label] == 0, (
                        f"admitted {state.priority} past queued {label}"
                    )


class TestPreemptionOrdering:
    def test_victims_lowest_class_then_youngest(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=8)
        for rid, prio in [
            ("i0", "interactive"),
            ("b0", "best_effort"),
            ("i1", "interactive"),
            ("b1", "best_effort"),
        ]:
            scheduler.submit(_state(rid, prio))
        scheduler.admit()
        victims = [s.request_id for s in scheduler.preemption_victims()]
        assert victims == ["b1", "b0", "i1", "i0"]

    def test_fifo_mode_victims_youngest_first(self):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=8, priority_aware=False
        )
        for rid in ["a", "b", "c"]:
            scheduler.submit(_state(rid))
        scheduler.admit()
        assert [s.request_id for s in scheduler.preemption_victims()] == [
            "c", "b", "a"
        ]

    @pytest.mark.parametrize("priority_aware", [True, False])
    def test_restored_victim_goes_after_never_preempted_ones(self, priority_aware):
        """A restored sequence is the youngest running one; it must not be
        the next victim while a never-preempted sequence of its class runs."""
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=8, priority_aware=priority_aware
        )
        for rid, prio in [
            ("i0", "interactive"),
            ("b0", "best_effort"),
            ("b1", "best_effort"),
            ("b2", "best_effort"),
        ]:
            scheduler.submit(_state(rid, prio))
        scheduler.admit()
        victim = next(scheduler.preemption_victims())
        assert victim.request_id == "b2"
        scheduler.preempt(victim)
        victim.preemptions += 1  # the engine counts each preemption
        assert scheduler.admit_next() is victim
        victims = [s.request_id for s in scheduler.preemption_victims()]
        if priority_aware:
            assert victims == ["b1", "b0", "b2", "i0"]
        else:
            assert victims == ["b1", "b0", "i0", "b2"]

    @settings(deadline=None, max_examples=60)
    @given(
        priorities=st.lists(st.sampled_from(PRIORITIES), min_size=1, max_size=12)
    )
    def test_first_victim_is_youngest_of_lowest_present_class(self, priorities):
        scheduler = ContinuousBatchingScheduler(max_batch_size=100)
        for i, priority in enumerate(priorities):
            scheduler.submit(_state(f"r{i}", priority))
        scheduler.admit()
        first = next(scheduler.preemption_victims())
        lowest = max(
            (s.priority for s in scheduler.running), key=PRIORITIES.index
        )
        in_lowest = [s for s in scheduler.running if s.priority == lowest]
        assert first is in_lowest[-1]  # running is admission-ordered

    def test_preempted_reenters_front_of_own_class(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=2)
        scheduler.submit(_state("b0", "best_effort"))
        scheduler.submit(_state("i0", "interactive"))
        scheduler.admit()
        scheduler.submit(_state("b1", "best_effort"))
        victim = next(scheduler.preemption_victims())
        assert victim.request_id == "b0"
        scheduler.preempt(victim)
        assert victim.status is RequestStatus.PREEMPTED
        # b0 must be restored before the newly arrived b1 ...
        queue = [s.request_id for s in scheduler._queues["best_effort"]]
        assert queue == ["b0", "b1"]
        # ... but never past queued interactive work.
        scheduler.submit(_state("i1", "interactive"))
        assert scheduler.admit_next().request_id == "i1"

    def test_preempt_bypasses_hard_cap_and_slo(self):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=2,
            max_queue_size=1,
            slo_policy=SloPolicy(interactive_slo_s=0.001),
        )
        scheduler.submit(_state("i0"))
        scheduler.admit()
        scheduler.submit(_state("q0"))  # fills the queue to the cap
        with pytest.raises(QueueFullError):
            scheduler.submit(_state("q1"))
        scheduler.preempt(scheduler.running[0])  # must not raise
        assert scheduler.queued_count == 2


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("repro.serving.scheduler.time.perf_counter", clock)
    return clock


class TestSloBackpressure:
    def _drain_rate(self, scheduler, clock, interval_s: float) -> None:
        """Establish an EWMA admission interval of ``interval_s``."""
        for i in range(3):
            scheduler.submit(_state(f"warm{i}"))
            scheduler.admit_next()
            clock.now += interval_s

    def test_cold_scheduler_never_rejects(self):
        scheduler = ContinuousBatchingScheduler(
            slo_policy=SloPolicy(interactive_slo_s=0.0001)
        )
        for i in range(50):
            scheduler.submit(_state(f"r{i}"))  # no admissions yet: all accepted
        assert scheduler.projected_queue_wait_s("interactive") == 0.0

    def test_rejects_past_slo_with_retry_hint(self, clock):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=3, slo_policy=SloPolicy(interactive_slo_s=2.0)
        )
        self._drain_rate(scheduler, clock, interval_s=1.0)
        for i in range(3):
            scheduler.submit(_state(f"q{i}"))  # projected 0/1/2 × 1.0s: accepted
        with pytest.raises(SloCapacityError) as info:
            scheduler.submit(_state("q3"))  # 3 queued ahead × 1.0s > 2.0s SLO
        error = info.value
        assert error.projected_wait_s == pytest.approx(3.0)
        assert error.retry_after_s == 1  # ceil(3.0 - 2.0)
        assert scheduler.slo_rejections["interactive"] == 1
        assert isinstance(error, QueueFullError)

    def test_class_without_slo_queues_instead_of_shedding(self, clock):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=3, slo_policy=SloPolicy(interactive_slo_s=2.0)
        )
        self._drain_rate(scheduler, clock, interval_s=1.0)
        for i in range(20):
            scheduler.submit(_state(f"b{i}", "best_effort"))  # must not raise
        assert scheduler.queued_count == 20

    def test_best_effort_backlog_does_not_reject_interactive(self, clock):
        """Lower-class queue depth must not count against an interactive
        submission's projected wait — it will be admitted past them."""
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=3, slo_policy=SloPolicy(interactive_slo_s=2.0)
        )
        self._drain_rate(scheduler, clock, interval_s=1.0)
        for i in range(20):
            scheduler.submit(_state(f"b{i}", "best_effort"))
        scheduler.submit(_state("i0"))  # projected 1 * 1.0s <= 2.0s SLO
        assert scheduler.queued_count == 21

    def test_hard_cap_still_raises_plain_queue_full(self, clock):
        scheduler = ContinuousBatchingScheduler(
            max_batch_size=1,
            max_queue_size=1,
            slo_policy=SloPolicy(interactive_slo_s=1000.0),
        )
        scheduler.submit(_state("r0"))
        scheduler.admit()
        scheduler.submit(_state("r1"))
        with pytest.raises(QueueFullError) as info:
            scheduler.submit(_state("r2"))
        assert not isinstance(info.value, SloCapacityError)


class TestEngineUnderPriorityChurn:
    @pytest.fixture()
    def engine_factory(self, tiny_model, million_factory):
        def build(num_blocks, priority_aware=True, max_batch_size=4):
            factory = pooled(tiny_model, million_factory, num_blocks=num_blocks)
            return BatchedMillionEngine(
                tiny_model,
                factory,
                max_batch_size=max_batch_size,
                priority_aware=priority_aware,
            )

        yield build
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def _submit_mixed(self, engine, calibration_tokens):
        ids = {}
        for i in range(6):
            priority = "best_effort" if i % 2 else "interactive"
            prompt = calibration_tokens[i * 8 : i * 8 + 12 + 4 * i]
            ids[engine.add_request(
                prompt, max_new_tokens=8, priority=priority, tenant=f"t{i % 2}"
            )] = prompt
        return ids

    def test_restore_preserves_token_identity_under_churn(
        self, engine_factory, calibration_tokens
    ):
        """Preempt/restore under a contended pool must not change a single
        token relative to an uncontended run of the same requests."""
        spacious = engine_factory(num_blocks=256)
        want = spacious.run()  # no work yet; just proves run() handles empty
        assert want == {}
        ids = self._submit_mixed(spacious, calibration_tokens)
        want = spacious.run()

        contended = engine_factory(num_blocks=24)
        ids2 = self._submit_mixed(contended, calibration_tokens)
        got = contended.run()

        assert contended.preemption_count > 0, (
            "pool sized too generously; churn never happened"
        )
        for (rid_a, prompt_a), (rid_b, prompt_b) in zip(
            sorted(ids.items()), sorted(ids2.items())
        ):
            np.testing.assert_array_equal(prompt_a, prompt_b)
            np.testing.assert_array_equal(want[rid_a], got[rid_b])

    def test_preemption_prefers_best_effort(self, engine_factory, calibration_tokens):
        engine = engine_factory(num_blocks=24)
        self._submit_mixed(engine, calibration_tokens)
        engine.run()
        stats = engine.priority_stats()
        assert engine.preemption_count > 0
        assert (
            stats["best_effort"]["preemptions"]
            >= stats["interactive"]["preemptions"]
        )

    def test_priority_stats_shape(self, engine_factory):
        engine = engine_factory(num_blocks=32)
        stats = engine.priority_stats()
        assert set(stats) == set(PRIORITIES)
        for label in PRIORITIES:
            assert set(stats[label]) == {
                "queued", "running", "preemptions", "slo_rejections"
            }
