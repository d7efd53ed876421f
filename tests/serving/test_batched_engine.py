"""Tests for the continuous-batching serving layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import GreedySampler
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.quant.policy import QuantPolicy
from repro.serving import (
    BatchedMillionEngine,
    ContinuousBatchingScheduler,
    FinishReason,
    GenerationRequest,
    RequestState,
    RequestStatus,
)
from support.reference import (
    BLOCK_TOKENS,
    assert_logits_equal,
    oracle_logits,
    pooled,
    served_logits,
    solo,
)


@pytest.fixture()
def prompts(calibration_tokens):
    return [calibration_tokens[start : start + 12 + i] for i, start in enumerate(range(0, 100, 20))]


def _engine(model, factory, **kwargs) -> BatchedMillionEngine:
    """An engine over ``factory`` wrapped in a fresh block pool."""
    return BatchedMillionEngine(model, pooled(model, factory), **kwargs)


def _state(request_id: str) -> RequestState:
    return RequestState(
        request=GenerationRequest(
            prompt_ids=np.asarray([1, 2, 3]), max_new_tokens=4, request_id=request_id
        )
    )


class TestContinuousBatchingScheduler:
    def test_fcfs_admission_respects_batch_cap(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=2)
        states = [_state(f"r{i}") for i in range(5)]
        for state in states:
            scheduler.submit(state)
        admitted = scheduler.admit()
        assert [s.request_id for s in admitted] == ["r0", "r1"]
        assert scheduler.running_count == 2 and scheduler.queued_count == 3
        assert scheduler.admit() == []  # batch full, nothing more admitted

    def test_release_frees_slot_for_next_request(self):
        scheduler = ContinuousBatchingScheduler(max_batch_size=1)
        first, second = _state("a"), _state("b")
        scheduler.submit(first)
        scheduler.submit(second)
        scheduler.admit()
        scheduler.release(first)
        assert first.status is RequestStatus.FINISHED
        assert [s.request_id for s in scheduler.admit()] == ["b"]
        assert scheduler.finished_count == 1
        assert scheduler.has_work

    def test_duplicate_and_foreign_states_rejected(self):
        scheduler = ContinuousBatchingScheduler()
        state = _state("a")
        scheduler.submit(state)
        with pytest.raises(Exception):
            scheduler.submit(_state("a"))
        with pytest.raises(Exception):
            scheduler.release(_state("b"))

    def test_has_work_drains(self):
        scheduler = ContinuousBatchingScheduler()
        state = _state("a")
        scheduler.submit(state)
        scheduler.admit()
        scheduler.release(state)
        assert not scheduler.has_work


class TestBatchedMillionEngine:
    def test_unpooled_factory_refused(self, tiny_model, million_factory):
        with pytest.raises(ValueError, match="PooledPolicyCacheFactory"):
            BatchedMillionEngine(tiny_model, million_factory)

    def test_unpoolable_tier_policy_refused(self, tiny_model, tiny_config, million_factory):
        fp16 = QuantPolicy.uniform(tiny_config, "fp16", 16)
        with pytest.raises(ValueError, match="all-MILLION") as refused:
            pooled(tiny_model, million_factory, tiers={"quality": fp16})
        assert "'quality'" in str(refused.value)

    def test_batched_tokens_identical_to_sequential_greedy(
        self, tiny_model, million_factory, prompts
    ):
        """Every sampled logits row (hence every greedy token) equals the
        chunk-schedule oracle run on the bare model, one prompt at a time."""
        engine = _engine(tiny_model, million_factory, max_batch_size=2)
        served = served_logits(engine, prompts, 10)
        for prompt, got in zip(prompts, served):
            want = oracle_logits(
                tiny_model, pooled(tiny_model, million_factory), prompt, 10, BLOCK_TOKENS
            )
            assert_logits_equal(want, got)
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_interleaving_does_not_leak_state_across_sequences(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """The same prompt must produce the same output regardless of batch mix."""
        prompt = calibration_tokens[:16]
        alone = _engine(tiny_model, million_factory).generate_batch(
            [prompt], max_new_tokens=8
        )[0]
        mixed_engine = _engine(tiny_model, million_factory, max_batch_size=4)
        mixed = mixed_engine.generate_batch(
            [calibration_tokens[40:80], prompt, calibration_tokens[5:45]],
            max_new_tokens=8,
        )
        np.testing.assert_array_equal(alone, mixed[1])
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_model_live_context_untouched_by_serving(
        self, tiny_model, million_factory, calibration_tokens
    ):
        tiny_model.reset_cache(million_factory)
        tiny_model.prefill(calibration_tokens[:20])
        caches_before = tiny_model.caches
        position_before = tiny_model.context_length
        engine = _engine(tiny_model, million_factory)
        engine.generate_batch([calibration_tokens[30:50]], max_new_tokens=5)
        assert tiny_model.caches is caches_before
        assert tiny_model.context_length == position_before
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_step_streaming_and_finish_reasons(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory, max_batch_size=2)
        first = engine.add_request(calibration_tokens[:8], max_new_tokens=3)
        second = engine.add_request(calibration_tokens[8:16], max_new_tokens=6)
        seen_tokens: dict[str, list[int]] = {first: [], second: []}
        steps = 0
        while engine.scheduler.has_work:
            for output in engine.step():
                if output.token is not None:
                    seen_tokens[output.request_id].append(output.token)
            steps += 1
            assert steps < 20
        assert len(seen_tokens[first]) == 3
        assert len(seen_tokens[second]) == 6
        assert engine.state_of(first).finish_reason is FinishReason.LENGTH
        np.testing.assert_array_equal(
            engine.state_of(first).generated_ids, np.asarray(seen_tokens[first])
        )
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_stop_token_finishes_early(self, tiny_model, million_factory, calibration_tokens):
        (reference,) = solo(tiny_model, million_factory, [calibration_tokens[:16]], 12)
        stop = int(reference[2])
        engine = _engine(tiny_model, million_factory)
        request_id = engine.add_request(
            calibration_tokens[:16], max_new_tokens=12, stop_token=stop
        )
        results = engine.run()
        state = engine.state_of(request_id)
        assert state.finish_reason is FinishReason.STOP_TOKEN
        assert results[request_id][-1] == stop
        # Generation must stop at the FIRST occurrence of the stop token.
        first_occurrence = int(np.flatnonzero(reference == stop)[0])
        assert len(results[request_id]) == first_occurrence + 1
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_invalid_requests_rejected_at_submission(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """Malformed requests fail with clear ValueErrors, not deep in prefill."""
        engine = _engine(tiny_model, million_factory)
        with pytest.raises(ValueError, match="max_new_tokens"):
            engine.add_request(calibration_tokens[:8], max_new_tokens=0)
        with pytest.raises(ValueError, match="empty prompt"):
            engine.add_request(np.asarray([], dtype=np.int64), max_new_tokens=4)
        with pytest.raises(ValueError, match="request_id"):
            engine.add_request(calibration_tokens[:8], max_new_tokens=4, request_id="")
        kept = engine.add_request(
            calibration_tokens[:8], max_new_tokens=2, request_id="dup"
        )
        with pytest.raises(ValueError, match="duplicate request id"):
            engine.add_request(calibration_tokens[:8], max_new_tokens=2, request_id="dup")
        # Rejections leave no trace: the one valid request still completes.
        results = engine.run()
        assert set(results) == {kept} and results[kept].shape == (2,)
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_queue_backpressure(self, tiny_model, million_factory, calibration_tokens):
        from repro.serving import QueueFullError

        engine = _engine(
            tiny_model, million_factory, max_batch_size=1, max_queue_size=2
        )
        first = engine.add_request(calibration_tokens[:8], max_new_tokens=2)
        second = engine.add_request(calibration_tokens[8:16], max_new_tokens=2)
        with pytest.raises(QueueFullError):
            engine.add_request(calibration_tokens[16:24], max_new_tokens=2)
        # The refused request left no state behind; its id was never taken.
        with pytest.raises(Exception):
            engine.state_of("req-0002")
        results = engine.run()
        assert set(results) == {first, second}
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_context_full_finish(self, tiny_model, million_factory, calibration_tokens):
        max_seq_len = tiny_model.config.max_seq_len
        prompt = np.resize(calibration_tokens, max_seq_len - 2)
        engine = _engine(tiny_model, million_factory)
        request_id = engine.add_request(prompt, max_new_tokens=50)
        results = engine.run()
        state = engine.state_of(request_id)
        assert state.finish_reason is FinishReason.CONTEXT_FULL
        assert results[request_id].size < 50
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_more_requests_than_slots_all_complete(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory, max_batch_size=2)
        prompts = [calibration_tokens[i : i + 10] for i in range(0, 70, 10)]
        results = engine.generate_batch(prompts, max_new_tokens=4)
        assert len(results) == 7
        assert all(r.shape == (4,) for r in results)
        assert engine.finished_count == 7 and engine.running_count == 0
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_auto_ids_skip_user_supplied_ids(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory)
        engine.add_request(calibration_tokens[:8], 2, request_id="req-0001")
        auto_ids = {engine.add_request(calibration_tokens[:8], 2) for _ in range(3)}
        assert "req-0001" not in auto_ids and len(auto_ids) == 3
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_finished_requests_release_their_caches(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """Serving a stream must not accumulate per-request KV caches."""
        engine = _engine(tiny_model, million_factory)
        request_id = engine.add_request(calibration_tokens[:10], 3)
        engine.run()
        state = engine.state_of(request_id)
        assert state.context is None
        assert state.generated_ids.shape == (3,)  # results are kept

    def test_run_returns_each_result_exactly_once(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory)
        first = engine.add_request(calibration_tokens[:10], 2)
        assert set(engine.run()) == {first}
        second = engine.add_request(calibration_tokens[10:20], 2)
        assert set(engine.run()) == {second}  # first is not re-returned
        assert engine.run() == {}
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_oversized_prompt_rejected_at_submit(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """A bad prompt must not poison the batch; it is rejected up front."""
        engine = _engine(tiny_model, million_factory)
        good = engine.add_request(calibration_tokens[:10], 2)
        too_long = np.resize(calibration_tokens, tiny_model.config.max_seq_len + 1)
        with pytest.raises(Exception, match="max_seq_len"):
            engine.add_request(too_long, 2)
        results = engine.run()  # the valid request still completes
        assert results[good].shape == (2,)
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_generate_batch_preserves_foreign_results(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory)
        loose = engine.add_request(calibration_tokens[:10], 2)
        batch = engine.generate_batch([calibration_tokens[10:20]], max_new_tokens=3)
        assert batch[0].shape == (3,)
        later = engine.run()  # the earlier request is still claimable
        assert set(later) == {loose} and later[loose].shape == (2,)
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_evict_finished_bounds_history(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory)
        request_id = engine.add_request(calibration_tokens[:10], 2)
        engine.run()
        assert engine.finished_count == 1
        assert engine.evict_finished() == 1
        assert engine.finished_count == 0
        with pytest.raises(Exception):
            engine.state_of(request_id)
        # The freed id space is reusable.
        engine.add_request(calibration_tokens[:10], 1, request_id=request_id)
        engine.run()
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_explicit_sampler_and_memory_accounting(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_model, million_factory, max_batch_size=2)
        engine.add_request(
            calibration_tokens[:10], max_new_tokens=64, sampler=GreedySampler()
        )
        engine.add_request(calibration_tokens[10:20], max_new_tokens=64)
        engine.step()
        assert engine.running_count == 2
        assert engine.active_cache_memory_bytes() > 0.0
        engine.run()
        assert engine.active_cache_memory_bytes() == 0.0
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_unclaimed_results_bounded_with_warning(
        self, tiny_model, million_factory, calibration_tokens, caplog
    ):
        """A client that never calls run() must not leak one array per request."""
        engine = _engine(tiny_model, million_factory, max_unclaimed_results=2)
        ids = [
            engine.add_request(calibration_tokens[i : i + 8], 1) for i in (0, 10, 20)
        ]
        with caplog.at_level("WARNING", logger="repro.serving"):
            while engine.scheduler.has_work:
                engine.step()
        assert any("unclaimed result" in r.message for r in caplog.records)
        results = engine.run()
        assert ids[0] not in results  # the oldest was dropped at the cap
        assert set(results) == set(ids[1:])
        tiny_model.reset_cache(FullPrecisionCacheFactory())
