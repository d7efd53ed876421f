"""Cancellation edge cases: listener markers, prefill-time cancels, refcounts.

Complements the basic cancel paths in ``test_block_pool.py`` with the edges
the async gateway leans on: the CANCELLED finish marker emitted through the
incremental output hook, cancels that land before a request was ever
admitted (no pool state may be created or leaked), cancels right after
prefill, and cancel of a preempted sequence awaiting restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import BatchedMillionEngine, FinishReason, RequestStatus
from support.reference import pooled


@pytest.fixture()
def pooled_engine_factory(tiny_model, million_factory):
    def build(num_blocks=256, max_batch_size=4):
        factory = pooled(tiny_model, million_factory, num_blocks=num_blocks)
        return BatchedMillionEngine(tiny_model, factory, max_batch_size=max_batch_size)

    yield build
    tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestOutputListener:
    def test_tokens_and_finish_stream_through_listener(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """The subscription hook sees every token as it is decoded, in order."""
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        seen = []
        engine.add_output_listener(seen.append)
        request_id = engine.add_request(calibration_tokens[:10], max_new_tokens=4)
        results = engine.run()
        tokens = [o.token for o in seen if o.token is not None]
        assert tokens == results[request_id].tolist()
        assert seen[-1].finished and seen[-1].finish_reason is FinishReason.LENGTH
        engine.remove_output_listener(seen.append)
        tiny_model.reset_cache(FullPrecisionCacheFactory())

    def test_cancel_emits_cancelled_marker(
        self, tiny_model, million_factory, calibration_tokens
    ):
        """cancel() happens outside step(); subscribers still get a finish."""
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        seen = []
        engine.add_output_listener(seen.append)
        request_id = engine.add_request(calibration_tokens[:10], max_new_tokens=50)
        engine.step()
        engine.cancel(request_id)
        final = seen[-1]
        assert final.request_id == request_id
        assert final.finished and final.token is None
        assert final.finish_reason is FinishReason.CANCELLED
        tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestCancelBeforeAdmission:
    def test_queued_request_never_touches_the_pool(
        self, pooled_engine_factory, calibration_tokens
    ):
        """A never-admitted request must leave zero trace in the block pool."""
        # Pool sized so the 40-token request is refused by the admission
        # gate (memoizing its prefill plan) while a batch slot stays free.
        engine = pooled_engine_factory(num_blocks=20, max_batch_size=2)
        first = engine.add_request(calibration_tokens[:10], max_new_tokens=4)
        second = engine.add_request(calibration_tokens[20:60], max_new_tokens=4)
        engine.step()  # first admitted; the admission gate probed second's plan
        pool = engine.pool
        used_before = pool.used_block_count
        allocations_before = pool.allocations
        assert engine.state_of(second).prefill_plan is not None  # gate memoized it
        assert engine.cancel(second) is True
        state = engine.state_of(second)
        assert state.status is RequestStatus.FINISHED
        assert state.prefill_plan is None and state.block_hashes == []
        assert pool.used_block_count == used_before
        assert pool.allocations == allocations_before
        results = engine.run()
        assert results[second].size == 0 and results[first].shape == (4,)

    def test_cancel_preempted_request_frees_cleanly(
        self, pooled_engine_factory, calibration_tokens
    ):
        """Preempted sequences hold no blocks; cancelling one must not double-free."""
        engine = pooled_engine_factory(num_blocks=26, max_batch_size=2)
        first = engine.add_request(calibration_tokens[:20], max_new_tokens=16)
        second = engine.add_request(calibration_tokens[25:45], max_new_tokens=16)
        preempted_id = None
        for _ in range(200):
            engine.step()
            if engine.state_of(second).status is RequestStatus.PREEMPTED:
                preempted_id = second
                break
            if engine.state_of(first).status is RequestStatus.PREEMPTED:
                preempted_id = first
                break
        assert preempted_id is not None, "expected memory pressure to preempt"
        assert engine.cancel(preempted_id) is True
        survivor = first if preempted_id == second else second
        results = engine.run()
        assert results[survivor].shape == (16,)
        assert results[preempted_id].size > 0  # tokens generated before eviction
        # Every block is reclaimable afterwards: nothing leaked, nothing
        # double-freed along preempt -> cancel -> drain.
        assert engine.pool.available_block_count == engine.pool.num_blocks


class TestCancelAfterPrefill:
    def test_cancel_right_after_prefill_keeps_published_prefix(
        self, pooled_engine_factory, calibration_tokens
    ):
        """Cancel during a request's first step: its private blocks return to
        the pool but the published prefix stays cached for the next request."""
        engine = pooled_engine_factory()
        prompt = calibration_tokens[:21]
        request_id = engine.add_request(prompt, max_new_tokens=50)
        engine.step()  # prefill + first decode only
        pool = engine.pool
        assert engine.cancel(request_id) is True
        # All references dropped...
        assert all(pool.refcount(b) == 0 for b in range(pool.num_blocks))
        # ...but the prefix groups survive as cached, adoptable state.
        cached_before = pool.cached_group_count
        assert cached_before > 0
        adoptions_before = pool.adoptions
        # An identical request adopts the cancelled request's published work.
        retry = engine.add_request(prompt, max_new_tokens=4, request_id="retry")
        results = engine.run()
        assert pool.adoptions > adoptions_before
        assert engine.prefill_tokens_reused > 0
        # Shared-vs-cold bit-identity: the retry matches a cold pooled run.
        reference_engine = pooled_engine_factory()
        reference_id = reference_engine.add_request(prompt, max_new_tokens=4)
        np.testing.assert_array_equal(
            results[retry], reference_engine.run()[reference_id]
        )
