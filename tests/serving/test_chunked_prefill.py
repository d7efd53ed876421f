"""Tests for chunked prefill: schedule shape, determinism, budget, cancel.

Every pooled prefill runs one chunk schedule.  Its output is deterministic
in ``(prompt, chunk_tokens)`` but differs between chunk sizes (every forced
flush changes the quantized/full-precision split deeper layers attend to).
The suite therefore compares a schedule against itself — cold vs cold, cold
vs prefix-adopted, uncontended vs preempted/restored, solo vs batched — and
checks the unbounded schedule against an explicit oracle: forward
``[0, A)``, flush, forward ``[A, P)``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.bootstrap import GatewayConfig, prefill_token_budget
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import (
    BatchedMillionEngine,
    FinishReason,
    RequestStatus,
    chunk_schedule,
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
def chunked_engine_factory(tiny_model, million_factory):
    """Builds a fresh chunked pooled engine (own pool) per call."""

    def build(num_blocks=256, max_batch_size=4, budget=8):
        factory = pooled(tiny_model, million_factory, num_blocks=num_blocks)
        return BatchedMillionEngine(
            tiny_model,
            factory,
            max_batch_size=max_batch_size,
            prefill_token_budget=budget,
        )

    yield build
    tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestChunkSchedule:
    def test_example_schedule(self):
        # P=100, B=16 -> A=96; C=32 -> chunks at 32, 64, then A, then P.
        assert chunk_schedule(100, 16, 32) == (32, 64, 96, 100)

    def test_prompt_within_first_block(self):
        # A=0: the whole prompt is the residual tail, one bound only.
        assert chunk_schedule(3, 4, 8) == (3,)
        assert chunk_schedule(1, 4, 4) == (1,)

    def test_aligned_prompt_keeps_last_block_as_tail(self):
        # P a multiple of B: A = P - B, so the tail is exactly one block.
        assert chunk_schedule(16, 4, 8) == (8, 12, 16)

    def test_chunk_tokens_must_be_aligned_multiple(self):
        with pytest.raises(Exception, match="chunk_tokens"):
            chunk_schedule(100, 16, 24)  # not a multiple of block_tokens
        with pytest.raises(Exception, match="chunk_tokens"):
            chunk_schedule(100, 16, 8)  # smaller than one block

    @settings(max_examples=200, deadline=None)
    @given(
        prompt=st.integers(min_value=1, max_value=512),
        block=st.integers(min_value=1, max_value=16),
        chunks_per=st.integers(min_value=1, max_value=8),
    )
    def test_any_chunking_yields_valid_aligned_schedule(
        self, prompt, block, chunks_per
    ):
        chunk = block * chunks_per
        bounds = chunk_schedule(prompt, block, chunk)
        aligned = block * ((prompt - 1) // block)
        # Strictly increasing, ends at the prompt length.
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] == prompt
        # Every bound below A is a multiple of the chunk size; A itself is
        # the penultimate bound whenever an aligned prefix exists.
        for bound in bounds[:-1]:
            assert bound == aligned or bound % chunk == 0
        if aligned > 0:
            assert bounds[-2] == aligned
        else:
            assert bounds == (prompt,)
        # The tail past A is the residual window: between 1 and B tokens.
        assert 1 <= prompt - aligned <= block


class TestChunkedConstruction:
    def test_budget_must_be_positive(self, chunked_engine_factory):
        with pytest.raises(Exception, match="budget"):
            chunked_engine_factory(budget=0)

    def test_default_budget_is_eight_blocks(
        self, tiny_model, million_factory
    ):
        """The engine default has no cap; the gateway's chunked mode derives
        eight blocks per step when no budget is given."""
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        assert engine.prefill_token_budget is None
        config = GatewayConfig(chunked_prefill=1, block_tokens=BLOCK_TOKENS)
        assert prefill_token_budget(config) == 8 * BLOCK_TOKENS
        assert prefill_token_budget(replace(config, prefill_token_budget=12)) == 12
        assert prefill_token_budget(replace(config, chunked_prefill=0)) is None
        tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestChunkedDeterminism:
    def test_cold_runs_are_identical(
        self, chunked_engine_factory, calibration_tokens
    ):
        prompt = calibration_tokens[:41]
        first = chunked_engine_factory().generate_batch([prompt], 8)[0]
        second = chunked_engine_factory().generate_batch([prompt], 8)[0]
        np.testing.assert_array_equal(first, second)

    def test_prefix_adoption_matches_cold(
        self, chunked_engine_factory, calibration_tokens
    ):
        """A warm request adopting chunk-published blocks decodes the same."""
        prompt = calibration_tokens[:41]
        cold = chunked_engine_factory().generate_batch([prompt], 8)[0]
        engine = chunked_engine_factory()
        first = engine.generate_batch([prompt], 8)[0]
        warm = engine.generate_batch([prompt], 8)[0]
        assert engine.prefill_tokens_reused > 0
        np.testing.assert_array_equal(cold, first)
        np.testing.assert_array_equal(cold, warm)

    def test_preempted_restore_matches_uncontended(
        self, chunked_engine_factory, calibration_tokens
    ):
        """Restore replays the same chunk schedule: tokens survive eviction."""
        prompts = [calibration_tokens[i : i + 60] for i in (0, 70, 140)]
        uncontended = chunked_engine_factory(num_blocks=256)
        reference = uncontended.generate_batch(prompts, max_new_tokens=12)
        assert uncontended.preemption_count == 0
        contended = chunked_engine_factory(num_blocks=48)
        outputs = contended.generate_batch(prompts, max_new_tokens=12)
        assert contended.preemption_count >= 1
        for want, got in zip(reference, outputs):
            np.testing.assert_array_equal(want, got)

    def test_restore_replays_one_token_per_step(
        self, chunked_engine_factory, tiny_model, million_factory,
        calibration_tokens,
    ):
        """A restore feeds its generated tokens back one per engine step
        while every other decoding stream keeps emitting one token per step."""
        prompts = [calibration_tokens[i : i + 60] for i in (0, 70, 140)]
        # 64 blocks preempt a decoding stream after 5 of its 16 tokens.
        engine = chunked_engine_factory(num_blocks=64)
        ids = [engine.add_request(p, max_new_tokens=16) for p in prompts]
        states = [engine.state_of(rid) for rid in ids]
        replayed = {}  # request id -> generated tokens when first preempted
        results = {rid: [] for rid in ids}
        while engine.scheduler.has_work:
            before = {
                s.request_id: (
                    s.preemptions,
                    s.context.next_position if s.context is not None else 0,
                    s.status is RequestStatus.RUNNING and not s.prefilling,
                )
                for s in states
            }
            outputs = engine.step()
            emitted = {rid: 0 for rid in ids}
            for out in outputs:
                if out.token is not None:
                    emitted[out.request_id] += 1
                    results[out.request_id].append(out.token)
            for s in states:
                preemptions, position, decoding = before[s.request_id]
                if s.preemptions > preemptions:
                    replayed.setdefault(s.request_id, len(s.generated))
                    continue
                if s.request_id in replayed and s.context is not None:
                    # Past its prompt, a restore advances one token per step.
                    prompt_size = s.request.prompt_ids.size
                    assert s.context.next_position <= max(prompt_size, position) + 1
                if decoding and not s.is_finished:
                    assert emitted[s.request_id] == 1
        assert any(n >= 2 for n in replayed.values())
        want = solo(tiny_model, million_factory, prompts, 16, num_blocks=64, budget=8)
        for rid, stream in zip(ids, want):
            assert results[rid] == stream.tolist()

    def test_batched_whale_matches_solo_chunked(
        self, chunked_engine_factory, calibration_tokens
    ):
        """Interleaving a whale with short streams never changes its tokens."""
        whale = calibration_tokens[:120]
        short = calibration_tokens[200:210]
        solo_whale = chunked_engine_factory().generate_batch([whale], 6)[0]
        solo_short = chunked_engine_factory().generate_batch([short], 6)[0]
        mixed = chunked_engine_factory(budget=8)
        short_id = mixed.add_request(short, max_new_tokens=6)
        whale_id = mixed.add_request(whale, max_new_tokens=6)
        results = mixed.run()
        np.testing.assert_array_equal(results[whale_id], solo_whale)
        np.testing.assert_array_equal(results[short_id], solo_short)


class TestBudgetInterleaving:
    def test_long_prompt_spans_steps_and_decode_continues(
        self, chunked_engine_factory, calibration_tokens
    ):
        """A whale prefills across steps while a short request keeps decoding."""
        engine = chunked_engine_factory(budget=4)
        short_id = engine.add_request(calibration_tokens[:6], max_new_tokens=16)
        engine.step()  # chunk 1 of the short prompt
        engine.step()  # tail: short finishes prefill and decodes its first token
        whale_id = engine.add_request(calibration_tokens[100:220], max_new_tokens=4)
        engine.step()
        whale = engine.state_of(whale_id)
        assert whale.prefilling  # 120-token prompt can't finish on budget 4
        assert engine.stats()["prefilling"] == 1
        assert whale.generated_ids.size == 0  # no decode while prefilling
        # The short request decoded this step despite the whale's chunk work.
        short_after_one = engine.state_of(short_id).generated_ids.size
        assert short_after_one >= 2
        steps_while_prefilling = 0
        while engine.state_of(whale_id).prefilling:
            engine.step()
            steps_while_prefilling += 1
        assert steps_while_prefilling > 5  # genuinely budget-limited
        assert engine.state_of(short_id).generated_ids.size > short_after_one
        engine.run()
        assert engine.state_of(whale_id).finish_reason is FinishReason.LENGTH

    def test_budget_counters_in_stats(
        self, chunked_engine_factory, calibration_tokens
    ):
        engine = chunked_engine_factory(budget=8)
        engine.add_request(calibration_tokens[:40], max_new_tokens=2)
        engine.step()
        timing = engine.stats()["step_timing"]
        assert timing["prefill_token_budget"] == 8
        assert timing["prefill_chunks_total"] >= 1
        assert timing["last_budget_utilization"] > 0.0
        engine.run()
        # The final step has no prefill work: utilization reads 0.
        assert engine.stats()["step_timing"]["last_budget_utilization"] == 0.0

    def test_minimum_chunk_overshoots_tiny_budget(
        self, chunked_engine_factory, calibration_tokens
    ):
        """Budget below one block still makes progress (utilization > 1)."""
        engine = chunked_engine_factory(budget=2)
        engine.add_request(calibration_tokens[:20], max_new_tokens=2)
        engine.step()
        assert engine.last_budget_utilization > 1.0
        results = engine.run()
        assert next(iter(results.values())).size == 2


class TestMidChunkCancel:
    def test_cancel_mid_prefill_releases_every_block(
        self, chunked_engine_factory, calibration_tokens
    ):
        engine = chunked_engine_factory(budget=4)
        request_id = engine.add_request(
            calibration_tokens[:120], max_new_tokens=4
        )
        engine.step()
        state = engine.state_of(request_id)
        assert state.prefilling  # paused mid-schedule
        pool = engine.pool
        tables = [list(cache.block_table) for cache in state.context.caches]
        held = {bid for table in tables for bid in table}
        assert held and all(pool.refcount(bid) >= 1 for bid in held)
        assert engine.cancel(request_id) is True
        assert not state.prefilling and state.context is None
        assert state.finish_reason is FinishReason.CANCELLED
        # Chunk-published blocks drop to refcount 0 (cached, evictable);
        # nothing stays pinned by the dead sequence.
        assert all(pool.refcount(bid) == 0 for bid in held)
        assert pool.available_block_count == pool.num_blocks
        assert not engine.scheduler.has_work

    def test_cancel_mid_prefill_leaves_others_running(
        self, chunked_engine_factory, calibration_tokens
    ):
        engine = chunked_engine_factory(budget=4)
        keeper = engine.add_request(calibration_tokens[:8], max_new_tokens=6)
        victim = engine.add_request(calibration_tokens[100:220], max_new_tokens=4)
        engine.step()
        assert engine.state_of(victim).prefilling
        engine.cancel(victim)
        results = engine.run()
        solo = chunked_engine_factory().generate_batch(
            [calibration_tokens[:8]], max_new_tokens=6
        )[0]
        np.testing.assert_array_equal(results[keeper], solo)
        assert results[victim].size == 0


class TestAdoptionIsExact:
    """No pooled request's logits depend on what the pool held before it."""

    def test_partial_prefix_hit_decodes_like_cold_run(
        self, chunked_engine_factory, calibration_tokens
    ):
        prefix = calibration_tokens[:24]
        published = np.concatenate([prefix, calibration_tokens[100:108]])
        prompt = np.concatenate([prefix, calibration_tokens[200:208]])
        (cold,) = served_logits(chunked_engine_factory(budget=None), [prompt], 16)
        engine = chunked_engine_factory(budget=None)
        engine.generate_batch([published], 2)
        (warm,) = served_logits(engine, [prompt], 16)
        assert_logits_equal(cold, warm)

    def test_natural_block_overlap_in_one_batch(
        self, chunked_engine_factory, calibration_tokens
    ):
        short, long = calibration_tokens[150:157], calibration_tokens[200:330]
        # The two prompts open with the same 4-token block.
        np.testing.assert_array_equal(short[:BLOCK_TOKENS], long[:BLOCK_TOKENS])
        (solo,) = served_logits(chunked_engine_factory(budget=None), [long], 16)
        _, batched = served_logits(
            chunked_engine_factory(budget=None), [short, long], 16
        )
        assert_logits_equal(solo, batched)

    def test_unbounded_schedule_matches_oracle_cold_and_restored(
        self, chunked_engine_factory, tiny_model, calibration_tokens
    ):
        prompts = [calibration_tokens[i : i + 20] for i in (0, 25, 50)]
        uncontended = chunked_engine_factory(budget=None)
        cold = served_logits(uncontended, prompts, 16)
        contended = chunked_engine_factory(num_blocks=30, budget=None)
        restored = served_logits(contended, prompts, 16)
        assert uncontended.preemption_count == 0
        assert contended.preemption_count >= 1
        for prompt, got_cold, got_restored in zip(prompts, cold, restored):
            want = oracle_logits(
                tiny_model, uncontended.factory, prompt, 16, BLOCK_TOKENS
            )
            assert_logits_equal(want, got_cold)
            assert_logits_equal(want, got_restored)

    @pytest.mark.parametrize("budget", [None, 32])
    def test_same_step_shared_prompt_is_computed_once(
        self, chunked_engine_factory, calibration_tokens, budget
    ):
        prompt = calibration_tokens[:81]  # A = 80: a 20-block chain
        engine = chunked_engine_factory(budget=budget)
        outputs = engine.generate_batch([prompt] * 4, max_new_tokens=4)
        assert engine.prefill_tokens_computed == 81 + 3 * 1
        assert engine.prefill_tokens_reused == 3 * 80
        # Late adoption moves misses to hits: each request still counts its
        # whole chain once.
        assert engine.prefix_block_hits == 3 * 20
        assert engine.prefix_block_hits + engine.prefix_block_misses == 4 * 20
        for other in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], other)


class TestPrefixHitBlocks:
    def test_counts_only_adoptable_blocks(
        self, chunked_engine_factory, calibration_tokens
    ):
        prefix = calibration_tokens[:24]
        published = np.concatenate([prefix, calibration_tokens[100:108]])
        prompt = np.concatenate([prefix, calibration_tokens[200:208]])
        for budget, adoptable in ((None, 0), (8, 6)):
            engine = chunked_engine_factory(budget=budget)
            engine.generate_batch([published], 2)
            # Six published blocks match, but the unbounded schedule only
            # resumes at A = 28, so none of them is adoptable there.
            assert engine.pool.longest_token_prefix(prompt) == 6
            assert engine.prefix_hit_blocks(prompt) == adoptable
            assert engine.prefix_hit_blocks(published) == 7  # full hit at A
