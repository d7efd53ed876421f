"""One model traversal per engine step.

Every step advances its prompt chunks, residual tails, restore-replay rows
and decode rows through one :meth:`TransformerLM.forward_segments` call.
The tests record each traversal's segments by wrapping that method and
compare every sampled logits vector exactly, with no tolerance, against the
request served alone (:func:`support.reference.solo`) or the unbounded
schedule spelled out (:func:`support.reference.oracle_logits`).
"""

from __future__ import annotations

import pytest

from repro.core.million_cache import MillionCacheFactory
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.obs.prof import NULL_PROFILER
from repro.serving import BatchedMillionEngine
from support.reference import (
    BLOCK_TOKENS,
    assert_logits_equal,
    oracle_logits,
    pooled,
    served_logits,
    solo,
)


@pytest.fixture()
def traversals(tiny_model, monkeypatch):
    """Each ``forward_segments`` call's segments as ``(context, tokens, seal)``."""
    calls: list[list[tuple]] = []
    traverse = tiny_model.forward_segments

    def recording(segments, prof=NULL_PROFILER, **hooks):
        calls.append([(s.context, len(s.token_ids), s.seal) for s in segments])
        return traverse(segments, prof, **hooks)

    monkeypatch.setattr(tiny_model, "forward_segments", recording)
    yield calls
    monkeypatch.undo()
    tiny_model.reset_cache(FullPrecisionCacheFactory())


def _engine(model, factory, *, num_blocks=256, budget=None, max_batch_size=4):
    return BatchedMillionEngine(
        model, pooled(model, factory, num_blocks=num_blocks),
        max_batch_size=max_batch_size, prefill_token_budget=budget,
    )


def test_one_traversal_per_step_with_work(
    tiny_model, million_factory, calibration_tokens, traversals
):
    engine = _engine(tiny_model, million_factory, num_blocks=40, budget=8)
    for start, length in ((0, 41), (50, 9), (70, 23), (100, 14), (130, 30)):
        engine.add_request(calibration_tokens[start : start + length], 12)
    per_step = []
    while engine.scheduler.has_work:
        before = len(traversals)
        engine.step()
        per_step.append(len(traversals) - before)
    assert engine.preemption_count > 0  # restores ride the same traversal
    assert per_step == [1] * engine.step_count


def test_length_finished_request_computes_no_row_for_its_last_token(
    tiny_model, million_factory, calibration_tokens, traversals
):
    # Two-token tails (P = 10, 14 with 4-token blocks): every row is a decode row.
    prompts = [calibration_tokens[s : s + n] for s, n in ((0, 10), (20, 14))]
    engine = _engine(tiny_model, million_factory)
    ids = [engine.add_request(p, max_new_tokens=7) for p in prompts]
    engine.step()  # admits both; their contexts live until they finish
    contexts = {rid: engine.state_of(rid).context for rid in ids}
    engine.run()
    for rid in ids:
        rows = sum(
            1 for call in traversals for context, tokens, _ in call
            if context is contexts[rid] and tokens == 1
        )
        generated = engine.state_of(rid).generated_ids.size
        assert generated == 7
        assert rows == generated - 1


def test_budget_below_two_chunks_runs_two_chunks_in_one_traversal(
    tiny_model, million_factory, calibration_tokens, traversals, monkeypatch
):
    """Budget 10 with 4-token blocks gives 8-token chunks; the budget is
    checked before each chunk, so the first step runs 8 + 8 tokens."""
    prompt = calibration_tokens[:41]
    engine = _engine(tiny_model, million_factory, budget=10)
    (got,) = served_logits(engine, [prompt], 6)
    first = traversals[0]
    assert [(tokens, seal) for _, tokens, seal in first] == [(8, True), (8, True)]
    assert first[0][0] is first[1][0]  # one sequence, two chunks
    assert engine.prefill_chunks_total == 6  # five 8-token chunks, a 1-token tail
    monkeypatch.undo()
    want = solo(
        tiny_model, million_factory, [prompt], 6, budget=10, record_logits=True
    )[0]
    assert_logits_equal(want, got)


def test_one_chunk_prompt_runs_chunk_and_tail_in_one_traversal(
    tiny_model, million_factory, calibration_tokens, traversals, monkeypatch
):
    prompt = calibration_tokens[:22]  # A = 20: one chunk, then a 2-token tail
    engine = _engine(tiny_model, million_factory)
    (got,) = served_logits(engine, [prompt], 5)
    assert [(tokens, seal) for _, tokens, seal in traversals[0]] == [
        (20, True), (2, False),
    ]
    assert len(traversals) == 5  # the first token rides the prompt's traversal
    monkeypatch.undo()
    factory = pooled(tiny_model, million_factory)
    assert_logits_equal(oracle_logits(tiny_model, factory, prompt, 5, BLOCK_TOKENS), got)


def test_restore_tail_and_first_replay_row_share_a_traversal(
    tiny_model, million_factory, calibration_tokens, traversals, monkeypatch
):
    prompts = [
        calibration_tokens[s : s + 13 + s % 7] for s in (0, 15, 40, 70, 90, 110)
    ]
    engine = _engine(tiny_model, million_factory, num_blocks=32)
    got = served_logits(engine, prompts, 14)
    assert engine.preemption_count > 0
    shared = 0
    for call in traversals:
        for i, (context, tokens, seal) in enumerate(call):
            if seal or tokens == 1:
                continue
            # A tail followed, in the same traversal, by a row of its context.
            shared += any(c is context and n == 1 for c, n, _ in call[i + 1 :])
    assert shared > 0, "no restore ran its tail and first replay row together"
    monkeypatch.undo()
    want = solo(
        tiny_model, million_factory, prompts, 14, num_blocks=32,
        block_tokens=BLOCK_TOKENS, record_logits=True,
    )
    for want_logits, got_logits in zip(want, got):
        assert_logits_equal(want_logits, got_logits)


def test_one_token_sealed_chunk_stacks_with_other_rows(
    tiny_model, million_factory, million_config, calibration_tokens, traversals,
    monkeypatch,
):
    """With 1-token blocks a chunk can be one token: it is sealed among the
    stacked rows, and its sequence plans nothing more in that step.  A
    residual window makes the seal matter (without one, the next append
    flushes the same rows)."""
    factory = MillionCacheFactory(
        million_factory.quantizers, million_config.with_updates(recent_window=2)
    )
    prompts = [calibration_tokens[40:43], calibration_tokens[:6]]
    engine = BatchedMillionEngine(
        tiny_model, pooled(tiny_model, factory, block_tokens=1),
        max_batch_size=4, prefill_token_budget=4,
    )
    got = served_logits(engine, prompts, 6)
    # A sealed one-token chunk shares a traversal with another sequence's row.
    assert any(
        sum(1 for _, tokens, _ in call if tokens == 1) > 1
        and any(tokens == 1 and seal for _, tokens, seal in call)
        for call in traversals
    )
    for call in traversals:
        for i, (context, tokens, seal) in enumerate(call):
            if tokens == 1 and seal:
                assert all(c is not context for c, _, _ in call[i + 1 :])
    monkeypatch.undo()
    want = solo(
        tiny_model, factory, prompts, 6, block_tokens=1, budget=4, record_logits=True,
    )
    for want_logits, got_logits in zip(want, got):
        assert_logits_equal(want_logits, got_logits)
