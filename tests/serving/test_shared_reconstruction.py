"""Shared-prefix reconstruction: sequences that adopted the same pool blocks
reconstruct those rows once per layer of a traversal.

Within one layer of one engine traversal, every leading run of pool blocks
that several sequences hold is reconstructed once and reused by each holder
(:func:`repro.serving.memory.shared_prefix_runs`).  Its rows are bit-equal
to gathering them again, so every logits vector must equal the solo
oracle exactly, whatever mix of sharers, unshared sequences, prompt tails,
restores and tiers runs beside it.  The pool's ``reconstructed_rows``
counter counts the work exactly.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.core.million_cache import MillionKVCacheLayer, ReconstructedRun
from repro.core.pq import ProductQuantizer
from repro.models.transformer import no_sharing
from repro.quant.policy import QuantPolicy
from repro.quant.policy_cache import HeadGroupKVCache
from repro.serving import BatchedMillionEngine
from repro.serving.memory import (
    PooledMillionKVCacheLayer,
    pooled_units,
    shared_prefix_runs,
)
from support.reference import (
    BLOCK_TOKENS,
    RecordingSampler,
    assert_logits_equal,
    pooled,
    solo,
)

#: Prefill budget of every engine here: 16-block chunks, so documents of a
#: chunk multiple end on a chunk boundary and are adoptable.
BUDGET = 64
#: Blocks of the prefix whose exact work is counted.
DOC_BLOCKS = 64


def _tokens(seed, n, vocab):
    return np.random.default_rng(seed).integers(0, vocab, n).astype(np.int64)


def _engine(model, factory, *, max_batch_size=4, **pool_kwargs):
    return BatchedMillionEngine(
        model, pooled(model, factory, **pool_kwargs),
        max_batch_size=max_batch_size, prefill_token_budget=BUDGET,
    )


def _serve(engine, arrivals, n_tokens, *, at_step=None):
    """Submit ``(step, prompt, tier)`` arrivals at their steps and drain.

    Returns each request's sampled logits, in arrival order.  ``at_step``
    is called with ``(step, request_ids)`` before each step.
    """
    samplers = [RecordingSampler() for _ in arrivals]
    rids = [None] * len(arrivals)
    step = 0
    while None in rids or engine.scheduler.has_work:
        for i, (when, prompt, tier) in enumerate(arrivals):
            if when == step:
                rids[i] = engine.add_request(
                    prompt, max_new_tokens=n_tokens, sampler=samplers[i], tier=tier
                )
        if at_step is not None:
            at_step(step, rids)
        engine.step()
        step += 1
    engine.pool.check_invariants()
    return [sampler.logits for sampler in samplers]


@pytest.fixture()
def sharing(monkeypatch):
    """Every sharing call the engine makes, checked and recorded.

    Each call records its pooled caches that hold a run, as ``(cache,
    run)`` pairs, and checks that each holder's ``dequantized_kv()`` equals
    its reconstruction with the zero-length run.
    """
    calls: list[list[tuple]] = []

    @contextmanager
    def checking(caches, appends):
        with shared_prefix_runs(caches, appends):
            units = {id(cache): cache for cache in pooled_units(caches)}
            held = [
                (cache, cache.shared_run)
                for cache in units.values()
                if cache.shared_run.tokens
            ]
            calls.append(held)
            for cache, run in held:
                shared = cache.dequantized_kv()
                shared = [np.array(side) for side in shared]
                cache.shared_run = ReconstructedRun(run.keys[:0], run.values[:0], 0)
                unshared = cache.dequantized_kv()
                cache.shared_run = run
                for a, b in zip(shared, unshared):
                    np.testing.assert_array_equal(a, b)
            yield

    monkeypatch.setattr(engine_module, "shared_prefix_runs", checking)
    return calls


def _sharers(model, factory, count=4):
    """An engine whose ``count`` running sequences decode over one adopted
    ``DOC_BLOCKS``-block document, their states, and the document."""
    vocab = model.config.vocab_size
    engine = _engine(model, factory)
    doc = _tokens(0, DOC_BLOCKS * BLOCK_TOKENS, vocab)
    engine.add_request(np.concatenate([doc, _tokens(1, 3, vocab)]), 1)
    engine.run()
    states = [
        engine.state_of(
            engine.add_request(np.concatenate([doc, _tokens(10 + i, 5 + i, vocab)]), 8)
        )
        for i in range(count)
    ]
    while not all(state.generated and not state.prefilling for state in states):
        engine.step()
    assert engine.prefill_tokens_reused == count * doc.size
    return engine, states, doc


@contextmanager
def _adoption_reads(monkeypatch, pool):
    """Counts, while open, the pool's batched and per-block code reads and
    the flat indices computed inside block adoption."""
    counts = {"gather": 0, "block_reads": 0, "flat_index": 0}
    adopting = [False]

    def counting(name, method, only_adopting=False):
        def counted(*args, **kwargs):
            if adopting[0] or not only_adopting:
                counts[name] += 1
            return method(*args, **kwargs)
        return counted

    adopt = PooledMillionKVCacheLayer.adopt_shared_blocks

    def adopt_counted(cache, block_ids):
        adopting[0] = True
        try:
            adopt(cache, block_ids)
        finally:
            adopting[0] = False

    with monkeypatch.context() as patch:
        for name in ("gather_key_codes", "gather_value_codes"):
            patch.setattr(pool, name, counting("gather", getattr(pool, name)))
        for name in ("key_codes", "value_codes"):
            patch.setattr(pool, name, counting("block_reads", getattr(pool, name)))
        patch.setattr(
            ProductQuantizer, "flat_index",
            counting("flat_index", ProductQuantizer.flat_index, only_adopting=True),
        )
        patch.setattr(PooledMillionKVCacheLayer, "adopt_shared_blocks", adopt_counted)
        yield counts


def _distinct_runs(held):
    return {id(run) for _, run in held}


class TestExactWork:
    def test_one_decode_step_gathers_the_shared_run_once_per_layer_per_side(
        self, tiny_model, million_factory
    ):
        """4 sharers of a 64-block prefix, one decode step: per layer and
        side the prefix is gathered once and reused 4 times; each sharer
        gathers only its own rows."""
        engine, states, _ = _sharers(tiny_model, million_factory)
        before = dict(engine.pool.reconstructed_rows)
        engine.step()
        assert all(len(state.generated) == 2 for state in states)
        run = DOC_BLOCKS * BLOCK_TOKENS
        gathered = shared = 0
        for layer in range(tiny_model.config.n_layers):
            stored = [engine._pooled_caches(state)[layer].stored_tokens for state in states]
            assert min(stored) > run
            gathered += 2 * (run + sum(s - run for s in stored))
            shared += 2 * len(states) * run
        after = engine.pool.reconstructed_rows
        assert after["gathered"] - before["gathered"] == gathered
        assert after["shared"] - before["shared"] == shared
        assert engine.stats()["pool"]["reconstructed_rows"] == after

    def test_admission_step_takes_the_adopted_prefix_from_the_run(
        self, tiny_model, million_factory, monkeypatch
    ):
        """3 sharers decode while a 4th request adopts their document and
        runs its aligned chunk and its tail in the same traversal: per layer
        and side the document is gathered once, the chunk and the tail take
        it from the run like the decode rows, and adoption reads the pool
        once per side per layer."""
        engine, states, doc = _sharers(tiny_model, million_factory, count=3)
        vocab = tiny_model.config.vocab_size
        n_layers = tiny_model.config.n_layers
        # 11 question tokens: an 8-token sealed chunk, then a 3-token tail.
        prompt = np.concatenate([doc, _tokens(50, 11, vocab)])
        before = dict(engine.pool.reconstructed_rows)
        with _adoption_reads(monkeypatch, engine.pool) as reads:
            admitted = engine.state_of(engine.add_request(prompt, 4))
            engine.step()
        assert admitted.generated and all(len(state.generated) >= 2 for state in states)
        index_shadow = engine._pooled_caches(admitted)[0]._key_rows is not None
        assert reads == {
            "gather": 2 * n_layers,
            "block_reads": 0,
            "flat_index": 2 * n_layers if index_shadow else 0,
        }
        run = doc.size
        gathered = shared = 0
        for layer in range(n_layers):
            own = engine._pooled_caches(admitted)[layer].stored_tokens
            assert own == run + 8
            # The decode rows, then the chunk (over the adopted document)
            # and the tail (after the chunk's seal).
            attends = [
                *(engine._pooled_caches(state)[layer].stored_tokens for state in states),
                run,
                own,
            ]
            gathered += 2 * (run + sum(rows - run for rows in attends))
            shared += 2 * run * len(attends)
        after = engine.pool.reconstructed_rows
        assert after["gathered"] - before["gathered"] == gathered
        assert after["shared"] - before["shared"] == shared

    def test_lone_admission_shares_nothing(self, tiny_model, million_factory):
        """A request adopting a document no running sequence holds gathers
        every row, and its logits are the solo oracle's."""
        vocab = tiny_model.config.vocab_size
        engine = _engine(tiny_model, million_factory)
        doc = _tokens(0, DOC_BLOCKS * BLOCK_TOKENS, vocab)
        engine.add_request(np.concatenate([doc, _tokens(1, 3, vocab)]), 1)
        engine.run()
        prompt = np.concatenate([doc, _tokens(51, 11, vocab)])
        sampler = RecordingSampler()
        engine.add_request(prompt, 6, sampler=sampler)
        engine.run()
        assert engine.prefill_tokens_reused == doc.size
        assert engine.pool.reconstructed_rows["shared"] == 0
        (want,) = solo(tiny_model, million_factory, [prompt], 6, budget=BUDGET,
                       record_logits=True)
        assert_logits_equal(want, sampler.logits)

    def test_unshared_batch_gathers_every_row(self, tiny_model, million_factory):
        """Sequences with no common block gather every row: nothing is shared."""
        vocab = tiny_model.config.vocab_size
        engine = _engine(tiny_model, million_factory)
        for seed in range(3):
            engine.add_request(_tokens(seed, 40 + seed, vocab), 6)
        engine.run()
        counts = engine.pool.reconstructed_rows
        assert counts["shared"] == 0 and counts["gathered"] > 0


class TestIdentity:
    def test_two_shared_prefixes_and_an_unshared_sequence(
        self, tiny_model, million_factory, sharing
    ):
        """Two groups adopt two documents and a fifth sequence shares
        nothing; the layers hold two runs at once, and every logits vector
        is the solo oracle's."""
        vocab = tiny_model.config.vocab_size
        docs = [_tokens(100 + d, BUDGET, vocab) for d in range(2)]
        prompts = [
            np.concatenate([docs[i % 2], _tokens(200 + i, 3 + i, vocab)]) for i in range(4)
        ]
        prompts.append(_tokens(300, 29, vocab))
        engine = _engine(tiny_model, million_factory, max_batch_size=5)
        got = _serve(engine, [(0, p, None) for p in prompts], 10)
        want = solo(tiny_model, million_factory, prompts, 10, budget=BUDGET,
                    record_logits=True)
        for a, b in zip(want, got):
            assert_logits_equal(a, b)
        assert engine.pool.adoptions > 0
        both = [held for held in sharing if len(_distinct_runs(held)) == 2]
        assert both, "no layer held both documents' runs at once"
        assert all(len(held) == 4 for held in both)  # the fifth holds no run

    def test_prompt_tail_adopts_the_prefix_beside_the_sharers_rows(
        self, tiny_model, million_factory, sharing, monkeypatch
    ):
        """A request arriving mid-decode adopts the sharers' document and
        runs its tail in the same traversal as their rows, then joins their
        run."""
        vocab = tiny_model.config.vocab_size
        doc = _tokens(7, BUDGET, vocab)
        prompts = [np.concatenate([doc, _tokens(20 + i, 6, vocab)]) for i in range(3)]
        mixed = []
        traverse = tiny_model.forward_segments

        def recording(segments, prof, **hooks):
            sizes = sorted(len(segment.token_ids) for segment in segments)
            mixed.append(sizes[-1] > 1 and sizes[:2] == [1, 1])
            return traverse(segments, prof, **hooks)

        monkeypatch.setattr(tiny_model, "forward_segments", recording)
        engine = _engine(tiny_model, million_factory)
        got = _serve(engine, [(0, prompts[0], None), (0, prompts[1], None),
                              (6, prompts[2], None)], 12)
        monkeypatch.undo()
        want = solo(tiny_model, million_factory, prompts, 12, budget=BUDGET,
                    record_logits=True)
        for a, b in zip(want, got):
            assert_logits_equal(a, b)
        # The late request's admission step: its tail beside both rows.
        assert mixed[6]
        assert any(len(held) == 3 for held in sharing)

    def test_sharer_preempted_and_restored_while_the_others_decode(
        self, tiny_model, million_factory, sharing
    ):
        """A preempted sharer re-adopts the document and replays its tokens
        as rows beside the other sharers' decode rows, sharing their run."""
        vocab = tiny_model.config.vocab_size
        doc = _tokens(8, BUDGET, vocab)
        prompts = [np.concatenate([doc, _tokens(40 + i, 4 + i, vocab)]) for i in range(3)]
        engine = _engine(tiny_model, million_factory)
        calls_before = []  # sharing calls made before each step
        replaying = []  # steps the victim ran replay rows in

        def preempt_one(step, rids):
            calls_before.append(len(sharing))
            if step == 8:
                victim = engine.state_of(rids[1])
                assert len(victim.generated) >= 3
                engine._preempt(victim)
            elif step > 8:
                plan = engine.state_of(rids[1]).prefill_plan
                if plan is not None and plan.replaying:
                    replaying.append(step)

        got = _serve(engine, [(0, p, None) for p in prompts], 14, at_step=preempt_one)
        want = solo(tiny_model, million_factory, prompts, 14, budget=BUDGET,
                    record_logits=True)
        for a, b in zip(want, got):
            assert_logits_equal(a, b)
        assert engine.preemption_count == 1 and replaying
        calls_before.append(len(sharing))
        replay_calls = [
            held
            for step in replaying
            for held in sharing[calls_before[step] : calls_before[step + 1]]
        ]
        assert replay_calls and all(len(held) == 3 for held in replay_calls)

    def test_tiered_sharers(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, sharing
    ):
        """Sharers of a head-group tier share per sub-cache unit; the
        default tier's sharers beside them share their own runs."""
        vocab = tiny_model.config.vocab_size
        default = QuantPolicy.uniform(tiny_config, "million", 4)
        tiers = {"quality": mixed_policy}
        doc = _tokens(9, BUDGET, vocab)
        arrivals = [
            (0, np.concatenate([doc, _tokens(60 + i, 3 + i, vocab)]), tier)
            for i, tier in enumerate(("quality", "quality", None, None))
        ]
        engine = BatchedMillionEngine(
            tiny_model,
            pooled(tiny_model, factory_bank, policy=default, tiers=tiers),
            max_batch_size=4, prefill_token_budget=BUDGET,
        )
        got = _serve(engine, arrivals, 10)
        for (_, prompt, tier), logits in zip(arrivals, got):
            (want,) = solo(tiny_model, factory_bank, [prompt], 10, budget=BUDGET,
                           record_logits=True, policy=tiers.get(tier, default))
            assert_logits_equal(want, logits)
        quality_units = engine.factory.tier("quality").units
        assert quality_units > tiny_config.n_layers  # some layer has head groups
        held_units = {cache.layer_index for held in sharing for cache, _ in held}
        assert any(unit >= tiny_config.n_layers for unit in held_units)
        assert any(unit < tiny_config.n_layers for unit in held_units)


def test_shared_layer_peak_is_at_most_one_run_above_unshared(
    tiny_model, million_factory
):
    """One layer's attends over 4 sharers of a 64-block prefix: the shared
    traced peak exceeds the unshared one by at most the run's K̂ + V̂."""
    _, states, _ = _sharers(tiny_model, million_factory)
    caches = [state.context.caches[0] for state in states]
    assert not any(isinstance(cache, HeadGroupKVCache) for cache in caches)
    config = tiny_model.config
    queries = _tokens(5, config.n_heads * config.head_dim, 7).astype(np.float32)
    queries = queries.reshape(1, config.n_heads, config.head_dim)
    positions = [np.asarray([state.context.next_position]) for state in states]

    def peak(share):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        with share(caches, [(1, False)] * len(caches)):
            contexts = [
                cache.attend(queries, position, 0.125)
                for cache, position in zip(caches, positions)
            ]
        top = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        return top, contexts

    unshared, want = peak(no_sharing)
    shared, got = peak(shared_prefix_runs)
    for a, b in zip(want, got):
        np.testing.assert_array_equal(a, b)
    run_bytes = 2 * DOC_BLOCKS * BLOCK_TOKENS * config.kv_heads * config.head_dim * 4
    assert shared - unshared <= run_bytes, (shared, unshared, run_bytes)


@pytest.mark.parametrize("window", [0, 6])
@pytest.mark.parametrize(
    "appends",
    [
        [(16, True), (3, False)],  # an aligned chunk, then its tail
        [(1, False)] * 3,  # rows of one cache
        [(9, False), (1, False), (7, True), (2, False)],
    ],
)
def test_attended_rows_is_the_most_stored_rows_an_attend_sees(
    tiny_config, million_factory, window, appends
):
    """A run's buffers are sized by ``attended_rows`` before the layer's
    appends; it must equal what the appends and seals then store."""
    key_pq, value_pq = million_factory.quantizers[0]
    config = million_factory.million_config.with_updates(recent_window=window)
    cache = MillionKVCacheLayer(tiny_config, key_pq, value_pq, config, flush_block_multiple=4)
    rng = np.random.default_rng(window)

    def append(rows):
        shape = (rows, tiny_config.kv_heads, tiny_config.head_dim)
        cache.append(rng.standard_normal(shape), rng.standard_normal(shape))

    append(13)  # start with pending rows past a block boundary
    predicted = cache.attended_rows(appends)
    seen = 0
    for rows, seal in appends:
        append(rows)
        seen = max(seen, cache.stored_tokens)
        if seal:
            cache.flush_all()
    assert predicted == seen
