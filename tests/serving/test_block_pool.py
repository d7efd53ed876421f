"""Tests for the paged KV block pool: sharing, admission, preemption, cancel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.codebook import SubspaceCodebooks
from repro.core.config import MillionConfig
from repro.core.pq import ProductQuantizer
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import (
    BatchedMillionEngine,
    BlockPool,
    FinishReason,
    PoolExhaustedError,
    RequestStatus,
    chain_hashes,
    hash_token_block,
)
from repro.serving.memory import PooledMillionKVCacheLayer, UnitLayout
from repro.utils.bitpack import code_dtype
from support.reference import BLOCK_TOKENS, pooled, reference_pq_decode


@pytest.fixture()
def pooled_engine_factory(tiny_model, million_factory):
    """Builds a fresh pooled engine (own pool) per call; cleans the model up."""

    def build(num_blocks=256, max_batch_size=4, budget=None):
        factory = pooled(tiny_model, million_factory, num_blocks=num_blocks)
        return BatchedMillionEngine(
            tiny_model,
            factory,
            max_batch_size=max_batch_size,
            prefill_token_budget=budget,
        )

    yield build
    tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestChainHashes:
    def test_chain_covers_whole_prefix(self):
        tokens = np.arange(16)
        hashes = chain_hashes(tokens, 4)
        assert len(hashes) == 4
        # Same block content at a different chain position hashes differently.
        shifted = chain_hashes(np.concatenate([[99], tokens])[:16], 4)
        assert hashes[0] != shifted[0]
        # Prefix property: equal prefixes produce equal leading hashes.
        again = chain_hashes(np.concatenate([tokens[:8], [1, 2, 3, 4]]), 4)
        assert again[:2] == hashes[:2] and again[2] != hashes[2]

    def test_partial_trailing_block_is_ignored(self):
        assert len(chain_hashes(np.arange(7), 4)) == 1
        assert chain_hashes(np.arange(3), 4) == []

    def test_hash_token_block_is_deterministic(self):
        a = hash_token_block(b"\x00" * 16, np.asarray([1, 2, 3]))
        b = hash_token_block(b"\x00" * 16, np.asarray([1, 2, 3]))
        assert a == b and len(a) == 16


class TestBlockPool:
    def _pool(self, num_blocks=8, n_layers=2):
        layout = UnitLayout(kv_heads=2, key_subspaces=8, value_subspaces=8)
        return BlockPool(num_blocks, 4, [layout] * n_layers)

    def _codes(self, pool, seed=0):
        rng = np.random.default_rng(seed)
        shape = (pool.block_tokens, *pool.unit_key_shape(0))
        return rng.integers(0, 255, size=shape).astype(np.uint8)

    def test_allocate_write_read_roundtrip(self):
        pool = self._pool()
        block_id = pool.allocate_block()
        codes = self._codes(pool)
        pool.write_block(block_id, codes, codes + 1, unit=1)
        np.testing.assert_array_equal(pool.key_codes(block_id), codes)
        np.testing.assert_array_equal(pool.value_codes(block_id), codes + 1)
        assert pool.block_unit(block_id) == 1
        assert pool.refcount(block_id) == 1
        assert pool.used_block_count == 1 and pool.free_block_count == 7

    def test_reads_of_full_width_units_are_views_of_the_arena(self):
        pool = self._pool()
        block_id = pool.allocate_block()
        codes = self._codes(pool)
        pool.write_block(block_id, codes, codes, unit=0)
        for read, arena in ((pool.key_codes, pool._keys), (pool.value_codes, pool._values)):
            rows = read(block_id)
            assert rows.shape == codes.shape and rows.dtype == np.uint8
            assert rows.flags.c_contiguous
            assert np.shares_memory(rows, arena.read(block_id))

    def test_reading_an_unwritten_block_raises(self):
        pool = self._pool()
        block_id = pool.allocate_block()
        assert pool.block_unit(block_id) is None
        with pytest.raises(Exception, match="has not been written"):
            pool.key_codes(block_id)
        with pytest.raises(Exception, match="has not been written"):
            pool.value_codes(block_id)

    def test_exhaustion_raises_when_nothing_evictable(self):
        pool = self._pool(num_blocks=2)
        pool.allocate_block()
        pool.allocate_block()
        with pytest.raises(PoolExhaustedError):
            pool.allocate_block()

    def test_double_free_guarded(self):
        pool = self._pool()
        block_id = pool.allocate_block()
        pool.decref(block_id)
        with pytest.raises(Exception, match="not allocated|double free"):
            pool.decref(block_id)

    def test_private_block_freed_at_refcount_zero(self):
        pool = self._pool()
        block_id = pool.allocate_block()
        pool.decref(block_id)
        assert pool.free_block_count == pool.num_blocks

    def test_publish_adopt_and_refcounts(self):
        pool = self._pool()
        group = [pool.allocate_block() for _ in range(pool.n_layers)]
        for unit, bid in enumerate(group):
            pool.write_block(bid, self._codes(pool), self._codes(pool), unit)
        digest = hash_token_block(b"\x00" * 16, np.arange(4))
        pool.publish(digest, group)
        assert pool.lookup(digest) == tuple(group)
        adopted = pool.adopt(digest)
        assert adopted == tuple(group)
        assert all(pool.refcount(b) == 2 for b in group)
        with pytest.raises(KeyError):
            pool.adopt(b"\xff" * 16)

    def test_published_blocks_become_cached_then_evicted_lru(self):
        pool = self._pool(num_blocks=4, n_layers=2)
        digests = []
        for i in range(2):
            group = [pool.allocate_block() for _ in range(2)]
            for unit, bid in enumerate(group):
                pool.write_block(bid, self._codes(pool, i), self._codes(pool, i), unit)
            digest = hash_token_block(b"\x00" * 16, np.asarray([i]))
            pool.publish(digest, group)
            for bid in group:
                pool.decref(bid)
            digests.append(digest)
        # All four blocks are cached (refcount 0, contents kept).
        assert pool.free_block_count == 0
        assert pool.evictable_block_count == 4
        assert pool.can_allocate(4) and not pool.can_allocate(5)
        # Allocation evicts the least recently used group (the first one).
        pool.allocate_block()
        assert pool.lookup(digests[0]) is None
        assert pool.lookup(digests[1]) is not None
        assert pool.evictions == 1

    def test_adoption_protects_group_from_eviction(self):
        pool = self._pool(num_blocks=4, n_layers=2)
        group = [pool.allocate_block() for _ in range(2)]
        for unit, bid in enumerate(group):
            pool.write_block(bid, self._codes(pool), self._codes(pool), unit)
        digest = hash_token_block(b"\x00" * 16, np.arange(4))
        pool.publish(digest, group)
        for bid in group:
            pool.decref(bid)
        assert pool.group_is_evictable(digest)
        pool.adopt(digest)  # re-referenced: no longer evictable
        assert not pool.group_is_evictable(digest)
        pool.allocate_block()
        pool.allocate_block()
        with pytest.raises(PoolExhaustedError):
            pool.allocate_block()

    def test_shared_blocks_are_immutable(self):
        pool = self._pool()
        group = [pool.allocate_block() for _ in range(pool.n_layers)]
        for unit, bid in enumerate(group):
            pool.write_block(bid, self._codes(pool), self._codes(pool), unit)
        pool.publish(hash_token_block(b"\x00" * 16, np.arange(4)), group)
        with pytest.raises(Exception, match="published"):
            pool.write_block(group[0], self._codes(pool), self._codes(pool), unit=0)

    def test_gather_reads_several_blocks_in_one_copy(self):
        """A batched read equals the per-block views concatenated, for a
        full-width unit and for a narrower one sharing the arena."""
        wide = UnitLayout(kv_heads=2, key_subspaces=8, value_subspaces=8)
        narrow = UnitLayout(kv_heads=1, key_subspaces=4, value_subspaces=8)
        pool = BlockPool(8, 4, [wide, narrow])
        rng = np.random.default_rng(3)
        ids = {0: [], 1: []}
        for unit in (0, 1, 0, 1, 0):
            block_id = pool.allocate_block()
            keys = rng.integers(0, 255, (4, *pool.unit_key_shape(unit))).astype(np.uint8)
            values = rng.integers(0, 255, (4, *pool.unit_value_shape(unit))).astype(np.uint8)
            pool.write_block(block_id, keys, values, unit)
            ids[unit].append(block_id)
        for unit, blocks in ids.items():
            order = [*blocks[::-1], blocks[0]]
            for gather, read, shape in (
                (pool.gather_key_codes, pool.key_codes, pool.unit_key_shape(unit)),
                (pool.gather_value_codes, pool.value_codes, pool.unit_value_shape(unit)),
            ):
                rows = gather(order, unit)
                np.testing.assert_array_equal(
                    rows, np.concatenate([read(block_id) for block_id in order])
                )
                assert not np.shares_memory(rows, pool._keys.read(order[0]))
                assert not np.shares_memory(rows, pool._values.read(order[0]))
                assert gather([], unit).shape == (0, *shape)

    def test_gather_rejects_freed_unwritten_and_foreign_blocks(self):
        pool = self._pool()
        codes = self._codes(pool)

        def written(unit):
            block_id = pool.allocate_block()
            pool.write_block(block_id, codes, codes, unit)
            return block_id

        good, freed, foreign = written(0), written(0), written(1)
        pool.decref(freed)
        unwritten = pool.allocate_block()
        for gather in (pool.gather_key_codes, pool.gather_value_codes):
            assert gather([good], 0).shape[0] == pool.block_tokens
            with pytest.raises(Exception, match="not allocated"):
                gather([good, freed], 0)
            with pytest.raises(Exception, match="has not been written"):
                gather([good, unwritten], 0)
            with pytest.raises(Exception, match="unit 1's codes, not unit 0's"):
                gather([good, foreign], 0)
            with pytest.raises(Exception, match="not allocated"):
                gather([-1], 0)

    def test_stats_keys(self):
        stats = self._pool().stats()
        for key in ("num_blocks", "free_blocks", "used_blocks", "utilization",
                    "memory_bytes", "allocations", "evictions", "adoptions"):
            assert key in stats


def _shadow_kit(tiny_config, m_subspaces, nbits, seed=4):
    """A one-unit pool of 4-token blocks, and builders of its pooled layers:
    ``layer()`` makes one, ``filled(cache, n)`` appends and seals ``n``
    random tokens and returns their key and value codes."""
    rng = np.random.default_rng(seed)
    head_dim, kv_heads = tiny_config.head_dim, tiny_config.kv_heads
    quantizer = ProductQuantizer(
        SubspaceCodebooks(
            rng.standard_normal(
                (m_subspaces, 2**nbits, head_dim // m_subspaces)
            ).astype(np.float32)
        )
    )
    dtype = code_dtype(nbits)
    pool = BlockPool(
        16, 4, [UnitLayout(kv_heads, m_subspaces, m_subspaces, dtype, dtype)]
    )
    million = MillionConfig(m_subspaces=m_subspaces, nbits=nbits)

    def layer():
        return PooledMillionKVCacheLayer(
            tiny_config, quantizer, quantizer, million, pool, 0
        )

    def filled(cache, n_tokens):
        keys = rng.standard_normal((n_tokens, kv_heads, head_dim)).astype(np.float32)
        values = rng.standard_normal(keys.shape).astype(np.float32)
        cache.append(keys, values)
        cache.flush_all()
        return [
            quantizer.encode(x.reshape(-1, head_dim)).reshape(n_tokens, kv_heads, -1)
            for x in (keys, values)
        ]

    return quantizer, pool, layer, filled


#: ``(M, nbits, index_shadow)``: flat index of 4,096 rows (2-byte index
#: shadow) and of 131,072 rows (code shadow).
SHADOW_PRESETS = [(16, 8, True), (32, 12, False)]


class TestPooledLayerShadow:
    """A pooled layer keeps one shadow per side beside its pool blocks."""

    @pytest.mark.parametrize("m_subspaces,nbits,index_shadow", SHADOW_PRESETS)
    def test_stored_codes_are_the_pool_blocks(
        self, tiny_config, m_subspaces, nbits, index_shadow
    ):
        quantizer, pool, layer, filled = _shadow_kit(tiny_config, m_subspaces, nbits)
        head_dim, kv_heads = tiny_config.head_dim, tiny_config.kv_heads
        dtype = code_dtype(nbits)
        owner = layer()
        adopted_codes = filled(owner, 12)
        cache = layer()
        for block_id in owner.block_table:
            pool.incref(block_id)
        cache.adopt_shared_blocks(owner.block_table)
        own_codes = filled(cache, 8)
        assert cache.stored_tokens == 20 and len(cache.block_table) == 5
        stored = (cache._stored_key_codes(), cache._stored_value_codes())
        for side, (codes, reads) in enumerate(
            zip(stored, (pool.key_codes, pool.value_codes))
        ):
            assert codes.dtype == dtype
            np.testing.assert_array_equal(
                codes, np.concatenate([reads(b) for b in cache.block_table])
            )
            np.testing.assert_array_equal(codes[:12], adopted_codes[side])
            np.testing.assert_array_equal(codes[12:], own_codes[side])
            # The shadow reconstructs exactly the pool's codes.
            np.testing.assert_array_equal(
                cache.dequantized_kv()[side].reshape(-1, head_dim),
                reference_pq_decode(quantizer, codes.reshape(-1, m_subspaces)),
            )
        for codes, rows in (
            (cache._key_codes, cache._key_rows),
            (cache._value_codes, cache._value_rows),
        ):
            if index_shadow:
                assert len(codes) == 0 and codes.capacity == 0
                assert len(rows) == 20
            else:
                assert rows is None and len(codes) == 20
        assert layer()._stored_key_codes().shape == (0, kv_heads, m_subspaces)

    @pytest.mark.parametrize("m_subspaces,nbits,index_shadow", SHADOW_PRESETS)
    def test_batched_adoption_equals_per_block_adoption(
        self, tiny_config, m_subspaces, nbits, index_shadow, monkeypatch
    ):
        """One call adopting every block leaves the shadow, block table and
        flush state of one call per block, bit for bit, through one pool
        read and at most one flat index per side."""
        quantizer, pool, layer, filled = _shadow_kit(tiny_config, m_subspaces, nbits)
        owner = layer()
        filled(owner, 16)
        blocks = owner.block_table
        per_block, batched = layer(), layer()
        for cache in (per_block, batched):
            for block_id in blocks:
                pool.incref(block_id)
        for block_id in blocks:
            per_block.adopt_shared_blocks([block_id])
        calls = {"gather": 0, "flat_index": 0}

        def counting(name, method):
            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return counted

        for name in ("gather_key_codes", "gather_value_codes"):
            monkeypatch.setattr(pool, name, counting("gather", getattr(pool, name)))
        monkeypatch.setattr(
            quantizer, "flat_index", counting("flat_index", quantizer.flat_index)
        )
        batched.adopt_shared_blocks(blocks)
        monkeypatch.undo()
        assert calls == {"gather": 2, "flat_index": 2 if index_shadow else 0}
        assert batched.block_table == per_block.block_table == blocks
        assert batched.flush_state == per_block.flush_state == (16, 0)
        for name in ("_key_codes", "_value_codes", "_key_rows", "_value_rows"):
            want, got = getattr(per_block, name), getattr(batched, name)
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(), want.view())
        for want, got in zip(per_block.dequantized_kv(), batched.dequantized_kv()):
            np.testing.assert_array_equal(got, want)


class TestPrefixSharing:
    def test_prefix_blocks_and_prefill_paid_once(
        self, pooled_engine_factory, calibration_tokens
    ):
        """N requests sharing a prompt pay its aligned prefix exactly once."""
        engine = pooled_engine_factory(max_batch_size=4)
        prompt = calibration_tokens[:41]
        n_requests = 4
        aligned = BLOCK_TOKENS * ((prompt.size - 1) // BLOCK_TOKENS)
        for _ in range(n_requests):
            engine.add_request(prompt, max_new_tokens=4)
        engine.step()  # admits all four; one computes, three sit out and adopt
        assert engine.prefill_tokens_computed == prompt.size
        engine.step()  # the three run their tails
        # Prefix compute paid once; every other request only runs the tail.
        tail = prompt.size - aligned
        assert engine.prefill_tokens_computed == prompt.size + (n_requests - 1) * tail
        assert engine.prefill_tokens_reused == (n_requests - 1) * aligned
        # The aligned prefix occupies one set of blocks, shared by all four.
        pool = engine.pool
        n_layers = pool.n_layers
        expected_prefix_blocks = (aligned // BLOCK_TOKENS) * n_layers
        running = engine.scheduler.running
        tables = [cache.block_table for cache in running[0].context.caches]
        shared = {bid for table in tables for bid in table[: aligned // BLOCK_TOKENS]}
        assert len(shared) == expected_prefix_blocks
        for bid in shared:
            assert pool.refcount(bid) == n_requests
        # Aggregate accounting counts shared blocks once: the four sequences
        # together reference exactly the unique prefix blocks.
        results = engine.run()
        outputs = list(results.values())
        for other in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], other)

    def test_shared_prefill_identical_to_cold_prefill(
        self, pooled_engine_factory, calibration_tokens
    ):
        """Adopting published blocks must not change the generated tokens."""
        prompt = calibration_tokens[:30]
        cold = pooled_engine_factory().generate_batch([prompt], max_new_tokens=8)[0]
        engine = pooled_engine_factory()
        first = engine.generate_batch([prompt], max_new_tokens=8)[0]
        warm = engine.generate_batch([prompt], max_new_tokens=8)[0]  # prefix hit
        assert engine.prefill_tokens_reused > 0
        np.testing.assert_array_equal(cold, first)
        np.testing.assert_array_equal(cold, warm)

    def test_copy_on_write_divergence_after_shared_prefix(
        self, pooled_engine_factory, calibration_tokens
    ):
        """Diverging suffixes write private blocks; the shared prefix stays intact."""
        # A chunk boundary at the prefix end makes the prefix adoptable.
        budget = 24
        engine = pooled_engine_factory(budget=budget)
        pool = engine.pool
        prefix = calibration_tokens[:budget]
        prompt_a = np.concatenate([prefix, calibration_tokens[50:58]])
        prompt_b = np.concatenate([prefix, calibration_tokens[60:68]])
        engine.add_request(prompt_a, max_new_tokens=6)
        engine.add_request(prompt_b, max_new_tokens=6)
        engine.step()
        while engine.stats()["prefilling"]:
            engine.step()
        state_a, state_b = engine.scheduler.running
        table_a = state_a.context.caches[0].block_table
        table_b = state_b.context.caches[0].block_table
        n_shared = prefix.size // BLOCK_TOKENS
        assert table_a[:n_shared] == table_b[:n_shared]  # same physical blocks
        assert set(table_a[n_shared:]).isdisjoint(table_b[n_shared:])
        shared_codes = pool.key_codes(table_a[0]).copy()
        # Outputs match what each prompt produces alone (no cross-corruption),
        # and the shared blocks' contents are untouched by the divergence.
        results = engine.run()
        np.testing.assert_array_equal(pool.key_codes(table_a[0]), shared_codes)
        solo_a = pooled_engine_factory(budget=budget).generate_batch([prompt_a], 6)[0]
        solo_b = pooled_engine_factory(budget=budget).generate_batch([prompt_b], 6)[0]
        outputs = list(results.values())
        np.testing.assert_array_equal(outputs[0], solo_a)
        np.testing.assert_array_equal(outputs[1], solo_b)

    def test_finished_requests_leave_blocks_cached_for_reuse(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory()
        prompt = calibration_tokens[:20]
        engine.generate_batch([prompt], max_new_tokens=4)
        pool = engine.pool
        # All references dropped, but published groups remain cached.
        assert pool.evictable_block_count > 0
        assert pool.available_block_count == pool.num_blocks
        engine.generate_batch([prompt], max_new_tokens=4)
        assert engine.prefill_tokens_reused > 0


class TestMemoryAwareAdmission:
    def test_admission_waits_for_pool_capacity(
        self, pooled_engine_factory, calibration_tokens
    ):
        """With a pool fitting ~one sequence, requests run one after another."""
        engine = pooled_engine_factory(num_blocks=14, max_batch_size=4)
        prompts = [calibration_tokens[i : i + 17] for i in (0, 30, 60)]
        for prompt in prompts:
            engine.add_request(prompt, max_new_tokens=4)
        engine.step()
        assert engine.running_count < 3  # the pool refused at least one
        results = engine.run()
        assert len(results) == 3  # but everyone completes eventually
        solo = pooled_engine_factory().generate_batch(prompts, max_new_tokens=4)
        for got, want in zip(results.values(), solo):
            np.testing.assert_array_equal(got, want)

    def test_request_larger_than_pool_is_a_hard_error(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory(num_blocks=4)
        with pytest.raises(ValueError, match="pool blocks"):
            engine.add_request(calibration_tokens[:60], max_new_tokens=2)
        assert engine.queued_count == 0
        assert not engine.scheduler.has_work

    def test_submit_capacity_boundary(
        self, pooled_engine_factory, million_config, calibration_tokens
    ):
        """A 12-block pool holds 6 sealed 4-token groups (2 layers): with no
        residual window, 28 cached tokens seal 24 and fit; 29 seal 28."""
        assert million_config.recent_window == 0
        prompt = calibration_tokens[:10]
        engine = pooled_engine_factory(num_blocks=12, max_batch_size=1)
        (tokens,) = engine.generate_batch([prompt], max_new_tokens=18)
        assert tokens.size == 18
        assert engine.preemption_count == 0
        with pytest.raises(ValueError, match="needs 14 pool blocks"):
            engine.add_request(prompt, max_new_tokens=19)
        assert engine.queued_count == 0


class TestPreemption:
    def test_preempted_and_restored_outputs_token_identical(
        self, pooled_engine_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[i : i + 20] for i in (0, 25, 50)]
        uncontended = pooled_engine_factory(num_blocks=512)
        reference = uncontended.generate_batch(prompts, max_new_tokens=16)
        assert uncontended.preemption_count == 0
        contended = pooled_engine_factory(num_blocks=30)
        outputs = contended.generate_batch(prompts, max_new_tokens=16)
        assert contended.preemption_count >= 1
        for want, got in zip(reference, outputs):
            np.testing.assert_array_equal(want, got)
        preempted = [
            s for s in contended.scheduler.finished_states() if s.preemptions > 0
        ]
        assert preempted, "at least one sequence must have been preempted"
        assert all(s.finish_reason is FinishReason.LENGTH for s in preempted)

    def test_preemption_evicts_youngest_and_frees_blocks(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory(num_blocks=26, max_batch_size=2)
        first = engine.add_request(calibration_tokens[:20], max_new_tokens=16)
        second = engine.add_request(calibration_tokens[25:45], max_new_tokens=16)
        preempted_ids = []
        original = engine._preempt

        def spy(state):
            preempted_ids.append(state.request_id)
            original(state)

        engine._preempt = spy
        engine.run()
        assert preempted_ids, "the tiny pool must force a preemption"
        # The youngest running sequence (admitted last) is evicted first.
        assert preempted_ids[0] == second
        state = engine.state_of(second)
        assert state.preemptions >= 1
        # After draining, no blocks are referenced.
        assert engine.pool.available_block_count == engine.pool.num_blocks
        np.testing.assert_array_equal(
            engine.state_of(first).generated_ids,
            pooled_engine_factory(num_blocks=512).generate_batch(
                [calibration_tokens[:20]], max_new_tokens=16
            )[0],
        )

    def test_preempted_status_visible_while_queued(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory(num_blocks=26, max_batch_size=2)
        engine.add_request(calibration_tokens[:20], max_new_tokens=16)
        second = engine.add_request(calibration_tokens[25:45], max_new_tokens=16)
        seen_preempted = False
        while engine.scheduler.has_work:
            engine.step()
            if engine.state_of(second).status is RequestStatus.PREEMPTED:
                seen_preempted = True
        assert seen_preempted
        assert engine.state_of(second).is_finished


class TestCancel:
    def test_cancel_queued_request(self, pooled_engine_factory, calibration_tokens):
        engine = pooled_engine_factory(max_batch_size=1)
        first = engine.add_request(calibration_tokens[:10], max_new_tokens=4)
        second = engine.add_request(calibration_tokens[10:20], max_new_tokens=4)
        engine.step()  # first running, second still queued
        assert engine.cancel(second) is True
        state = engine.state_of(second)
        assert state.is_finished and state.finish_reason is FinishReason.CANCELLED
        results = engine.run()
        assert results[second].size == 0
        assert results[first].shape == (4,)

    def test_cancel_running_request_frees_blocks(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory()
        request_id = engine.add_request(calibration_tokens[:20], max_new_tokens=50)
        engine.step()
        assert engine.running_count == 1
        pool = engine.pool
        assert pool.available_block_count < pool.num_blocks  # blocks referenced
        assert engine.cancel(request_id) is True
        assert engine.running_count == 0
        assert pool.available_block_count == pool.num_blocks
        state = engine.state_of(request_id)
        assert state.finish_reason is FinishReason.CANCELLED
        assert state.context is None
        assert not engine.scheduler.has_work

    def test_cancel_finished_returns_false_and_unknown_raises(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory()
        request_id = engine.add_request(calibration_tokens[:10], max_new_tokens=2)
        engine.run()
        assert engine.cancel(request_id) is False
        with pytest.raises(Exception, match="unknown request id"):
            engine.cancel("no-such-request")

    def test_cancelled_result_counts_generated_so_far(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory()
        request_id = engine.add_request(calibration_tokens[:10], max_new_tokens=50)
        engine.step()
        engine.step()
        engine.cancel(request_id)
        results = engine.run()
        assert results[request_id].size == 2  # one token per completed step


class TestStats:
    def test_stats_shapes_and_pool_section(
        self, pooled_engine_factory, calibration_tokens
    ):
        engine = pooled_engine_factory()
        prompt = calibration_tokens[:30]
        engine.add_request(prompt, max_new_tokens=8)
        engine.add_request(prompt, max_new_tokens=8)
        engine.step()
        stats = engine.stats()
        assert stats["running"] == 2
        assert stats["prefill_tokens_reused"] > 0
        assert stats["pool"]["used_blocks"] > 0
        assert 0.0 < stats["pool"]["utilization"] <= 1.0
        assert stats["active_cache_memory_bytes"] > 0.0
        engine.run()
        assert engine.stats()["active_cache_memory_bytes"] == 0.0

    def test_aggregate_memory_counts_shared_prefix_once(
        self, pooled_engine_factory, calibration_tokens
    ):
        prompt = calibration_tokens[:41]
        solo = pooled_engine_factory()
        solo.add_request(prompt, max_new_tokens=4)
        solo.step()
        single = solo.active_cache_memory_bytes()
        shared = pooled_engine_factory()
        for _ in range(4):
            shared.add_request(prompt, max_new_tokens=4)
        shared.step()
        aggregate = shared.active_cache_memory_bytes()
        # Four sequences sharing the prefix cost far less than four privates;
        # the codebooks and pending tokens are per-sequence, the blocks are not.
        assert aggregate < 2.5 * single
        solo.run()
        shared.run()


class PoolMachine(RuleBasedStateMachine):
    """Random allocate/write/publish/adopt/decref/evict traffic over a pool
    of two tiers (4- and 8-unit groups), checked against the references the
    test holds: each is a block and the chain hash it was published or
    adopted under (``None`` for a private block)."""

    RANGES = ((0, 4), (4, 8))

    def __init__(self):
        super().__init__()
        layout = UnitLayout(kv_heads=1, key_subspaces=2, value_subspaces=2)
        self.pool = BlockPool(24, 2, [layout] * 12, unit_ranges=self.RANGES)
        self.held: list[tuple] = []
        self.sealed: list[list[int]] = []  # written, unpublished groups
        self.published: dict[bytes, tuple] = {}

    def _allocate(self, n):
        return [self.pool.allocate_block() for _ in range(n)]

    def _pick(self, data, items):
        return items.pop(data.draw(st.integers(0, len(items) - 1)))

    @rule(tier=st.sampled_from(RANGES), seed=st.integers(0, 255))
    def seal(self, tier, seed):
        base, units = tier
        if not self.pool.can_allocate(units):
            return
        blocks = self._allocate(units)
        codes = np.full((2, 1, 2), seed, dtype=np.uint8)
        for offset, block in enumerate(blocks):
            self.pool.write_block(block, codes, codes, unit=base + offset)
        self.sealed.append(blocks)

    @rule(data=st.data(), key=st.integers(0, 3))
    def publish(self, data, key):
        if not self.sealed:
            return
        blocks = self._pick(data, self.sealed)
        chain_hash = bytes([len(blocks), key]) * 8
        self.pool.publish(chain_hash, blocks)
        # A republished hash replaces its group: the old blocks turn private.
        self.held = [(b, None if h == chain_hash else h) for b, h in self.held]
        self.published[chain_hash] = tuple(blocks)
        self.held.extend((block, chain_hash) for block in blocks)

    @rule(data=st.data())
    def adopt(self, data):
        if self.published:
            chain_hash = data.draw(st.sampled_from(sorted(self.published)))
            self.held.extend((b, chain_hash) for b in self.pool.adopt(chain_hash))

    @rule(data=st.data())
    def decref(self, data):
        if self.held:
            self.pool.decref(self._pick(data, self.held)[0])

    @rule(data=st.data())
    def release_group(self, data):
        """Drop every reference held under one chain hash: the group idles."""
        hashes = sorted({h for _, h in self.held if h is not None})
        if hashes:
            chain_hash = data.draw(st.sampled_from(hashes))
            for block, h in [ref for ref in self.held if ref[1] == chain_hash]:
                self.pool.decref(block)
            self.held = [ref for ref in self.held if ref[1] != chain_hash]

    @rule(data=st.data())
    def drop_sealed(self, data):
        if self.sealed:
            for block in self._pick(data, self.sealed):
                self.pool.decref(block)

    @rule(n=st.integers(1, 6))
    def burst(self, n):
        """Private allocations: evict cached groups once the free list is empty."""
        if self.pool.can_allocate(n):
            self.held.extend((block, None) for block in self._allocate(n))

    @invariant()
    def consistent(self):
        self.pool.check_invariants()
        refs = {}
        for block in [b for b, _ in self.held] + [b for g in self.sealed for b in g]:
            refs[block] = refs.get(block, 0) + 1
        for block in range(self.pool.num_blocks):
            assert self.pool.refcount(block) == refs.get(block, 0)
        for chain_hash, blocks in list(self.published.items()):
            found = self.pool.lookup(chain_hash)
            if found is None:  # evicted: only an unreferenced group may go
                assert all(h != chain_hash for _, h in self.held)
                del self.published[chain_hash]
            else:
                assert found == blocks


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
