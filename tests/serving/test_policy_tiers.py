"""Tests for policy-driven serving: quality tiers as policies over one
heterogeneous pool, and fused decode at every batch size."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calibration import train_million_quantizers
from repro.core.million_cache import MillionCacheFactory
from repro.quant.policy import QuantPolicy, derive_policy, million_variant
from repro.serving import BatchedMillionEngine, GenerationRequest
from repro.serving.memory import ROOT_HASH, BlockPool, UnitLayout
from support.reference import BLOCK_TOKENS, pooled, reference_pq_decode, solo

#: Pool of the preemption test: holds either tiered request alone, not both.
POOL_PRESSURE_BLOCKS = 48


@pytest.fixture(scope="module")
def factory_bank(tiny_config, kv_samples):
    """Unpooled MILLION factories at 2/4/8 equivalent bits, shared quantizers."""
    bank = {}
    for bits in (2, 4, 8):
        variant = million_variant(
            tiny_config.head_dim, bits, kmeans_iters=3, calibration_samples=768
        )
        bank[bits] = MillionCacheFactory(
            train_million_quantizers(kv_samples, variant), variant
        )
    return bank


@pytest.fixture(scope="module")
def mixed_policy(tiny_config, kv_samples):
    from repro.core.calibration import measure_sensitivity

    sensitivity = measure_sensitivity(kv_samples, kmeans_iters=2, max_tokens=512)
    budget = 1.5 * QuantPolicy.uniform(tiny_config, "million", 4).bytes_per_token()
    return derive_policy(tiny_config, sensitivity, budget, schemes=("million",))


@pytest.fixture(scope="module")
def compact_policy(tiny_config, kv_samples):
    from repro.core.calibration import measure_sensitivity

    sensitivity = measure_sensitivity(kv_samples, kmeans_iters=2, max_tokens=512)
    b2 = QuantPolicy.uniform(tiny_config, "million", 2).bytes_per_token()
    b4 = QuantPolicy.uniform(tiny_config, "million", 4).bytes_per_token()
    return derive_policy(tiny_config, sensitivity, (b2 + b4) / 2.0, schemes=("million",))


def _drain(engine, request_ids):
    tokens = {rid: [] for rid in request_ids}
    finished = set()
    while finished != set(request_ids):
        for out in engine.step():
            if out.request_id in tokens and out.token is not None:
                tokens[out.request_id].append(out.token)
            if out.finished:
                finished.add(out.request_id)
    engine.pool.check_invariants()
    return tokens


def _tier_policies(tiny_config, mixed_policy, compact_policy):
    """The default tier's policy and the named tiers, as the gateway lays them out."""
    default = QuantPolicy.uniform(tiny_config, "million", 4)
    return default, {"balanced": default, "quality": mixed_policy, "compact": compact_policy}


class TestUnitLayoutPool:
    def test_for_model_matches_uniform_policy_pool(
        self, tiny_model, tiny_config, million_config, million_factory
    ):
        """One calibrated factory's pool is the uniform policy's: one unit per
        layer, each as wide as the factory's code rows."""
        by_model = pooled(tiny_model, million_factory, num_blocks=8).pool
        by_policy = pooled(
            tiny_model, {4: million_factory}, num_blocks=8,
            policy=QuantPolicy.uniform(tiny_config, "million", 4),
        ).pool
        assert by_model.n_units == by_policy.n_units == tiny_config.n_layers
        assert by_model.unit_ranges == ((0, tiny_config.n_layers),)
        assert by_model.bytes_per_block == by_policy.bytes_per_block
        for unit in range(by_model.n_units):
            assert by_model.unit_key_shape(unit) == by_policy.unit_key_shape(unit) == (
                tiny_config.kv_heads, million_config.m_subspaces
            )
            assert by_model.unit_value_shape(unit) == by_policy.unit_value_shape(unit)
            assert by_model.unit_bytes_per_block(unit) == by_model.bytes_per_block

    def test_heterogeneous_pack_unpack_round_trip(self):
        layouts = [
            UnitLayout(kv_heads=2, key_subspaces=8, value_subspaces=8),
            UnitLayout(kv_heads=2, key_subspaces=16, value_subspaces=16),
        ]
        pool = BlockPool(num_blocks=4, block_tokens=4, unit_layouts=layouts)
        rng = np.random.default_rng(0)
        written = {}
        for unit, layout in enumerate(layouts):
            block = pool.allocate_block()
            codes_k = rng.integers(
                0, 255, size=(4, layout.kv_heads, layout.key_subspaces), dtype=np.uint8
            )
            codes_v = rng.integers(
                0, 255, size=(4, layout.kv_heads, layout.value_subspaces), dtype=np.uint8
            )
            pool.write_block(block, codes_k, codes_v, unit=unit)
            written[block] = (unit, codes_k, codes_v)
        for block, (unit, codes_k, codes_v) in written.items():
            assert pool.block_unit(block) == unit
            np.testing.assert_array_equal(pool.key_codes(block), codes_k)
            np.testing.assert_array_equal(pool.value_codes(block), codes_v)

    @pytest.mark.parametrize("subspaces", [(4, 4), (4, 8)], ids=["uniform", "mixed"])
    def test_write_requires_unit(self, subspaces):
        layouts = [
            UnitLayout(kv_heads=1, key_subspaces=m, value_subspaces=m)
            for m in subspaces
        ]
        pool = BlockPool(num_blocks=2, block_tokens=2, unit_layouts=layouts)
        block = pool.allocate_block()
        codes = np.zeros((2, 1, 4), dtype=np.uint8)
        with pytest.raises(TypeError):
            pool.write_block(block, codes, codes)
        with pytest.raises(Exception, match="out of range"):
            pool.write_block(block, codes, codes, unit=2)
        pool.write_block(block, codes, codes, unit=0)

    def test_for_policy_unit_accounting(
        self, tiny_model, tiny_config, factory_bank, mixed_policy
    ):
        factory = pooled(
            tiny_model, factory_bank, num_blocks=8,
            policy=QuantPolicy.uniform(tiny_config, "million", 4),
            tiers={"quality": mixed_policy},
        )
        pool = factory.pool
        units = sum(
            len(mixed_policy.head_groups(layer))
            for layer in range(tiny_config.n_layers)
        )
        quality = factory.tier("quality")
        assert (quality.base, quality.units) == (tiny_config.n_layers, units)
        assert pool.n_units == tiny_config.n_layers + units
        assert pool.unit_ranges == ((0, tiny_config.n_layers), (quality.base, units))
        total = sum(
            pool.unit_bytes_per_block(u) for u in range(quality.base, quality.base + units)
        )
        assert total == pytest.approx(4 * mixed_policy.bytes_per_token())

    def test_one_pool_for_every_tier(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        """Tiers share one pool of the requested size, as wide as its widest
        unit; an equal policy shares its units and hash seed."""
        default, tiers = _tier_policies(tiny_config, mixed_policy, compact_policy)
        factory = pooled(tiny_model, factory_bank, num_blocks=64, policy=default, tiers=tiers)
        pool = factory.pool
        assert pool.num_blocks == 64
        assert factory.tier_names == ("balanced", "quality", "compact")
        assert factory.tier("balanced") is factory.tier(None)
        assert factory.tier(None).root_hash == ROOT_HASH
        roots = {factory.tier(name).root_hash for name in (None, "quality", "compact")}
        assert len(roots) == 3
        assert [r[0] for r in pool.unit_ranges] == [
            factory.tier(name).base for name in (None, "quality", "compact")
        ]
        widest = max(pool.unit_bytes_per_block(u) for u in range(pool.n_units))
        assert pool.bytes_per_block == widest
        assert pool.n_layers == tiny_config.n_layers

    def test_publish_requires_one_tiers_consecutive_units(self):
        layout = UnitLayout(kv_heads=1, key_subspaces=2, value_subspaces=2)
        pool = BlockPool(32, 2, [layout] * 6, unit_ranges=[(0, 2), (2, 4)])
        codes = np.zeros((2, 1, 2), dtype=np.uint8)

        def written(units):
            blocks = [pool.allocate_block() for _ in units]
            for block, unit in zip(blocks, units):
                pool.write_block(block, codes, codes, unit=unit)
            return blocks

        for units in ([0, 1, 2, 3], [2, 3], [1, 2], [2, 4, 3, 5], [0]):
            with pytest.raises(Exception, match="unit ranges"):
                pool.publish(bytes(16), written(units))
        pool.publish(b"a" * 16, written([0, 1]))
        pool.publish(b"b" * 16, written([2, 3, 4, 5]))
        pool.check_invariants()
        for ranges in ([(0, 2), (3, 3)], [(0, 2), (2, 3)], [(0, 2), (2, 0), (2, 4)]):
            with pytest.raises(Exception, match="unit ranges"):
                BlockPool(4, 2, [layout] * 6, unit_ranges=ranges)


class TestQualityTiers:
    def _engine(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy,
        num_blocks=64, **engine_kwargs,
    ):
        default, tiers = _tier_policies(tiny_config, mixed_policy, compact_policy)
        factory = pooled(
            tiny_model, factory_bank, num_blocks=num_blocks, policy=default, tiers=tiers
        )
        return BatchedMillionEngine(
            tiny_model, factory, max_batch_size=4, **engine_kwargs
        )

    def test_tier_routing_and_stats(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
        )
        prompt = np.arange(1, 17, dtype=np.int64) % tiny_config.vocab_size
        rids = [
            engine.add_request(prompt, max_new_tokens=6, tier=tier)
            for tier in (None, "quality", "balanced")
        ]
        tokens = _drain(engine, rids)
        assert all(len(t) == 6 for t in tokens.values())
        tiers = engine.stats()["tiers"]
        assert tiers["default"]["requests_total"] == 1
        assert tiers["quality"]["requests_total"] == 1
        assert tiers["balanced"]["requests_total"] == 1
        assert tiers["compact"]["requests_total"] == 0
        assert tiers["quality"]["policy_bytes_per_token"] == pytest.approx(
            mixed_policy.bytes_per_token()
        )
        assert tiers["default"]["policy_bytes_per_token"] == pytest.approx(
            QuantPolicy.uniform(tiny_config, "million", 4).bytes_per_token()
        )
        # Same quantizers, same prompt: the balanced tier decodes the default
        # tier's tokens.
        assert tokens[rids[2]] == tokens[rids[0]]

    def test_balanced_tier_token_identical_to_default(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        """Balanced requests are untiered ones: same tokens, and they adopt
        the blocks an untiered request published."""
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
        )
        prompt = np.arange(3, 27, dtype=np.int64) % tiny_config.vocab_size
        rid_default = engine.add_request(prompt, max_new_tokens=8)
        tokens_default = _drain(engine, [rid_default])[rid_default]
        assert engine.pool.adoptions == 0
        rid_balanced = engine.add_request(prompt, max_new_tokens=8, tier="balanced")
        tokens_balanced = _drain(engine, [rid_balanced])[rid_balanced]
        assert tokens_default == tokens_balanced
        assert engine.pool.adoptions > 0
        assert engine.prefill_tokens_reused == BLOCK_TOKENS * (
            (prompt.size - 1) // BLOCK_TOKENS
        )

    def test_every_tier_identical_to_solo(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        """Tiers batched over one pool decode exactly what each request
        decodes alone under its tier's policy."""
        default, tiers = _tier_policies(tiny_config, mixed_policy, compact_policy)
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
        )
        prompt = np.arange(5, 35, dtype=np.int64) % tiny_config.vocab_size
        names = (None, "quality", "balanced", "compact")
        rids = [
            engine.add_request(prompt[: 18 + 3 * i], max_new_tokens=10, tier=name)
            for i, name in enumerate(names)
        ]
        got = _drain(engine, rids)
        for i, (name, rid) in enumerate(zip(names, rids)):
            (want,) = solo(
                tiny_model, factory_bank, [prompt[: 18 + 3 * i]], 10,
                policy=tiers.get(name, default),
            )
            assert got[rid] == want.tolist(), name

    @pytest.mark.parametrize("tier", [None, "quality"])
    def test_running_caches_read_own_and_adopted_codes_from_the_pool(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy, tier
    ):
        """Mid-decode, every pooled layer of a request that adopted a prefix
        reads its codes back from its pool blocks, and its one shadow (the
        flat index) reconstructs exactly those codes."""
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy,
            num_blocks=256,
        )
        prompt = np.arange(2, 30, dtype=np.int64) % tiny_config.vocab_size
        _drain(engine, [engine.add_request(prompt, max_new_tokens=2, tier=tier)])
        engine.add_request(prompt, max_new_tokens=20, tier=tier)
        for _ in range(12):
            engine.step()
        (state,) = engine.scheduler.running
        assert 0 < engine.prefill_tokens_reused
        caches = engine._pooled_caches(state)
        assert len(caches) == engine.factory.tier(tier).units
        for cache in caches:
            assert cache.stored_tokens > engine.prefill_tokens_reused
            for codes, store, rows, read, quantizer, side in (
                (cache._stored_key_codes(), cache._key_codes, cache._key_rows,
                 engine.pool.key_codes, cache.key_pq, 0),
                (cache._stored_value_codes(), cache._value_codes, cache._value_rows,
                 engine.pool.value_codes, cache.value_pq, 1),
            ):
                np.testing.assert_array_equal(
                    codes, np.concatenate([read(b) for b in cache.block_table])
                )
                assert len(store) == 0 and len(rows) == cache.stored_tokens
                np.testing.assert_array_equal(
                    cache.dequantized_kv()[side].reshape(-1, quantizer.dim),
                    reference_pq_decode(
                        quantizer, codes.reshape(-1, quantizer.m_subspaces)
                    ),
                )
        _drain(engine, [state.request_id])

    def test_tiers_adopt_none_of_each_others_blocks(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy,
            num_blocks=256,
        )
        prompt = np.arange(7, 40, dtype=np.int64) % tiny_config.vocab_size
        rid = engine.add_request(prompt, max_new_tokens=4, tier="quality")
        _drain(engine, [rid])
        published = engine.pool.cached_group_count
        assert published > 0
        rid = engine.add_request(prompt, max_new_tokens=4, tier="compact")
        _drain(engine, [rid])
        # The compact request computed its whole prompt and published its
        # own groups beside the quality tier's.
        assert engine.pool.adoptions == 0 and engine.prefill_tokens_reused == 0
        assert engine.pool.cached_group_count == 2 * published
        assert engine.pool.evictions == 0
        rid = engine.add_request(prompt, max_new_tokens=4, tier="quality")
        _drain(engine, [rid])
        assert engine.pool.adoptions > 0

    def test_preempts_a_best_effort_victim_of_another_tier(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        """Under pool pressure an interactive quality request preempts a
        best-effort compact one: one pool, one victim order.  The restored
        victim still decodes exactly what it decodes alone."""
        default, tiers = _tier_policies(tiny_config, mixed_policy, compact_policy)
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy,
            num_blocks=POOL_PRESSURE_BLOCKS,
        )
        prompt = np.arange(2, 30, dtype=np.int64) % tiny_config.vocab_size
        victim = engine.add_request(
            prompt, max_new_tokens=24, tier="compact", priority="best_effort"
        )
        for _ in range(3):
            engine.step()
        winner = engine.add_request(prompt[:20], max_new_tokens=24, tier="quality")
        _drain(engine, [victim, winner])
        assert engine.state_of(victim).preemptions >= 1
        assert engine.state_of(winner).preemptions == 0
        assert engine.priority_preemptions == {
            "interactive": 0, "best_effort": engine.preemption_count
        }
        for rid, tier, p in ((victim, "compact", prompt), (winner, "quality", prompt[:20])):
            (want,) = solo(tiny_model, factory_bank, [p], 24, policy=tiers[tier])
            np.testing.assert_array_equal(engine.state_of(rid).generated_ids, want)
        assert all(engine.pool.refcount(b) == 0 for b in range(engine.pool.num_blocks))

    def test_unknown_tier_rejected_at_submission(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
    ):
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, compact_policy
        )
        with pytest.raises(ValueError, match="unknown tier"):
            engine.add_request(np.asarray([1, 2, 3]), max_new_tokens=2, tier="turbo")

    def test_tier_without_registry_rejected(self, tiny_model, factory_bank):
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, factory_bank[4]), max_batch_size=2
        )
        with pytest.raises(ValueError, match="unknown tier"):
            engine.add_request(np.asarray([1, 2, 3]), max_new_tokens=2, tier="quality")


class TestFusedAtEveryBatchSize:
    """Every decode row runs through the fused step, whatever the batch size."""

    @pytest.mark.parametrize("max_batch_size", [1, 2, 4])
    def test_tokens_identical_to_solo(
        self, tiny_model, tiny_config, million_factory, max_batch_size
    ):
        prompts = [
            (np.arange(1, 13 + 3 * i, dtype=np.int64) % tiny_config.vocab_size)
            for i in range(3)
        ]
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory),
            max_batch_size=max_batch_size,
        )
        rids = [engine.add_request(p, max_new_tokens=8) for p in prompts]
        got = _drain(engine, rids)
        want = solo(tiny_model, million_factory, prompts, 8)
        assert [got[rid] for rid in rids] == [stream.tolist() for stream in want]
        assert engine.fused_decode_steps > 0

    def test_single_sequence_decodes_fused(self, tiny_model, million_factory):
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory), max_batch_size=4
        )
        rid = engine.add_request(np.asarray([1, 2, 3, 4]), max_new_tokens=4)
        tokens = _drain(engine, [rid])[rid]
        stats = engine.stats()
        # Every sampled token is decoded by one fused step of one row.
        assert stats["step_timing"]["fused_decode_steps"] == len(tokens) == 4
        assert stats["step_timing"]["last_fused_batch_size"] == 1
        fused = stats["histograms"]["fused_batch_size"]
        assert fused["count"] == 4 and fused["sum"] == 4
