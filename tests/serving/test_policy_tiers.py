"""Tests for policy-driven serving: quality tiers, heterogeneous pools and
the batch-size-dependent fused/per-sequence decode switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calibration import train_million_quantizers
from repro.core.million_cache import MillionCacheFactory
from repro.quant.policy import QuantPolicy, derive_policy, million_variant
from repro.serving import BatchedMillionEngine, GenerationRequest
from repro.serving.memory import BlockPool, PooledPolicyCacheFactory, UnitLayout
from support.reference import pooled, solo


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


def _drain(engine, request_ids):
    tokens = {rid: [] for rid in request_ids}
    finished = set()
    while finished != set(request_ids):
        for out in engine.step():
            if out.request_id in tokens and out.token is not None:
                tokens[out.request_id].append(out.token)
            if out.finished:
                finished.add(out.request_id)
    return tokens


class TestUnitLayoutPool:
    def test_uniform_layouts_match_legacy_pool(self, tiny_config, million_config):
        legacy = BlockPool.for_model(
            tiny_config, million_config, num_blocks=8, block_tokens=4
        )
        assert not legacy.heterogeneous
        assert legacy.unit_bytes_per_block(0) == legacy.bytes_per_block

    def test_heterogeneous_pack_unpack_round_trip(self):
        layouts = [
            UnitLayout(kv_heads=2, key_subspaces=8, value_subspaces=8),
            UnitLayout(kv_heads=2, key_subspaces=16, value_subspaces=16),
        ]
        pool = BlockPool(
            num_blocks=4, block_tokens=4, n_layers=2, unit_layouts=layouts
        )
        assert pool.heterogeneous
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

    def test_heterogeneous_write_requires_unit(self):
        layouts = [
            UnitLayout(kv_heads=1, key_subspaces=4, value_subspaces=4),
            UnitLayout(kv_heads=1, key_subspaces=8, value_subspaces=8),
        ]
        pool = BlockPool(
            num_blocks=2, block_tokens=2, n_layers=2, unit_layouts=layouts
        )
        block = pool.allocate_block()
        codes = np.zeros((2, 1, 4), dtype=np.uint8)
        with pytest.raises(Exception):
            pool.write_block(block, codes, codes)

    def test_for_policy_unit_accounting(self, tiny_config, mixed_policy):
        pool = BlockPool.for_policy(
            tiny_config, mixed_policy, num_blocks=8, block_tokens=4
        )
        units = sum(
            len(mixed_policy.head_groups(layer))
            for layer in range(tiny_config.n_layers)
        )
        assert pool.n_units == units
        total = sum(pool.unit_bytes_per_block(u) for u in range(units))
        assert total == pytest.approx(4 * mixed_policy.bytes_per_token())


class TestQualityTiers:
    def _engine(
        self, tiny_model, tiny_config, factory_bank, mixed_policy,
        balanced_own_pool=False,
    ):
        default = pooled(tiny_model, factory_bank[4], num_blocks=64)
        balanced = (
            pooled(tiny_model, factory_bank[4], num_blocks=64)
            if balanced_own_pool
            else default
        )
        tier_pool = BlockPool.for_policy(
            tiny_config, mixed_policy, num_blocks=64, block_tokens=4
        )
        quality = PooledPolicyCacheFactory(
            mixed_policy, tiny_config, factory_bank, tier_pool
        )
        return BatchedMillionEngine(
            tiny_model,
            default,
            max_batch_size=4,
            tier_factories={"quality": quality, "balanced": balanced},
        )

    @pytest.mark.parametrize("balanced_own_pool", [False, True])
    def test_tier_routing_and_stats(
        self, tiny_model, tiny_config, factory_bank, mixed_policy, balanced_own_pool
    ):
        engine = self._engine(
            tiny_model, tiny_config, factory_bank, mixed_policy, balanced_own_pool
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
        assert tiers["quality"]["policy_bytes_per_token"] == pytest.approx(
            mixed_policy.bytes_per_token()
        )
        # Same quantizers, same prompt: the balanced tier decodes the default
        # tier's tokens whether it shares the default pool or has its own.
        assert tokens[rids[2]] == tokens[rids[0]]
        default_pool = engine.factory.pool
        balanced_pool = engine.tier_factories["balanced"].pool
        assert (balanced_pool is not default_pool) == balanced_own_pool
        if balanced_own_pool:
            # Each pool served exactly one of the two identical requests.
            assert balanced_pool.allocations > 0
            assert balanced_pool.allocations == default_pool.allocations

    def test_balanced_tier_token_identical_to_default(
        self, tiny_model, tiny_config, factory_bank, mixed_policy
    ):
        engine = self._engine(tiny_model, tiny_config, factory_bank, mixed_policy)
        prompt = np.arange(3, 27, dtype=np.int64) % tiny_config.vocab_size
        rid_default = engine.add_request(prompt, max_new_tokens=8)
        tokens_default = _drain(engine, [rid_default])[rid_default]
        rid_balanced = engine.add_request(prompt, max_new_tokens=8, tier="balanced")
        tokens_balanced = _drain(engine, [rid_balanced])[rid_balanced]
        assert tokens_default == tokens_balanced

    def test_unknown_tier_rejected_at_submission(
        self, tiny_model, tiny_config, factory_bank, mixed_policy
    ):
        engine = self._engine(tiny_model, tiny_config, factory_bank, mixed_policy)
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
