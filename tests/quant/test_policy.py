"""Tests for the mixed-precision quantization policy layer.

Covers the policy document itself (validation, serialization round-trip,
model fingerprinting), sensitivity-driven policy derivation (budget
feasibility, monotonicity, determinism, scheme restriction) and the
head-group cache composition — including the load-bearing invariant that a
uniform-equivalent policy runs bit-identically to the plain uniform path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.calibration import measure_sensitivity
from repro.models.kv_cache import FullPrecisionKVCacheLayer
from repro.quant.policy import (
    DEFAULT_LADDER,
    HeadAssignment,
    QuantPolicy,
    derive_policy,
    million_variant,
)
from repro.quant.policy_cache import (
    HeadGroupKVCache,
    PolicyCacheFactory,
    head_subset_config,
)


@pytest.fixture(scope="module")
def sensitivity(kv_samples):
    return measure_sensitivity(kv_samples, kmeans_iters=2, max_tokens=512)


class TestHeadAssignment:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(Exception):
            HeadAssignment("int4", 4)

    def test_fp16_must_declare_16_bits(self):
        with pytest.raises(Exception):
            HeadAssignment("fp16", 4)

    def test_quantized_bits_range(self):
        with pytest.raises(Exception):
            HeadAssignment("million", 0)
        with pytest.raises(Exception):
            HeadAssignment("kivi", 12)

    def test_bytes_per_token(self):
        head_dim = 32
        assert HeadAssignment("fp16", 16).bytes_per_token(head_dim) == 2 * head_dim * 2
        assert HeadAssignment("kivi", 4).bytes_per_token(head_dim) == 2 * head_dim * 4 / 8
        million = HeadAssignment("million", 4)
        config = million_variant(head_dim, 4)
        assert million.bytes_per_token(head_dim) == 2 * config.m_subspaces * config.nbits / 8

    def test_json_round_trip(self):
        assignment = HeadAssignment("kvquant", 4)
        assert HeadAssignment.from_json(assignment.to_json()) == assignment


class TestQuantPolicy:
    def test_uniform_covers_all_heads(self, tiny_config):
        policy = QuantPolicy.uniform(tiny_config, "million", 4)
        assert policy.is_uniform
        assert policy.schemes_used() == {"million"}
        for layer in range(tiny_config.n_layers):
            groups = policy.head_groups(layer)
            assert len(groups) == 1
            assert groups[1 - 1][1] == tuple(range(tiny_config.kv_heads))

    def test_head_groups_partition_heads(self, tiny_config):
        rows = [
            [
                HeadAssignment("million", 8 if head == 0 else 4)
                for head in range(tiny_config.kv_heads)
            ]
            for _ in range(tiny_config.n_layers)
        ]
        policy = QuantPolicy(
            tiny_config.n_layers, tiny_config.kv_heads, tiny_config.head_dim, rows
        )
        assert not policy.is_uniform
        for layer in range(tiny_config.n_layers):
            covered = [h for _, heads in policy.head_groups(layer) for h in heads]
            assert sorted(covered) == list(range(tiny_config.kv_heads))

    def test_serialization_round_trip(self, tiny_config, tmp_path):
        rows = [
            [
                HeadAssignment(*(("fp16", 16) if (layer + head) % 3 == 0 else ("million", 4)))
                for head in range(tiny_config.kv_heads)
            ]
            for layer in range(tiny_config.n_layers)
        ]
        policy = QuantPolicy(
            tiny_config.n_layers,
            tiny_config.kv_heads,
            tiny_config.head_dim,
            rows,
            model_name=tiny_config.name,
        )
        assert QuantPolicy.from_json(policy.to_json()) == policy
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = QuantPolicy.load(path)
        assert loaded == policy
        assert loaded.bytes_per_token() == policy.bytes_per_token()

    def test_validate_for_model_rejects_mismatch(self, tiny_config, gqa_config):
        policy = QuantPolicy.uniform(tiny_config, "million", 4)
        policy.validate_for_model(tiny_config)
        with pytest.raises(Exception):
            policy.validate_for_model(gqa_config)

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(Exception):
            QuantPolicy.from_json({"format": "something-else", "version": 1})


class TestDerivePolicy:
    def test_budget_is_respected(self, tiny_config, sensitivity):
        cheapest = QuantPolicy.uniform(tiny_config, "million", 2).bytes_per_token()
        richest = QuantPolicy.uniform(tiny_config, "fp16", 16).bytes_per_token()
        for budget in np.linspace(cheapest, richest, 7):
            policy = derive_policy(tiny_config, sensitivity, float(budget))
            assert policy.bytes_per_token() <= float(budget) + 1e-9

    def test_generous_budget_reaches_top_rung(self, tiny_config, sensitivity):
        budget = 10 * QuantPolicy.uniform(tiny_config, "fp16", 16).bytes_per_token()
        policy = derive_policy(tiny_config, sensitivity, budget)
        assert policy == QuantPolicy.uniform(
            tiny_config, DEFAULT_LADDER[-1].scheme, DEFAULT_LADDER[-1].bits
        )

    def test_minimal_budget_is_cheapest_uniform(self, tiny_config, sensitivity):
        cheapest = QuantPolicy.uniform(
            tiny_config, DEFAULT_LADDER[0].scheme, DEFAULT_LADDER[0].bits
        )
        policy = derive_policy(tiny_config, sensitivity, cheapest.bytes_per_token())
        assert policy == cheapest

    def test_bytes_monotonic_in_budget(self, tiny_config, sensitivity):
        cheapest = QuantPolicy.uniform(tiny_config, "million", 2).bytes_per_token()
        richest = QuantPolicy.uniform(tiny_config, "fp16", 16).bytes_per_token()
        previous = 0.0
        for budget in np.linspace(cheapest, richest, 9):
            spent = derive_policy(tiny_config, sensitivity, float(budget)).bytes_per_token()
            assert spent >= previous - 1e-9
            previous = spent

    def test_deterministic(self, tiny_config, sensitivity):
        budget = 1.5 * QuantPolicy.uniform(tiny_config, "million", 4).bytes_per_token()
        assert derive_policy(tiny_config, sensitivity, budget) == derive_policy(
            tiny_config, sensitivity, budget
        )

    def test_scheme_restriction(self, tiny_config, sensitivity):
        budget = QuantPolicy.uniform(tiny_config, "fp16", 16).bytes_per_token()
        policy = derive_policy(
            tiny_config, sensitivity, budget, schemes=("million",)
        )
        assert policy.schemes_used() == {"million"}

    def test_infeasible_budget_rejected(self, tiny_config, sensitivity):
        with pytest.raises(Exception):
            derive_policy(tiny_config, sensitivity, 0.0)


class TestHeadSubsetConfig:
    def test_preserves_gqa_ratio(self, gqa_config):
        sub = head_subset_config(gqa_config, 1)
        assert sub.kv_heads == 1
        assert sub.gqa_group_size == gqa_config.gqa_group_size
        assert sub.head_dim == gqa_config.head_dim


def _random_stream(config, n_tokens, seed):
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(n_tokens, config.kv_heads, config.head_dim))
    values = rng.normal(size=(n_tokens, config.kv_heads, config.head_dim))
    return keys.astype(np.float32), values.astype(np.float32)


def _split_cache(config, split):
    groups = []
    for heads in split:
        sub_config = head_subset_config(config, len(heads))
        groups.append((heads, FullPrecisionKVCacheLayer(sub_config)))
    return HeadGroupKVCache(config, groups)


@pytest.mark.parametrize("config_name", ["tiny_config", "gqa_config"])
def test_head_group_attention_matches_single_cache(config_name, request):
    """Splitting a layer across sub-caches must not change attention at all."""
    config = request.getfixturevalue(config_name)
    single = FullPrecisionKVCacheLayer(config)
    kv_heads = config.kv_heads
    split = [(h,) for h in range(kv_heads)]
    grouped = _split_cache(config, split)
    keys, values = _random_stream(config, 24, seed=3)
    single.append(keys, values)
    grouped.append(keys, values)
    assert grouped.seq_len == single.seq_len

    rng = np.random.default_rng(4)
    queries = rng.normal(size=(2, config.n_heads, config.head_dim)).astype(np.float32)
    positions = np.array([24, 25], dtype=np.int64)
    scale = 1.0 / np.sqrt(config.head_dim)
    slopes = None
    if config.positional == "alibi":
        slopes = np.geomspace(
            1.0, 2.0 ** -(config.n_heads - 1), config.n_heads
        ).astype(np.float32)
    out_single = single.attend(queries, positions, scale, alibi_head_slopes=slopes)
    out_grouped = grouped.attend(queries, positions, scale, alibi_head_slopes=slopes)
    np.testing.assert_array_equal(out_grouped, out_single)


def test_head_group_memory_and_compression(tiny_config):
    split = [(0,), (1,)]
    grouped = _split_cache(tiny_config, split)
    keys, values = _random_stream(tiny_config, 16, seed=5)
    grouped.append(keys, values)
    assert grouped.memory_bytes() > 0
    assert grouped.compression_ratio() == pytest.approx(1.0)


class TestPolicyCacheFactory:
    def test_uniform_policy_token_identical_to_uniform_path(
        self, tiny_model, tiny_config, million_factory
    ):
        """The tentpole invariant: a uniform policy IS the uniform path."""
        policy = QuantPolicy.uniform(
            tiny_config, "million", 4
        )
        factory = PolicyCacheFactory.from_million_factory(
            million_factory, policy, tiny_config
        )
        prompt = np.arange(1, 25, dtype=np.int64) % tiny_config.vocab_size

        tiny_model.reset_cache(million_factory)
        baseline = tiny_model.generate(prompt, max_new_tokens=12)
        tiny_model.reset_cache(factory)
        policied = tiny_model.generate(prompt, max_new_tokens=12)
        assert list(baseline) == list(policied)

    def test_mixed_policy_generates(self, tiny_model, tiny_config):
        rows = [
            [
                HeadAssignment(*(("fp16", 16) if head == 0 else ("kivi", 4)))
                for head in range(tiny_config.kv_heads)
            ]
            for _ in range(tiny_config.n_layers)
        ]
        policy = QuantPolicy(
            tiny_config.n_layers,
            tiny_config.kv_heads,
            tiny_config.head_dim,
            rows,
        )
        factory = PolicyCacheFactory(policy, tiny_config)
        cache = factory.create(0, tiny_config)
        assert isinstance(cache, HeadGroupKVCache)
        prompt = np.arange(1, 17, dtype=np.int64) % tiny_config.vocab_size
        tiny_model.reset_cache(factory)
        tokens = tiny_model.generate(prompt, max_new_tokens=8)
        assert len(tokens) == 8

    def test_million_config_only_for_uniform_million(
        self, tiny_config, million_factory
    ):
        policy = QuantPolicy.uniform(
            tiny_config, "million", 4
        )
        factory = PolicyCacheFactory.from_million_factory(
            policy=policy, model_config=tiny_config, factory=million_factory
        )
        assert factory.million_config is million_factory.million_config
        assert factory.bytes_per_token() == policy.bytes_per_token()
