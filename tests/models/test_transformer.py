"""Tests for the transformer LM: prefill/decode equivalence, generation, zoo."""

import numpy as np
import pytest

from repro.models import (
    FullPrecisionCacheFactory,
    GreedySampler,
    ModelConfig,
    TemperatureSampler,
    TopKSampler,
    TopPSampler,
    available_models,
    build_model,
    load_model,
    model_roster,
    sample_token,
)
from repro.models.config import ModelConfig as Config
from repro.models.weights import OutlierSpec
from repro.obs.prof import NULL_PROFILER


class TestModelConfig:
    def test_head_dim(self, tiny_config):
        assert tiny_config.head_dim * tiny_config.n_heads == tiny_config.d_model

    def test_gqa_group(self, gqa_config):
        assert gqa_config.gqa_group_size == 2
        assert gqa_config.kv_dim == gqa_config.kv_heads * gqa_config.head_dim

    def test_invalid_heads(self):
        with pytest.raises(Exception):
            Config(d_model=60, n_heads=7)

    def test_invalid_positional(self):
        with pytest.raises(Exception):
            Config(positional="learned-fancy")

    def test_roundtrip_dict(self, tiny_config):
        assert Config.from_dict(tiny_config.to_dict()) == tiny_config

    def test_parameter_count_matches_model(self, tiny_config, tiny_model):
        assert tiny_model.num_parameters() == pytest.approx(
            tiny_config.num_parameters(), rel=0.01
        )

    def test_kv_cache_bytes_per_token(self, tiny_config):
        expected = 2 * tiny_config.n_layers * tiny_config.kv_dim * 2.0
        assert tiny_config.kv_cache_bytes_per_token() == expected


class TestForwardSemantics:
    def test_prefill_then_decode_matches_full_prefill(self, tiny_model):
        """Incremental decoding must produce the same logits as batch prefill."""
        tokens = np.arange(12) % tiny_model.config.vocab_size
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        full = tiny_model.prefill(tokens)

        tiny_model.reset_cache(FullPrecisionCacheFactory())
        tiny_model.prefill(tokens[:6])
        stepped = [tiny_model.decode_step(int(t)) for t in tokens[6:]]
        np.testing.assert_allclose(np.stack(stepped), full[6:], atol=1e-4)

    def test_chunked_prefill_matches(self, tiny_model):
        tokens = np.arange(16) % tiny_model.config.vocab_size
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        full = tiny_model.prefill(tokens)
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        chunked = np.concatenate(
            [tiny_model.forward(tokens[i : i + 4]) for i in range(0, 16, 4)]
        )
        np.testing.assert_allclose(chunked, full, atol=1e-4)

    def test_context_length_tracking(self, tiny_model):
        tiny_model.reset_cache()
        tiny_model.prefill(np.arange(5))
        assert tiny_model.context_length == 5
        tiny_model.decode_step(1)
        assert tiny_model.context_length == 6

    def test_max_seq_len_enforced(self, tiny_model):
        tiny_model.reset_cache()
        with pytest.raises(ValueError):
            tiny_model.prefill(np.zeros(tiny_model.config.max_seq_len + 1, dtype=np.int64))
        tiny_model.reset_cache()

    def test_empty_input_rejected(self, tiny_model):
        tiny_model.reset_cache()
        with pytest.raises(Exception):
            tiny_model.forward(np.zeros(0, dtype=np.int64))

    def test_deterministic_across_instances(self, tiny_config):
        tokens = np.arange(8)
        a = build_model(tiny_config, seed=3).prefill(tokens)
        b = build_model(tiny_config, seed=3).prefill(tokens)
        np.testing.assert_array_equal(a, b)
        c = build_model(tiny_config, seed=4).prefill(tokens)
        assert not np.allclose(a, c)

    def test_gqa_alibi_model_runs(self, gqa_model):
        gqa_model.reset_cache()
        logits = gqa_model.prefill(np.arange(10))
        assert logits.shape == (10, gqa_model.config.vocab_size)
        assert np.isfinite(logits).all()


class TestGeneration:
    def test_greedy_deterministic(self, tiny_model):
        prompt = np.arange(6)
        a = tiny_model.generate(prompt, 5, seed=0)
        b = tiny_model.generate(prompt, 5, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_length_and_range(self, tiny_model):
        out = tiny_model.generate(np.arange(4), 7, sampler=TemperatureSampler(1.0), seed=0)
        assert out.shape == (7,)
        assert (out >= 0).all() and (out < tiny_model.config.vocab_size).all()

    def test_stop_token(self, tiny_model):
        prompt = np.arange(4)
        greedy_first = int(tiny_model.generate(prompt, 1, seed=0)[0])
        out = tiny_model.generate(prompt, 10, stop_token=greedy_first, seed=0)
        assert out.size == 1 and int(out[0]) == greedy_first

    def test_zero_tokens(self, tiny_model):
        assert tiny_model.generate(np.arange(4), 0).size == 0

    def test_no_forward_for_the_last_token(self, tiny_model, monkeypatch):
        """One prefill and one decode step per token but the last."""
        calls = []
        traverse = tiny_model.forward_segments

        def counting(segments, prof=NULL_PROFILER):
            calls.append(len(segments))
            return traverse(segments, prof)

        monkeypatch.setattr(tiny_model, "forward_segments", counting)
        prompt = np.arange(6)
        out = tiny_model.generate(prompt, 5)
        assert out.size == 5
        assert calls == [1] * 5
        assert tiny_model.context_length == prompt.size + 5 - 1
        calls.clear()
        out = tiny_model.generate(prompt, 10, stop_token=int(out[0]))
        assert out.size == 1 and calls == [1]

    def test_generation_respects_max_seq_len(self, tiny_config):
        short = ModelConfig(**{**tiny_config.to_dict(), "max_seq_len": 10, "name": "short"})
        model = build_model(short, seed=0)
        out = model.generate(np.arange(8), 10)
        assert out.size <= 2


class TestSamplers:
    def test_greedy_argmax(self):
        logits = np.asarray([0.1, 5.0, -2.0])
        assert sample_token(logits, GreedySampler()) == 1

    def test_topk_restricts_support(self):
        logits = np.asarray([10.0, 9.5, -50.0, -50.0])
        rng_samples = {sample_token(logits, TopKSampler(2), seed=s) for s in range(20)}
        assert rng_samples <= {0, 1}

    def test_topp_extreme_p_is_greedy(self):
        logits = np.asarray([3.0, 0.0, -1.0])
        assert sample_token(logits, TopPSampler(p=1e-6)) == 0

    def test_temperature_validation(self):
        with pytest.raises(Exception):
            TemperatureSampler(0.0)
        with pytest.raises(Exception):
            TopKSampler(0)
        with pytest.raises(Exception):
            TopPSampler(0.0)


class TestModelZoo:
    def test_all_models_load_and_run(self):
        for name in available_models():
            model = load_model(name, seed=0)
            logits = model.prefill(np.arange(6))
            assert logits.shape == (6, model.config.vocab_size)
            assert np.isfinite(logits).all()

    def test_roster_covers_table_one(self):
        roster = model_roster()
        assert len(roster) == 5
        positional = {entry.positional for entry in roster}
        assert "Absolute" in positional and "ALiBi" in positional

    def test_unknown_model_rejected(self):
        with pytest.raises(Exception):
            load_model("gpt-17")

    def test_max_seq_len_override(self):
        model = load_model("llama-2-7b-tiny", max_seq_len=128)
        assert model.config.max_seq_len == 128

    def test_outlier_spec_changes_keys(self):
        tokens = np.arange(16)
        plain = load_model("llama-2-7b-tiny", seed=0, outlier_spec=OutlierSpec(key_channel_scale=1.0))
        spiky = load_model("llama-2-7b-tiny", seed=0, outlier_spec=OutlierSpec(key_channel_scale=8.0))
        assert not np.allclose(plain.prefill(tokens), spiky.prefill(tokens))


class TestContextSaveRestore:
    def test_save_restore_roundtrip(self, tiny_model, test_tokens):
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        tiny_model.prefill(test_tokens[:12])
        saved = tiny_model.save_context()
        assert saved.next_position == 12
        fresh = tiny_model.fresh_context()
        tiny_model.restore_context(fresh)
        assert tiny_model.context_length == 0
        tiny_model.restore_context(saved)
        assert tiny_model.context_length == 12
        assert tiny_model.caches is saved.caches

    def test_temporary_context_restores_state_and_factory(self, tiny_model, test_tokens):
        factory = FullPrecisionCacheFactory()
        tiny_model.reset_cache(factory)
        tiny_model.prefill(test_tokens[:10])
        caches_before = tiny_model.caches
        with tiny_model.temporary_context(FullPrecisionCacheFactory(bytes_per_value=4.0)):
            assert tiny_model.context_length == 0
            tiny_model.prefill(test_tokens[:20])
            assert tiny_model.context_length == 20
        assert tiny_model.caches is caches_before
        assert tiny_model.context_length == 10
        assert tiny_model.cache_factory is factory

    def test_temporary_context_restores_on_error(self, tiny_model, test_tokens):
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        tiny_model.prefill(test_tokens[:8])
        saved_caches = tiny_model.caches
        with pytest.raises(ValueError):
            with tiny_model.temporary_context():
                raise ValueError("boom")
        assert tiny_model.caches is saved_caches
        assert tiny_model.context_length == 8

    def test_contexts_isolate_independent_sequences(self, tiny_model, test_tokens):
        """Two contexts swapped through one model generate independently."""
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        first = tiny_model.fresh_context()
        second = tiny_model.fresh_context()
        outer = tiny_model.save_context()
        tiny_model.restore_context(first)
        logits_first = tiny_model.prefill(test_tokens[:6])
        first = tiny_model.save_context()
        tiny_model.restore_context(second)
        tiny_model.prefill(test_tokens[6:30])
        tiny_model.restore_context(first)
        np.testing.assert_array_equal(
            tiny_model.forward(test_tokens[6:7])[0].shape,
            (tiny_model.config.vocab_size,),
        )
        assert first.caches is not second.caches
        tiny_model.restore_context(outer)
