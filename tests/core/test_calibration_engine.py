"""Tests for offline calibration and the engine."""

import numpy as np
import pytest

from repro.core import (
    MillionConfig,
    MillionEngine,
    calibrate_kvquant,
    collect_kv_samples,
    train_kvquant_quantizers,
    train_million_quantizers,
)
from repro.core.million_cache import MillionKVCacheLayer
from repro.models.kv_cache import FullPrecisionCacheFactory, FullPrecisionKVCacheLayer


class TestKVSampleCollection:
    def test_sample_counts_and_shapes(self, tiny_model, calibration_tokens, kv_samples):
        config = tiny_model.config
        for layer in range(config.n_layers):
            assert kv_samples.sample_count(layer) > 0
            key_vectors = kv_samples.key_vectors(layer)
            assert key_vectors.shape[1] == config.head_dim
            key_channels = kv_samples.key_channels(layer)
            assert key_channels.shape[1] == config.kv_dim

    def test_collection_restores_model_state(self, tiny_model, calibration_tokens):
        tiny_model.reset_cache(FullPrecisionCacheFactory())
        collect_kv_samples(tiny_model, calibration_tokens[:64], chunk_size=32)
        assert tiny_model.context_length == 0
        assert not tiny_model.kv_observers
        assert isinstance(tiny_model.caches[0], FullPrecisionKVCacheLayer)

    def test_multiple_streams(self, tiny_model):
        streams = [np.arange(40) % 128, np.arange(40, 120) % 128]
        collector = collect_kv_samples(tiny_model, streams, chunk_size=16)
        assert collector.sample_count(0) == 120 * tiny_model.config.kv_heads

    def test_subsampling_cap(self, tiny_model, calibration_tokens):
        collector = collect_kv_samples(
            tiny_model, calibration_tokens, chunk_size=64, max_samples_per_layer=50
        )
        assert collector.key_vectors(0).shape[0] == 50


class TestQuantizerTraining:
    def test_million_quantizers_cover_layers(self, kv_samples, million_config, tiny_model):
        quantizers = train_million_quantizers(kv_samples, million_config)
        assert set(quantizers) == set(range(tiny_model.config.n_layers))
        key_pq, value_pq = quantizers[0]
        assert key_pq.dim == tiny_model.config.head_dim
        assert key_pq.m_subspaces == million_config.m_subspaces

    def test_kvquant_quantizers_fitted(self, kv_samples, tiny_model):
        quantizers = train_kvquant_quantizers(kv_samples, nbits=4)
        assert all(q.is_fitted for q in quantizers.values())

    def test_kvquant_factory_end_to_end(self, tiny_model, calibration_tokens, test_tokens):
        factory = calibrate_kvquant(
            tiny_model, calibration_tokens, nbits=4, max_samples_per_layer=512
        )
        tiny_model.reset_cache(factory)
        logits = np.concatenate(
            [tiny_model.forward(test_tokens[i : i + 32]) for i in range(0, 128, 32)]
        )
        assert np.isfinite(logits).all()
        tiny_model.reset_cache(FullPrecisionCacheFactory())


class TestMillionEngine:
    @pytest.fixture(scope="class")
    def engine(self, tiny_model, calibration_tokens, million_config):
        return MillionEngine.calibrate(tiny_model, calibration_tokens, million_config)

    def test_generation_runs_and_is_deterministic(self, engine, test_tokens):
        out_a = engine.generate(test_tokens[:48], max_new_tokens=8)
        out_b = engine.generate(test_tokens[:48], max_new_tokens=8)
        np.testing.assert_array_equal(out_a, out_b)
        assert out_a.shape == (8,)

    def test_prefill_then_decode(self, engine, test_tokens):
        engine.reset()
        logits = engine.prefill(test_tokens[:32])
        assert logits.shape == (32, engine.model.config.vocab_size)
        step = engine.decode_step(int(test_tokens[32]))
        assert step.shape == (engine.model.config.vocab_size,)

    def test_cache_stats(self, engine, test_tokens):
        engine.reset()
        engine.prefill(test_tokens[:64])
        engine.decode_step(3)
        stats = engine.cache_stats()
        assert stats.context_length == 65
        assert stats.quantized_tokens + stats.recent_tokens == 65
        assert stats.fp16_memory_bytes > 0
        assert stats.compression_ratio > 0

    def test_caches_are_million_layers(self, engine):
        assert all(isinstance(c, MillionKVCacheLayer) for c in engine.model.caches)

    def test_quantization_changes_logits_only_for_older_tokens(self, engine, test_tokens):
        """Within one prefill block nothing is quantized yet, so logits match fp16."""
        engine.reset()
        quantized = engine.prefill(test_tokens[:16])
        engine.reset()
        baseline = engine.baseline_logits(test_tokens[:16])
        np.testing.assert_allclose(quantized, baseline, atol=1e-4)

    def test_quantized_decode_diverges_but_stays_close(self, engine, test_tokens):
        engine.reset()
        engine.prefill(test_tokens[:64])
        quantized = engine.decode_step(int(test_tokens[64]))
        engine.reset()
        reference = engine.baseline_logits(test_tokens[:65])[-1]
        assert not np.allclose(quantized, reference)
        corr = np.corrcoef(quantized, reference)[0, 1]
        assert corr > 0.98

    def test_baseline_logits_leaves_context_and_factory_untouched(self, engine, test_tokens):
        """baseline_logits must not disturb the live caches, position or factory."""
        engine.reset()
        engine.prefill(test_tokens[:24])
        caches_before = engine.model.caches
        position_before = engine.model.context_length
        factory_before = engine.model.cache_factory
        engine.baseline_logits(test_tokens[:16])
        assert engine.model.caches is caches_before
        assert engine.model.context_length == position_before
        assert engine.model.cache_factory is factory_before

    def test_default_config_choice(self, tiny_model, calibration_tokens):
        engine = MillionEngine.calibrate(tiny_model, calibration_tokens[:128])
        assert engine.million_config.bits_per_value(tiny_model.config.head_dim) == pytest.approx(4.0)
