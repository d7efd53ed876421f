"""Cross-module integration tests.

These exercise full pipelines — calibration on one model family, inference
under every cache scheme, the engine, the perf model and the evaluation
harness working together — rather than single modules.
"""

import numpy as np
import pytest

from repro.core import MillionConfig, MillionEngine, calibrate_million
from repro.data import load_corpus
from repro.eval import (
    build_cache_factory,
    compute_perplexity,
    evaluate_task,
    logit_fidelity,
    longbench_tasks,
)
from repro.models import available_models, load_model
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.perf import LLAMA_2_7B, MILLION_4BIT, estimate_tpot, kv_cache_bytes


@pytest.mark.parametrize("model_name", available_models())
def test_million_runs_on_every_zoo_model(model_name):
    """Calibrate + decode with MILLION on every positional-embedding family."""
    model = load_model(model_name, seed=0, max_seq_len=512)
    calibration = load_corpus("wikitext2-syn", "train", 192) % model.config.vocab_size
    config = MillionConfig.for_equivalent_bits(
        model.config.head_dim, bits=4, kmeans_iters=3, calibration_samples=384
    )
    engine = MillionEngine.calibrate(model, calibration, config)
    prompt = load_corpus("wikitext2-syn", "test", 48) % model.config.vocab_size
    generated = engine.generate(prompt, max_new_tokens=4)
    assert generated.shape == (4,)
    stats = engine.cache_stats()
    assert stats.context_length == 48 + 4 - 1
    assert stats.quantized_tokens > 0


def test_gqa_model_with_million_matches_dequantized_reference(gqa_model, gqa_config):
    """MILLION's ADC path must agree with explicit dequantization under GQA."""
    calibration = load_corpus("wikitext2-syn", "train", 256) % gqa_config.vocab_size
    config = MillionConfig.for_equivalent_bits(
        gqa_config.head_dim, bits=4, kmeans_iters=3, calibration_samples=512
    )
    factory = calibrate_million(gqa_model, calibration, config)
    test = load_corpus("wikitext2-syn", "test", 96) % gqa_config.vocab_size
    gqa_model.reset_cache(factory)
    logits_chunks = [gqa_model.forward(test[i : i + 16]) for i in range(0, 96, 16)]
    logits = np.concatenate(logits_chunks)
    assert np.isfinite(logits).all()
    fidelity = logit_fidelity(gqa_model, test, factory, chunk_size=16)
    assert fidelity.top1_agreement > 0.3
    gqa_model.reset_cache(FullPrecisionCacheFactory())


def test_perplexity_window_excludes_reset_positions(tiny_model, test_tokens):
    full = compute_perplexity(tiny_model, test_tokens[:128], chunk_size=16)
    windowed = compute_perplexity(tiny_model, test_tokens[:128], chunk_size=16, window=64)
    assert windowed.n_tokens < full.n_tokens
    assert np.isfinite(windowed.perplexity)


def test_windowed_context_matters(tiny_model, test_tokens):
    """Shrinking the usable context must not reduce perplexity dramatically."""
    long_ctx = compute_perplexity(tiny_model, test_tokens[:192], chunk_size=16, window=192)
    short_ctx = compute_perplexity(tiny_model, test_tokens[:192], chunk_size=16, window=16)
    assert short_ctx.perplexity > 0.8 * long_ctx.perplexity


def test_engine_cache_memory_consistent_with_perf_model(tiny_model, million_factory):
    """The measured code footprint tracks the analytic per-token estimate."""
    engine = MillionEngine(tiny_model, million_factory)
    tokens = load_corpus("wikitext2-syn", "test", 256) % tiny_model.config.vocab_size
    engine.reset()
    for start in range(0, 256, 64):
        engine.prefill(tokens[start : start + 64]) if start == 0 else engine.model.forward(
            tokens[start : start + 64]
        )
    stats = engine.cache_stats()
    config = tiny_model.config
    bits = million_factory.bits_per_value(config.head_dim)
    expected_code_bytes = stats.quantized_tokens * 2 * config.kv_dim * bits / 8 * config.n_layers
    expected_recent_bytes = stats.recent_tokens * 2 * config.kv_dim * 2.0 * config.n_layers
    codebook_bytes = sum(
        cache.key_pq.codebook_memory_bytes() + cache.value_pq.codebook_memory_bytes()
        for cache in engine.model.caches
    )
    measured_data_bytes = stats.memory_bytes - codebook_bytes
    assert measured_data_bytes == pytest.approx(
        expected_code_bytes + expected_recent_bytes, rel=0.25
    )
    tiny_model.reset_cache(FullPrecisionCacheFactory())


def test_perf_and_functional_compression_agree():
    """The perf model's 4x KV shrink matches the functional cache's bit budget."""
    fp16 = kv_cache_bytes(LLAMA_2_7B, MILLION_4BIT, 1024) / kv_cache_bytes(
        LLAMA_2_7B, MILLION_4BIT.with_updates(kv_bits=16.0, codebook_bytes_per_layer=0.0), 1024
    )
    config = MillionConfig.for_equivalent_bits(128, 4)
    assert fp16 == pytest.approx(config.bits_per_value(128) / 16.0, rel=0.1)


def test_longbench_task_under_quantized_cache(tiny_model, million_factory):
    task = longbench_tasks(context_length=192)["passage_retrieval_en"]
    result = evaluate_task(
        tiny_model, task, million_factory, n_examples=1, seed=2, scheme_name="million-4b"
    )
    assert 0.0 <= result.score <= 100.0
    tiny_model.reset_cache(FullPrecisionCacheFactory())


def test_scheme_factories_are_reusable_across_contexts(tiny_model, calibration_tokens):
    """A calibrated factory can be reused for many independent generations."""
    factory = build_cache_factory(
        "million-4b", tiny_model, calibration_tokens, kmeans_iters=3, calibration_samples=512
    )
    outputs = []
    for start in (0, 32, 64):
        tiny_model.reset_cache(factory)
        prompt = calibration_tokens[start : start + 24]
        logits = tiny_model.prefill(prompt)
        outputs.append(np.argmax(logits[-1]))
    assert len(outputs) == 3
    tiny_model.reset_cache(FullPrecisionCacheFactory())


def test_perf_model_tpot_monotone_in_context():
    previous = 0.0
    for prefill in (1024, 4096, 16384, 65536):
        result = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, prefill)
        assert not result.oom
        assert result.tpot_ms > previous
        previous = result.tpot_ms
