"""Shared fixtures: tiny configs, models and calibrated quantizers.

The expensive fixtures (calibrated MILLION / KVQuant factories) are session
scoped so the whole suite stays fast; tests must not mutate them in place
(resetting a model's cache with a fixture factory is fine).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.core import MillionConfig, calibrate_million, collect_kv_samples
from repro.core.calibration import measure_sensitivity, train_million_quantizers
from repro.core.million_cache import MillionCacheFactory
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.models.weights import OutlierSpec
from repro.quant.policy import QuantPolicy, derive_policy, million_variant


_codebook_cache_dir: list[str] = []


def pytest_configure(config):
    """Point the default codebook cache at a directory of this session.

    Set before collection, so every gateway build and every subprocess the
    suite starts uses it; the suite never writes to the user's cache.
    """
    directory = tempfile.mkdtemp(prefix="repro-codebook-cache-")
    _codebook_cache_dir.append(directory)
    os.environ["REPRO_CACHE_DIR"] = directory


def pytest_unconfigure(config):
    for directory in _codebook_cache_dir:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    """Small RoPE model used by most unit tests."""
    return ModelConfig(
        name="test-tiny",
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=2,
        max_seq_len=512,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    """Deterministic tiny model with the default outlier structure."""
    return build_model(tiny_config, seed=7)


@pytest.fixture(scope="session")
def gqa_config() -> ModelConfig:
    """GQA + ALiBi model exercising the non-default attention paths."""
    return ModelConfig(
        name="test-gqa-alibi",
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=4,
        n_kv_heads=2,
        max_seq_len=256,
        positional="alibi",
        norm="layernorm",
        activation="gelu",
    )


@pytest.fixture(scope="session")
def gqa_model(gqa_config):
    return build_model(gqa_config, seed=11)


@pytest.fixture(scope="session")
def calibration_tokens(tiny_config) -> np.ndarray:
    # The synthetic corpora use a 512-token vocabulary; fold into the tiny
    # model's vocabulary while keeping the sequential structure.
    return load_corpus("wikitext2-syn", "train", n_tokens=384, seed=5) % tiny_config.vocab_size


@pytest.fixture(scope="session")
def test_tokens(tiny_config) -> np.ndarray:
    return load_corpus("wikitext2-syn", "test", n_tokens=256, seed=6) % tiny_config.vocab_size


@pytest.fixture(scope="session")
def million_config(tiny_config) -> MillionConfig:
    return MillionConfig.for_equivalent_bits(
        tiny_config.head_dim, bits=4, kmeans_iters=4, calibration_samples=768
    )


@pytest.fixture(scope="session")
def million_factory(tiny_model, calibration_tokens, million_config):
    """Calibrated MILLION cache factory for the tiny model."""
    return calibrate_million(tiny_model, calibration_tokens, million_config)


@pytest.fixture(scope="session")
def kv_samples(tiny_model, calibration_tokens):
    """Collected KV samples reused by quantizer tests."""
    return collect_kv_samples(
        tiny_model, calibration_tokens, chunk_size=128, max_samples_per_layer=2048
    )


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def mixed_policy(tiny_config, kv_samples):
    """A per-head 4/8-bit policy at 1.5x the uniform 4-bit bytes per token."""
    sensitivity = measure_sensitivity(kv_samples, kmeans_iters=2, max_tokens=512)
    budget = 1.5 * QuantPolicy.uniform(tiny_config, "million", 4).bytes_per_token()
    return derive_policy(tiny_config, sensitivity, budget, schemes=("million",))
