"""Codebooks from the batched k-means equal the per-subspace oracle's bit for bit.

The quantizers are trained on a one-layer model with the benchmark model's
head dimension (64), so every MILLION configuration below has the shape the
serving stack trains: the 4-bit benchmark configuration and the tier rungs
at 2 and 8 bits, each on 1536 calibration vectors with 4 k-means iterations.
"""

import numpy as np
import pytest

import repro.core.pq
from repro.core import MillionConfig, collect_kv_samples, train_million_quantizers
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.quant.policy import million_variant
from support.reference import reference_train_codebooks

CALIBRATION_SAMPLES = 1536


@pytest.fixture(scope="module")
def head_dim_64_samples():
    config = ModelConfig(
        name="test-head-dim-64",
        vocab_size=512,
        d_model=256,
        n_layers=1,
        n_heads=4,
        max_seq_len=512,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    model = build_model(config, seed=3)
    # 384 tokens x 4 heads is exactly the sample budget: the collector then
    # never subsamples, so both trainings below see the same vectors.
    tokens = load_corpus("wikitext2-syn", "train", 384, seed=3) % config.vocab_size
    collector = collect_kv_samples(
        model, tokens, max_samples_per_layer=CALIBRATION_SAMPLES, seed=3
    )
    assert collector.key_vectors(0).shape == (CALIBRATION_SAMPLES, 64)
    return collector


@pytest.mark.parametrize(
    "million",
    [
        MillionConfig.for_equivalent_bits(
            64, 4, kmeans_iters=4, calibration_samples=CALIBRATION_SAMPLES
        ),
        million_variant(64, 2, kmeans_iters=4, calibration_samples=CALIBRATION_SAMPLES),
        million_variant(64, 8, kmeans_iters=4, calibration_samples=CALIBRATION_SAMPLES),
    ],
    ids=["perfbench-4bit", "rung-2bit", "rung-8bit"],
)
def test_million_quantizers_match_oracle(head_dim_64_samples, million, monkeypatch):
    got = train_million_quantizers(head_dim_64_samples, million)
    monkeypatch.setattr(repro.core.pq, "train_codebooks", reference_train_codebooks)
    want = train_million_quantizers(head_dim_64_samples, million)
    assert set(got) == set(want)
    for layer, pair in got.items():
        for got_pq, want_pq in zip(pair, want[layer]):
            np.testing.assert_array_equal(
                got_pq.codebooks.centroids, want_pq.codebooks.centroids
            )
