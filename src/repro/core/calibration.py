"""Offline calibration: sample KV caches and train quantizers (Fig. 4a).

The workflow mirrors the paper: run the model at full precision on a short
calibration stream, sample the key/value vectors each layer produces, and fit
the per-layer quantizers (PQ codebooks for MILLION, non-uniform codebooks for
the KVQuant-like baseline) on those samples.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Sequence

import numpy as np

from repro.core import codebook_cache
from repro.core.config import MillionConfig
from repro.core.million_cache import MillionCacheFactory
from repro.core.pq import ProductQuantizer
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.models.transformer import TransformerLM
from repro.quant.cache_adapters import KVQuantCacheFactory
from repro.quant.kvquant import KVQuantQuantizer
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, derive_seed, get_rng
from repro.utils.validation import require

logger = get_logger("calibration")


class KVSampleCollector:
    """Observer that accumulates per-layer key/value samples during inference."""

    def __init__(self, n_layers: int, max_samples_per_layer: int = 8192, seed: SeedLike = 0) -> None:
        require(n_layers >= 1, "n_layers must be >= 1")
        require(max_samples_per_layer >= 1, "max_samples_per_layer must be >= 1")
        self.n_layers = n_layers
        self.max_samples_per_layer = max_samples_per_layer
        self._rng = get_rng(seed)
        self._keys: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self._values: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self._counts = np.zeros(n_layers, dtype=np.int64)

    def __call__(self, layer_index: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Record one layer's new KV block of shape ``(t, kv_heads, head_dim)``."""
        if not 0 <= layer_index < self.n_layers:
            raise IndexError(f"layer_index {layer_index} out of range")
        self._keys[layer_index].append(np.asarray(keys, dtype=np.float32))
        self._values[layer_index].append(np.asarray(values, dtype=np.float32))
        self._counts[layer_index] += keys.shape[0] * keys.shape[1]

    def sample_count(self, layer_index: int) -> int:
        """Number of per-head vectors collected so far for ``layer_index``."""
        return int(self._counts[layer_index])

    def _stacked(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        require(len(blocks) > 0, "no samples collected for this layer")
        return np.concatenate(blocks, axis=0)

    def _subsample(self, vectors: np.ndarray) -> np.ndarray:
        if vectors.shape[0] <= self.max_samples_per_layer:
            return vectors
        idx = self._rng.choice(
            vectors.shape[0], size=self.max_samples_per_layer, replace=False
        )
        return vectors[idx]

    # Layouts ------------------------------------------------------------------

    def key_vectors(self, layer_index: int) -> np.ndarray:
        """Per-head key vectors ``(n, head_dim)`` pooled across heads (PQ layout)."""
        stacked = self._stacked(self._keys[layer_index])
        return self._subsample(stacked.reshape(-1, stacked.shape[-1]))

    def value_vectors(self, layer_index: int) -> np.ndarray:
        """Per-head value vectors ``(n, head_dim)`` pooled across heads (PQ layout)."""
        stacked = self._stacked(self._values[layer_index])
        return self._subsample(stacked.reshape(-1, stacked.shape[-1]))

    def key_channels(self, layer_index: int) -> np.ndarray:
        """Per-token key rows ``(tokens, kv_heads * head_dim)`` (channel layout)."""
        stacked = self._stacked(self._keys[layer_index])
        return self._subsample(stacked.reshape(stacked.shape[0], -1))

    def value_channels(self, layer_index: int) -> np.ndarray:
        """Per-token value rows ``(tokens, kv_heads * head_dim)`` (channel layout)."""
        stacked = self._stacked(self._values[layer_index])
        return self._subsample(stacked.reshape(stacked.shape[0], -1))

    def key_matrix(self, layer_index: int, max_tokens: int | None = None) -> np.ndarray:
        """Keys ``(tokens, kv_heads, head_dim)`` with head structure intact.

        Deterministic (first ``max_tokens`` tokens, no rng draw) so per-head
        consumers — sensitivity scoring, per-group quantizer fits — see the
        same samples no matter how often or in what order they are called.
        """
        stacked = self._stacked(self._keys[layer_index])
        return stacked if max_tokens is None else stacked[:max_tokens]

    def value_matrix(self, layer_index: int, max_tokens: int | None = None) -> np.ndarray:
        """Values ``(tokens, kv_heads, head_dim)`` with head structure intact."""
        stacked = self._stacked(self._values[layer_index])
        return stacked if max_tokens is None else stacked[:max_tokens]


def collect_kv_samples(
    model: TransformerLM,
    calibration_tokens: np.ndarray | Iterable[np.ndarray],
    chunk_size: int = 256,
    max_samples_per_layer: int = 8192,
    seed: SeedLike = 0,
) -> KVSampleCollector:
    """Run full-precision inference over calibration text and collect KV samples.

    ``calibration_tokens`` is either a single token stream or an iterable of
    streams; each stream is processed with a fresh full-precision cache.
    """
    require(chunk_size >= 1, "chunk_size must be >= 1")
    if isinstance(calibration_tokens, np.ndarray):
        streams: list[np.ndarray] = [calibration_tokens]
    else:
        streams = [np.asarray(s) for s in calibration_tokens]
    require(len(streams) > 0, "calibration_tokens must contain at least one stream")
    collector = KVSampleCollector(
        model.config.n_layers, max_samples_per_layer=max_samples_per_layer, seed=seed
    )
    previous_factory = model.cache_factory
    model.kv_observers.append(collector)
    try:
        for stream in streams:
            stream = np.asarray(stream, dtype=np.int64).reshape(-1)
            limit = min(stream.size, model.config.max_seq_len - 1)
            stream = stream[:limit]
            model.reset_cache(FullPrecisionCacheFactory())
            for start in range(0, stream.size, chunk_size):
                model.forward(stream[start : start + chunk_size])
    finally:
        model.kv_observers.remove(collector)
        model.reset_cache(previous_factory)
    return collector


def train_million_quantizers(
    collector: KVSampleCollector,
    million_config: MillionConfig,
) -> dict[int, tuple[ProductQuantizer, ProductQuantizer]]:
    """Fit per-layer (key, value) product quantizers from collected samples."""
    quantizers: dict[int, tuple[ProductQuantizer, ProductQuantizer]] = {}
    for layer in range(collector.n_layers):
        key_seed = derive_seed(million_config.seed, "million-key", layer)
        value_seed = derive_seed(million_config.seed, "million-value", layer)
        key_pq = ProductQuantizer.fit(
            collector.key_vectors(layer),
            million_config.m_subspaces,
            million_config.nbits,
            kmeans_iters=million_config.kmeans_iters,
            seed=key_seed,
            max_samples=million_config.calibration_samples,
        )
        value_pq = ProductQuantizer.fit(
            collector.value_vectors(layer),
            million_config.m_subspaces,
            million_config.nbits,
            kmeans_iters=million_config.kmeans_iters,
            seed=value_seed,
            max_samples=million_config.calibration_samples,
        )
        quantizers[layer] = (key_pq, value_pq)
    return quantizers


def calibrate_million(
    model: TransformerLM,
    calibration_tokens: np.ndarray | Iterable[np.ndarray],
    million_config: MillionConfig,
    chunk_size: int = 256,
    cache_dir: str | os.PathLike | None = None,
) -> MillionCacheFactory:
    """End-to-end offline phase: sample KV, train codebooks, return the factory.

    ``cache_dir`` names a directory of the content-addressed codebook cache
    (:mod:`repro.core.codebook_cache`): codebooks trained on exactly these
    inputs before are loaded from it instead of retrained, and fresh ones
    are stored in it.  ``None`` or ``''`` trains without the cache.  Either
    way one log line says which happened and how long it took.
    """
    start = time.perf_counter()
    million_config.validate_for_model(model.config)
    if isinstance(calibration_tokens, np.ndarray):
        streams = [calibration_tokens]
    else:
        streams = [np.asarray(s) for s in calibration_tokens]
    path = None
    if cache_dir:
        key = codebook_cache.cache_key(model, streams, million_config, chunk_size)
        path = codebook_cache.entry_path(cache_dir, key)
        shape = (
            model.config.n_layers,
            million_config.m_subspaces,
            million_config.n_centroids,
            million_config.subspace_dim(model.config.head_dim),
        )
        quantizers = codebook_cache.read_entry(path, key, shape)
        if quantizers is not None:
            logger.info(
                "codebook cache hit: loaded %s in %.2f s", path, time.perf_counter() - start
            )
            return MillionCacheFactory(quantizers, million_config)
    collector = collect_kv_samples(
        model,
        streams,
        chunk_size=chunk_size,
        max_samples_per_layer=million_config.calibration_samples,
        seed=million_config.seed,
    )
    quantizers = train_million_quantizers(collector, million_config)
    if path is None:
        stored = "codebook cache off"
    elif codebook_cache.write_entry(path, key, quantizers):
        stored = f"stored {path}"
    else:
        stored = "not stored"
    logger.info(
        "calibrated MILLION codebooks in %.2f s (%s)", time.perf_counter() - start, stored
    )
    return MillionCacheFactory(quantizers, million_config)


def train_kvquant_quantizers(
    collector: KVSampleCollector,
    nbits: int,
    outlier_fraction: float = 0.0,
    seed: SeedLike = 0,
) -> dict[int, KVQuantQuantizer]:
    """Fit per-layer KVQuant-like quantizers from collected samples."""
    quantizers: dict[int, KVQuantQuantizer] = {}
    for layer in range(collector.n_layers):
        quantizer = KVQuantQuantizer(
            nbits=nbits,
            outlier_fraction=outlier_fraction,
            seed=derive_seed(seed, "kvquant", layer),
        )
        quantizer.fit(collector.key_channels(layer), collector.value_channels(layer))
        quantizers[layer] = quantizer
    return quantizers


def calibrate_kvquant(
    model: TransformerLM,
    calibration_tokens: np.ndarray | Iterable[np.ndarray],
    nbits: int,
    outlier_fraction: float = 0.0,
    residual_window: int = 0,
    chunk_size: int = 256,
    max_samples_per_layer: int = 4096,
    seed: SeedLike = 0,
) -> KVQuantCacheFactory:
    """Offline calibration for the KVQuant-like baseline."""
    collector = collect_kv_samples(
        model,
        calibration_tokens,
        chunk_size=chunk_size,
        max_samples_per_layer=max_samples_per_layer,
        seed=seed,
    )
    quantizers = train_kvquant_quantizers(
        collector, nbits, outlier_fraction=outlier_fraction, seed=seed
    )
    return KVQuantCacheFactory(quantizers, residual_window=residual_window)


# Mixed-precision policies ----------------------------------------------------
#
# The policy modules are imported lazily inside these functions: this module
# is part of ``repro.core.__init__``, and ``repro.quant.policy_cache``
# imports the core cache stack — a top-level import here would complete the
# cycle during package init.


def measure_sensitivity(
    collector: KVSampleCollector,
    max_tokens: int = 2048,
    **kwargs,
):
    """Score per-(layer, head) quantization sensitivity from collected samples.

    Thin bridge between :class:`KVSampleCollector` and
    :func:`repro.quant.policy.measure_head_sensitivity`; ``kwargs`` pass
    through (``probe_bits``, ``outlier_fraction``, ``kmeans_iters``, ...).
    """
    from repro.quant.policy import measure_head_sensitivity

    keys = [collector.key_matrix(layer, max_tokens) for layer in range(collector.n_layers)]
    values = [
        collector.value_matrix(layer, max_tokens) for layer in range(collector.n_layers)
    ]
    return measure_head_sensitivity(keys, values, **kwargs)

