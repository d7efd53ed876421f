"""MILLION core: product-quantized KV cache, calibration and engine."""

from repro.core.attention_pq import (
    pq_attention_scores,
    pq_weighted_values,
)
from repro.core.calibration import (
    KVSampleCollector,
    calibrate_kvquant,
    calibrate_million,
    collect_kv_samples,
    train_kvquant_quantizers,
    train_million_quantizers,
)
from repro.core.codebook import SubspaceCodebooks, train_codebooks
from repro.core.config import MillionConfig
from repro.core.engine import CacheStats, MillionEngine
from repro.core.million_cache import MillionCacheFactory, MillionKVCacheLayer
from repro.core.pq import ProductQuantizer

__all__ = [
    "pq_attention_scores",
    "pq_weighted_values",
    "KVSampleCollector",
    "calibrate_kvquant",
    "calibrate_million",
    "collect_kv_samples",
    "train_kvquant_quantizers",
    "train_million_quantizers",
    "SubspaceCodebooks",
    "train_codebooks",
    "MillionConfig",
    "CacheStats",
    "MillionEngine",
    "MillionCacheFactory",
    "MillionKVCacheLayer",
    "ProductQuantizer",
]
