"""Quantization substrates and baseline KV-cache schemes (KIVI/KVQuant-like)."""

from repro.models.kv_cache import DequantizingKVCache, StreamingQuantizedKVCache
from repro.quant.cache_adapters import (
    KiviCacheFactory,
    KiviKVCache,
    KVQuantCacheFactory,
    KVQuantKVCache,
)
from repro.quant.integer import (
    UniformQuantized,
    UniformQuantParams,
    dequantize_uniform,
    quantize_uniform,
)
from repro.quant.kivi import KiviConfig, KiviQuantizer
from repro.quant.kmeans import KMeansResult, kmeans, kmeans_batch
from repro.quant.kvquant import KVQuantEncodedBlock, KVQuantQuantizer
from repro.quant.nuq import NonUniformQuantizer1D
from repro.quant.outliers import (
    SparseOutliers,
    outlier_threshold,
    split_outliers,
)
# Policy-layer exports resolve lazily (PEP 562): repro.quant is imported by
# repro.core.codebook during repro.core's own initialization, and the policy
# modules import from repro.core — an eager import here would be circular.
_POLICY_EXPORTS = {
    "DEFAULT_LADDER": "repro.quant.policy",
    "HeadAssignment": "repro.quant.policy",
    "HeadSensitivity": "repro.quant.policy",
    "QuantPolicy": "repro.quant.policy",
    "derive_policy": "repro.quant.policy",
    "measure_head_sensitivity": "repro.quant.policy",
    "million_variant": "repro.quant.policy",
    "HeadGroupKVCache": "repro.quant.policy_cache",
    "PolicyCacheFactory": "repro.quant.policy_cache",
    "head_subset_config": "repro.quant.policy_cache",
}


def __getattr__(name):
    module_name = _POLICY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

__all__ = [
    "DequantizingKVCache",
    "KiviCacheFactory",
    "KiviKVCache",
    "KVQuantCacheFactory",
    "KVQuantKVCache",
    "StreamingQuantizedKVCache",
    "UniformQuantized",
    "UniformQuantParams",
    "dequantize_uniform",
    "quantize_uniform",
    "KiviConfig",
    "KiviQuantizer",
    "KMeansResult",
    "kmeans",
    "kmeans_batch",
    "KVQuantEncodedBlock",
    "KVQuantQuantizer",
    "NonUniformQuantizer1D",
    "SparseOutliers",
    "outlier_threshold",
    "split_outliers",
    "DEFAULT_LADDER",
    "HeadAssignment",
    "HeadSensitivity",
    "QuantPolicy",
    "derive_policy",
    "measure_head_sensitivity",
    "million_variant",
    "HeadGroupKVCache",
    "PolicyCacheFactory",
    "head_subset_config",
]
