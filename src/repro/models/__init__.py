"""NumPy transformer substrate: configs, layers, caches and the model zoo."""

from repro.models.attention import AttentionBlock
from repro.models.attention_math import (
    attention_scores,
    causal_score_mask,
    dense_attention,
    gqa_context,
    gqa_scores,
)
from repro.models.config import ModelConfig
from repro.models.kv_cache import (
    FullPrecisionCacheFactory,
    FullPrecisionKVCacheLayer,
    KVCacheFactory,
    KVCacheLayer,
)
from repro.models.linear import Embedding, Linear
from repro.models.model_zoo import (
    MODEL_ZOO,
    ModelRosterEntry,
    available_models,
    get_model_config,
    load_model,
    model_roster,
)
from repro.models.positional import (
    RotaryEmbedding,
    alibi_bias,
    alibi_slopes,
    rope_frequencies,
    yarn_attention_scale,
    yarn_frequencies,
)
from repro.models.sampling import GreedySampler, TemperatureSampler
from repro.models.tensor_ops import (
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    rms_norm,
    silu,
    softmax,
)
from repro.models.tokenizer import ByteTokenizer
from repro.models.transformer import (
    FeedForward,
    ModelContext,
    Norm,
    TransformerBlock,
    TransformerLM,
)
from repro.models.weights import OutlierSpec, build_model

__all__ = [
    "AttentionBlock",
    "attention_scores",
    "causal_score_mask",
    "dense_attention",
    "gqa_context",
    "gqa_scores",
    "ModelConfig",
    "FullPrecisionCacheFactory",
    "FullPrecisionKVCacheLayer",
    "KVCacheFactory",
    "KVCacheLayer",
    "Embedding",
    "Linear",
    "MODEL_ZOO",
    "ModelRosterEntry",
    "available_models",
    "get_model_config",
    "load_model",
    "model_roster",
    "RotaryEmbedding",
    "alibi_bias",
    "alibi_slopes",
    "rope_frequencies",
    "yarn_attention_scale",
    "yarn_frequencies",
    "GreedySampler",
    "TemperatureSampler",
    "cross_entropy",
    "gelu",
    "layer_norm",
    "log_softmax",
    "rms_norm",
    "silu",
    "softmax",
    "ByteTokenizer",
    "FeedForward",
    "ModelContext",
    "Norm",
    "TransformerBlock",
    "TransformerLM",
    "OutlierSpec",
    "build_model",
]
