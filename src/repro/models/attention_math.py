"""Dense attention helpers shared by every KV-cache implementation.

All full-precision and dequantizing caches funnel through
:func:`dense_attention`; the MILLION cache reuses the masking/bias helpers
and scores its stored tokens with a GEMM over keys it reconstructs
transiently from the PQ codes (see :mod:`repro.core.million_cache`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.positional import alibi_bias
from repro.models.tensor_ops import NEG_INF, softmax


def repeat_kv_heads(kv: np.ndarray, n_query_heads: int) -> np.ndarray:
    """Expand ``(tokens, kv_heads, d)`` to ``(tokens, n_query_heads, d)`` for GQA."""
    kv = np.asarray(kv)
    tokens, kv_heads, d = kv.shape
    if n_query_heads == kv_heads:
        return kv
    if n_query_heads % kv_heads != 0:
        raise ValueError(
            f"n_query_heads {n_query_heads} must be a multiple of kv_heads {kv_heads}"
        )
    group = n_query_heads // kv_heads
    return np.repeat(kv, group, axis=1)


def causal_score_mask(
    query_positions: np.ndarray, key_positions: np.ndarray
) -> np.ndarray:
    """Additive mask ``(n_queries, n_keys)``: 0 where key <= query, -inf otherwise."""
    q = np.asarray(query_positions)[:, None]
    k = np.asarray(key_positions)[None, :]
    return np.where(k <= q, 0.0, NEG_INF).astype(np.float32)


def attention_scores(
    queries: np.ndarray,
    keys: np.ndarray,
    query_positions: np.ndarray,
    key_positions: np.ndarray,
    scale: float,
    alibi_head_slopes: Optional[np.ndarray] = None,
    causal: bool = True,
) -> np.ndarray:
    """Masked, scaled attention logits.

    Parameters
    ----------
    queries:
        ``(n_queries, n_heads, head_dim)``.
    keys:
        ``(n_keys, kv_heads, head_dim)``; expanded to the query head count.
    Returns
    -------
    ``(n_heads, n_queries, n_keys)`` float32 logits with the causal mask and
    optional ALiBi bias already applied.
    """
    queries = np.asarray(queries, dtype=np.float32)
    keys = repeat_kv_heads(np.asarray(keys, dtype=np.float32), queries.shape[1])
    scores = np.einsum("qhd,khd->hqk", queries, keys) * scale
    if alibi_head_slopes is not None:
        scores = scores + alibi_bias(alibi_head_slopes, query_positions, key_positions)
    if causal:
        scores = scores + causal_score_mask(query_positions, key_positions)[None, :, :]
    return scores.astype(np.float32)


def dense_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    query_positions: np.ndarray,
    key_positions: np.ndarray,
    scale: float,
    alibi_head_slopes: Optional[np.ndarray] = None,
    causal: bool = True,
) -> np.ndarray:
    """Full softmax attention; returns context of shape ``(n_queries, n_heads, d)``."""
    scores = attention_scores(
        queries,
        keys,
        query_positions,
        key_positions,
        scale,
        alibi_head_slopes=alibi_head_slopes,
        causal=causal,
    )
    probs = softmax(scores, axis=-1)
    values = repeat_kv_heads(np.asarray(values, dtype=np.float32), queries.shape[1])
    context = np.einsum("hqk,khd->qhd", probs, values)
    return context.astype(np.float32)
