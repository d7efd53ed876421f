"""The one GQA contraction every KV cache attends through.

:func:`gqa_scores` and :func:`gqa_context` run one batched GEMM per side:
the query heads that share a KV head are stacked as rows,
``(kv, group * n_q, d) @ (kv, d, T)``, so grouped-query attention needs no
repeated copies of the keys or values.  The streaming cache
(:class:`repro.models.kv_cache.StreamingQuantizedKVCache`) contracts both its
stored rows and its pending full-precision rows with them;
:func:`attention_scores` and :func:`dense_attention` add the masking and
ALiBi bias for the sparse baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.positional import alibi_bias
from repro.models.tensor_ops import NEG_INF, softmax


def gqa_scores(queries: np.ndarray, keys: np.ndarray, scale: float) -> np.ndarray:
    """Scaled logits ``(n_heads, n_queries, n_keys)`` of ``queries`` against ``keys``.

    ``queries`` is ``(n_queries, n_heads, d)`` and ``keys`` ``(n_keys,
    kv_heads, d)``; query head ``h`` reads KV head ``h // group``.
    """
    n_queries, n_heads, head_dim = queries.shape
    kv_heads = keys.shape[1]
    grouped = queries.transpose(1, 0, 2).reshape(kv_heads, -1, head_dim)
    scores = np.matmul(grouped, keys.transpose(1, 2, 0))
    scores = scores.reshape(n_heads, n_queries, keys.shape[0])
    scores *= np.float32(scale)
    return scores


def gqa_context(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Probability-weighted ``values``: ``(n_heads, n_queries, n_keys)`` probabilities
    against ``(n_keys, kv_heads, d)`` rows give ``(n_queries, n_heads, d)``."""
    n_heads, n_queries, n_keys = probs.shape
    kv_heads = values.shape[1]
    grouped = probs.reshape(kv_heads, -1, n_keys)
    context = np.matmul(grouped, values.transpose(1, 0, 2))
    context = context.reshape(n_heads, n_queries, -1)
    return np.ascontiguousarray(context.transpose(1, 0, 2))


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
        ``(n_keys, kv_heads, head_dim)``; grouped to the query head count.
    Returns
    -------
    ``(n_heads, n_queries, n_keys)`` float32 logits with the causal mask and
    optional ALiBi bias already applied.
    """
    queries = np.asarray(queries, dtype=np.float32)
    scores = gqa_scores(queries, np.asarray(keys, dtype=np.float32), scale)
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
    return gqa_context(probs, np.asarray(values, dtype=np.float32))
