"""Head-aware PQ attention primitives (the "sparse attention" of Fig. 5).

These functions bridge the per-vector :class:`ProductQuantizer` API and the
multi-head layout used by the KV cache: queries arrive as
``(n_queries, n_heads, head_dim)`` and codes as ``(n_keys, kv_heads, M)``
(grouped-query attention maps query head ``h`` onto KV head ``h // group``).

Each function loops over query heads and runs the quantizer's own kernels:
:meth:`~ProductQuantizer.build_score_luts` plus
:meth:`~ProductQuantizer.adc_scores` for the logits, and
:meth:`~ProductQuantizer.weighted_decode` for the values, so every head's
result equals the single-head kernel's bit for bit.  They are the paper's LUT
dataflow (which :mod:`repro.perf` models on a GPU) and serve as test
oracles; the MILLION cache itself attends through GEMMs over transiently
reconstructed keys and values (see :mod:`repro.core.million_cache`).
"""

from __future__ import annotations

import numpy as np

from repro.core.pq import ProductQuantizer
from repro.utils.validation import require


def pq_attention_scores(
    queries: np.ndarray,
    key_codes: np.ndarray,
    key_pq: ProductQuantizer,
    scale: float = 1.0,
) -> np.ndarray:
    """Attention logits of queries against PQ-encoded keys.

    Parameters
    ----------
    queries:
        ``(n_queries, n_heads, head_dim)``.
    key_codes:
        ``(n_keys, kv_heads, M)`` centroid indices.

    Returns
    -------
    ``(n_heads, n_queries, n_keys)`` float32 logits (already scaled).
    """
    queries = np.asarray(queries, dtype=np.float32)
    key_codes = np.asarray(key_codes)
    require(queries.ndim == 3, f"queries must be 3-D, got shape {queries.shape}")
    require(key_codes.ndim == 3, f"key_codes must be 3-D, got shape {key_codes.shape}")
    n_queries, n_heads, head_dim = queries.shape
    n_keys, kv_heads, m_subspaces = key_codes.shape
    require(head_dim == key_pq.dim, "query head_dim must match the key quantizer dim")
    require(m_subspaces == key_pq.m_subspaces, "codes M must match the key quantizer")
    require(n_heads % kv_heads == 0, "n_heads must be a multiple of kv_heads")
    group = n_heads // kv_heads
    scores = np.empty((n_heads, n_queries, n_keys), dtype=np.float32)
    for head in range(n_heads):
        luts = key_pq.build_score_luts(queries[:, head, :])
        scores[head] = key_pq.adc_scores(luts, key_codes[:, head // group, :])
    return scores * np.float32(scale)


def pq_weighted_values(
    probs: np.ndarray,
    value_codes: np.ndarray,
    value_pq: ProductQuantizer,
) -> np.ndarray:
    """Probability-weighted sum over PQ-encoded values.

    Parameters
    ----------
    probs:
        ``(n_heads, n_queries, n_keys)`` attention probabilities.
    value_codes:
        ``(n_keys, kv_heads, M)`` centroid indices.

    Returns
    -------
    ``(n_queries, n_heads, head_dim)`` context vectors.
    """
    probs = np.asarray(probs, dtype=np.float32)
    value_codes = np.asarray(value_codes)
    require(probs.ndim == 3, f"probs must be 3-D, got shape {probs.shape}")
    require(value_codes.ndim == 3, f"value_codes must be 3-D, got shape {value_codes.shape}")
    n_heads, n_queries, n_keys = probs.shape
    keys_in_codes, kv_heads, m_subspaces = value_codes.shape
    require(n_keys == keys_in_codes, "probs and value_codes disagree on n_keys")
    require(m_subspaces == value_pq.m_subspaces, "codes M must match the value quantizer")
    require(n_heads % kv_heads == 0, "n_heads must be a multiple of kv_heads")
    group = n_heads // kv_heads
    context = np.empty((n_queries, n_heads, value_pq.dim), dtype=np.float32)
    for head in range(n_heads):
        context[:, head] = value_pq.weighted_decode(
            probs[head], value_codes[:, head // group, :]
        )
    return context

