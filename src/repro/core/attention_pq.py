"""Head-aware PQ attention primitives (the "sparse attention" of Fig. 5).

These functions bridge the per-vector :class:`ProductQuantizer` API and the
multi-head layout used by the KV cache: queries arrive as
``(n_queries, n_heads, head_dim)`` and codes as ``(n_keys, kv_heads, M)``
(grouped-query attention maps several query heads onto one KV head).

The kernels are *flat and grouped*: instead of looping query heads in Python,
every (head, query, key) element is addressed through gather indices, so one
``np.take`` over the flattened lookup tables serves every subspace of the
whole head group and one flat ``np.add.at`` aggregates all probability mass
per centroid.

Each kernel is split in two.  The *code side* (:func:`build_adc_index`,
:func:`build_value_bins`) turns the PQ codes and the element layout into
flat LUT positions and centroid bins; it depends on nothing the query
touches.  The *query side* (:func:`adc_scores_indexed`,
:func:`weighted_decode_indexed`) gathers the query's lookup tables and sums
its probabilities through those indices.  Every operation accumulates in a
fixed element order that is independent of how many rows share the call.

These kernels are library primitives — the paper's LUT dataflow, which
:mod:`repro.perf` models on a GPU — used by the benchmarks and as test
oracles.  The MILLION cache itself attends through GEMMs over transiently
reconstructed keys and values (see :mod:`repro.core.million_cache`): in
NumPy the per-element gathers and the ``np.add.at`` scatter cost more than
one reconstruction gather plus BLAS at every query count.
"""

from __future__ import annotations

import numpy as np

from repro.core.pq import ProductQuantizer
from repro.utils.scratch import ScratchArena
from repro.utils.validation import require


def gqa_token_kv_index(
    n_heads: int,
    n_queries: int,
    n_keys: int,
    kv_heads: int,
    arena: ScratchArena,
    name: str = "token_kv",
) -> np.ndarray:
    """Row index into flattened ``(n_keys * kv_heads, M)`` codes per element.

    Element space is ``(head, query, key)`` in C order — matching the
    ``(n_heads, n_queries, n_keys)`` score layout — and heads sharing a KV
    head map to the same code rows, which is what collapses the per-head
    Python loop into one gather per subspace.
    """
    rows = n_heads * n_queries
    out = arena.get(name, (rows, n_keys), np.int64)
    group = n_heads // kv_heads
    kv_of_row = np.repeat(np.arange(n_heads, dtype=np.int64) // group, n_queries)
    np.add(
        np.arange(n_keys, dtype=np.int64)[None, :] * kv_heads,
        kv_of_row[:, None],
        out=out,
    )
    return out


def _element_codes(
    codes_rows: np.ndarray,
    token_kv_index: np.ndarray,
    arena: ScratchArena,
    name_prefix: str,
) -> np.ndarray:
    """``codes_rows[token_kv_index]``: every element's ``(M,)`` code row."""
    out = arena.get(
        f"{name_prefix}.codes",
        token_kv_index.shape + (codes_rows.shape[1],),
        codes_rows.dtype,
    )
    np.take(codes_rows, token_kv_index, axis=0, out=out)
    return out


def build_adc_index(
    codes_rows: np.ndarray,
    token_kv_index: np.ndarray,
    row_index: np.ndarray,
    n_centroids: int,
    n_rows: int,
    out: np.ndarray,
    arena: ScratchArena,
    name_prefix: str = "adc",
) -> np.ndarray:
    """Code side of the ADC: ``out[m] = (m * n_rows + row) * K + codes[token_kv, m]``.

    ``codes_rows`` is ``(n_code_rows, M)``; ``token_kv_index`` and
    ``row_index`` give, for every output element, the code row and the LUT
    row (``row_index`` may broadcast).  ``out`` is ``(M,) + element shape``
    int64: flat positions into the whole ``(M, n_rows, K)`` LUT, subspace
    offsets included, so one gather serves every subspace.  Nothing here
    depends on the query, so callers keep ``out`` while the codes and the
    element layout are unchanged and pay only :func:`adc_scores_indexed`
    per step.
    """
    m_subspaces = out.shape[0]
    codes_elem = _element_codes(codes_rows, token_kv_index, arena, name_prefix)
    row_base = arena.get(f"{name_prefix}.row_base", token_kv_index.shape, np.int64)
    np.multiply(row_index, n_centroids, out=row_base)
    np.add(row_base, np.moveaxis(codes_elem, -1, 0), out=out)
    subspace_offsets = np.arange(m_subspaces, dtype=np.int64) * (n_rows * n_centroids)
    out += subspace_offsets.reshape((m_subspaces,) + (1,) * (out.ndim - 1))
    return out


def adc_scores_indexed(
    luts_subspace_major: np.ndarray,
    adc_index: np.ndarray,
    arena: ScratchArena,
    name_prefix: str = "adc",
) -> np.ndarray:
    """Query side of the ADC: ``sum_m luts.flat[adc_index[m]]``.

    ``luts_subspace_major`` is ``(M, n_rows, K)`` and ``adc_index`` comes from
    :func:`build_adc_index` with the same ``n_rows``.  One gather fetches
    every subspace's entries; the reduction over the leading axis adds them
    subspace by subspace in order, exactly like
    :meth:`ProductQuantizer.adc_scores`.  Returns float32 scores of the
    element shape.
    """
    shape = adc_index.shape[1:]
    scores = arena.get(f"{name_prefix}.scores", shape, np.float32)
    if scores.size == 0:
        return scores
    gathered = arena.get(f"{name_prefix}.gathered", adc_index.shape, np.float32)
    # Every index is in range by construction, so "clip" never moves one;
    # unlike the default "raise", it gathers straight into ``out`` instead
    # of through a temporary of the same (M, elements) size.
    np.take(luts_subspace_major.reshape(-1), adc_index, out=gathered, mode="clip")
    np.add.reduce(gathered, axis=0, out=scores)
    return scores


def build_value_bins(
    codes_rows: np.ndarray,
    token_kv_index: np.ndarray,
    row_index: np.ndarray,
    n_centroids: int,
    out: np.ndarray,
    arena: ScratchArena,
    name_prefix: str = "wv",
) -> np.ndarray:
    """Code side of the value aggregation: ``(row * M + m) * K + code``.

    ``out`` is ``element shape + (M,)`` int64: for every element and
    subspace, the ``(row, subspace, centroid)`` bin its probability mass
    lands in.  Like :func:`build_adc_index` it is query-independent, so
    callers keep it until the codes or the element layout change.
    """
    m_subspaces = out.shape[-1]
    codes_elem = _element_codes(codes_rows, token_kv_index, arena, name_prefix)
    row_base = arena.get(f"{name_prefix}.row_base", token_kv_index.shape, np.int64)
    np.multiply(row_index, m_subspaces * n_centroids, out=row_base)
    np.add(
        row_base[..., None],
        np.arange(m_subspaces, dtype=np.int64) * n_centroids,
        out=out,
    )
    out += codes_elem
    return out


def weighted_decode_indexed(
    probs: np.ndarray,
    value_bins: np.ndarray,
    n_rows: int,
    quantizer: ProductQuantizer,
    arena: ScratchArena,
    name_prefix: str = "wv",
) -> np.ndarray:
    """Query side of the value path: per-centroid sums, then one decode.

    ``probs`` has the element shape of ``value_bins`` (from
    :func:`build_value_bins`) minus its subspace axis; the result is
    ``(n_rows, dim)`` float32 context rows.  Probability mass is summed into
    ``(row, subspace, centroid)`` bins in element order (keys in sequence
    order, subspaces innermost), then multiplied by the centroid tables —
    MILLION's ``O(n + K * d)`` value trick, with the per-head Python loop
    replaced by one flat ``np.add.at``.
    """
    m_subspaces = quantizer.m_subspaces
    n_centroids = quantizer.n_centroids
    if value_bins.size == 0:
        return np.zeros((n_rows, quantizer.dim), dtype=np.float32)
    aggregated = arena.zeros(
        f"{name_prefix}.agg", (n_rows * m_subspaces * n_centroids,), np.float32
    )
    # The element order fixes the accumulation order per bin regardless of
    # how many rows share the call.  Weights are materialized so the ufunc
    # takes its fast unbuffered path.
    weights = arena.get(f"{name_prefix}.weights", value_bins.shape, np.float32)
    np.copyto(weights, probs[..., None])
    np.add.at(aggregated, value_bins.reshape(-1), weights.reshape(-1))
    aggregated = aggregated.reshape(n_rows, m_subspaces, n_centroids)
    # Contract against the (M, dsub, K) centroid layout so the reduction axis
    # is contiguous in both operands; the contraction is per-element
    # independent, hence row-invariant.
    context = np.einsum(
        "rmk,mdk->rmd", aggregated, quantizer.centroids_transposed(np.float32)
    )
    return context.reshape(n_rows, quantizer.dim).astype(np.float32, copy=False)


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
    arena = ScratchArena()

    # One LUT per (query token, query head); flattening keeps the head axis
    # fastest so the reshape below is contiguous.
    flat_queries = queries.transpose(1, 0, 2).reshape(n_heads * n_queries, head_dim)
    luts = key_pq.build_score_luts(flat_queries, subspace_major=True)
    rows = n_heads * n_queries
    codes_rows = key_codes.reshape(n_keys * kv_heads, m_subspaces)
    row_index = np.arange(rows, dtype=np.int64)[:, None]
    index = arena.get("adc.index", (m_subspaces, rows, n_keys), np.int64)
    token_kv = gqa_token_kv_index(n_heads, n_queries, n_keys, kv_heads, arena)
    build_adc_index(
        codes_rows, token_kv, row_index, key_pq.n_centroids, rows, index, arena
    )
    scores = adc_scores_indexed(luts, index, arena)
    scores = scores.reshape(n_heads, n_queries, n_keys)
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
    arena = ScratchArena()

    rows = n_heads * n_queries
    bins = arena.get("wv.bins", (rows, n_keys, m_subspaces), np.int64)
    token_kv = gqa_token_kv_index(n_heads, n_queries, n_keys, kv_heads, arena)
    build_value_bins(
        value_codes.reshape(n_keys * kv_heads, m_subspaces),
        token_kv,
        np.arange(rows, dtype=np.int64)[:, None],
        value_pq.n_centroids,
        bins,
        arena,
    )
    context = weighted_decode_indexed(
        probs.reshape(rows, n_keys), bins, rows, value_pq, arena
    )
    return np.ascontiguousarray(
        context.reshape(n_heads, n_queries, value_pq.dim).transpose(1, 0, 2)
    )


def pq_sparse_attention(
    queries: np.ndarray,
    key_codes: np.ndarray,
    value_codes: np.ndarray,
    key_pq: ProductQuantizer,
    value_pq: ProductQuantizer,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper returning ``(scores, context)`` for quantized tokens.

    ``scores`` are pre-softmax logits; callers combine them with the
    full-precision recent-window scores before a single softmax (equivalent
    to the paper's online-softmax merge).
    """
    scores = pq_attention_scores(queries, key_codes, key_pq, scale=scale)
    from repro.models.tensor_ops import softmax  # local import avoids a cycle

    probs = softmax(scores, axis=-1)
    context = pq_weighted_values(probs, value_codes, value_pq)
    return scores, context
