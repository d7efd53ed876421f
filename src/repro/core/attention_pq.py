"""Head-aware PQ attention primitives (the "sparse attention" of Fig. 5).

These functions bridge the per-vector :class:`ProductQuantizer` API and the
multi-head layout used by the KV cache: queries arrive as
``(n_queries, n_heads, head_dim)`` and codes as ``(n_keys, kv_heads, M)``
(grouped-query attention maps several query heads onto one KV head).

The kernels are *flat and grouped*: instead of looping query heads in Python,
every (head, query, key) element is addressed through gather indices, so one
``np.take`` per subspace serves the whole head group and one flat
``np.add.at`` aggregates all probability mass per centroid.

Each kernel is split in two.  The *code side* (:func:`build_adc_index`,
:func:`build_value_bins`) turns the PQ codes and the element layout into
flat LUT positions and centroid bins; it depends on nothing the query
touches, so a caller keeps its output until a flush, adoption or reset
changes the codes.  The *query side* (:func:`adc_scores_indexed`,
:func:`weighted_decode_indexed`) gathers the query's lookup tables and sums
its probabilities through those indices — the only per-step work.  Every
operation accumulates in a fixed element order that is independent of how
many rows share the call — the property the fused batched decode path relies
on to process many sequences per step while staying bit-identical to the
per-sequence path (see :mod:`repro.core.attention_fused`).

The MILLION cache runs these kernels for single-query (decode) calls only:
a multi-query prefill chunk is compute-bound, and there one GEMM over the
reconstructed keys and values beats the per-element gathers at every chunk
size (see :mod:`repro.core.million_cache`).
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
    memo_key = (n_heads, n_queries, n_keys, kv_heads)
    if arena.memo.get(name) == memo_key:
        return out  # map unchanged since last build (e.g. score then value
        # kernels of one attend, or successive steps between flushes)
    group = n_heads // kv_heads
    kv_of_row = np.repeat(np.arange(n_heads, dtype=np.int64) // group, n_queries)
    np.add(
        np.arange(n_keys, dtype=np.int64)[None, :] * kv_heads,
        kv_of_row[:, None],
        out=out,
    )
    arena.memo[name] = memo_key
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
    out: np.ndarray,
    arena: ScratchArena,
    name_prefix: str = "adc",
) -> np.ndarray:
    """Code side of the ADC: ``out[m] = row * K + codes[token_kv, m]``.

    ``codes_rows`` is ``(n_code_rows, M)``; ``token_kv_index`` and
    ``row_index`` give, for every output element, the code row and the LUT
    row (``row_index`` may broadcast).  ``out`` is ``(M,) + element shape``
    int64: flat positions into each subspace's ``(n_rows * K)`` LUT.  Nothing
    here depends on the query, so callers keep ``out`` while the codes and
    the element layout are unchanged and pay only
    :func:`adc_scores_indexed` per step.
    """
    codes_elem = _element_codes(codes_rows, token_kv_index, arena, name_prefix)
    row_base = arena.get(f"{name_prefix}.row_base", token_kv_index.shape, np.int64)
    np.multiply(row_index, n_centroids, out=row_base)
    np.add(row_base, np.moveaxis(codes_elem, -1, 0), out=out)
    return out


def adc_scores_indexed(
    luts_subspace_major: np.ndarray,
    adc_index: np.ndarray,
    arena: ScratchArena,
    name_prefix: str = "adc",
) -> np.ndarray:
    """Query side of the ADC: ``sum_m luts[m].flat[adc_index[m]]``.

    ``luts_subspace_major`` is ``(M, n_rows, K)`` and ``adc_index`` comes from
    :func:`build_adc_index`.  Returns float32 scores of the element shape,
    accumulated subspace by subspace in order, exactly like
    :meth:`ProductQuantizer.adc_scores`.
    """
    shape = adc_index.shape[1:]
    scores = arena.zeros(f"{name_prefix}.scores", shape, np.float32)
    if scores.size == 0:
        return scores
    gathered = arena.get(f"{name_prefix}.gathered", shape, np.float32)
    for m in range(luts_subspace_major.shape[0]):
        np.take(luts_subspace_major[m].reshape(-1), adc_index[m], out=gathered)
        scores += gathered
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
    arena: ScratchArena | None = None,
    index_key: object = None,
) -> np.ndarray:
    """Attention logits of queries against PQ-encoded keys.

    Parameters
    ----------
    queries:
        ``(n_queries, n_heads, head_dim)``.
    key_codes:
        ``(n_keys, kv_heads, M)`` centroid indices.
    index_key:
        When given, the ``(M, n_heads * n_queries, n_keys)`` gather index is
        kept in ``arena`` under this key and reused by the next call with an
        equal key; the caller must change the key whenever ``key_codes`` or
        the shapes may have changed.  ``None`` rebuilds it on every call.
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
    arena = arena or ScratchArena()

    # One LUT per (query token, query head); flattening keeps the head axis
    # fastest so the reshape below is contiguous.
    flat_queries = queries.transpose(1, 0, 2).reshape(n_heads * n_queries, head_dim)
    luts = key_pq.build_score_luts(flat_queries, subspace_major=True)
    rows = n_heads * n_queries
    codes_rows = key_codes.reshape(n_keys * kv_heads, m_subspaces)
    row_index = np.arange(rows, dtype=np.int64)[:, None]
    name = "adc.index" if index_key is None else "index.adc"
    index = arena.get(name, (m_subspaces, rows, n_keys), np.int64)
    if index_key is None or arena.memo.get(name) != index_key:
        token_kv = gqa_token_kv_index(n_heads, n_queries, n_keys, kv_heads, arena)
        build_adc_index(codes_rows, token_kv, row_index, key_pq.n_centroids, index, arena)
        arena.memo[name] = index_key
    scores = adc_scores_indexed(luts, index, arena)
    scores = scores.reshape(n_heads, n_queries, n_keys)
    return scores * np.float32(scale)


def pq_weighted_values(
    probs: np.ndarray,
    value_codes: np.ndarray,
    value_pq: ProductQuantizer,
    arena: ScratchArena | None = None,
    index_key: object = None,
) -> np.ndarray:
    """Probability-weighted sum over PQ-encoded values.

    Parameters
    ----------
    probs:
        ``(n_heads, n_queries, n_keys)`` attention probabilities.
    value_codes:
        ``(n_keys, kv_heads, M)`` centroid indices.
    index_key:
        As in :func:`pq_attention_scores`: keep the scatter bins in
        ``arena`` under this key; ``None`` builds them transiently.
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
    arena = arena or ScratchArena()

    rows = n_heads * n_queries
    name = "wv.bins" if index_key is None else "index.wv"
    bins = arena.get(name, (rows, n_keys, m_subspaces), np.int64)
    if index_key is None or arena.memo.get(name) != index_key:
        token_kv = gqa_token_kv_index(n_heads, n_queries, n_keys, kv_heads, arena)
        build_value_bins(
            value_codes.reshape(n_keys * kv_heads, m_subspaces),
            token_kv,
            np.arange(rows, dtype=np.int64)[:, None],
            value_pq.n_centroids,
            bins,
            arena,
        )
        arena.memo[name] = index_key
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
