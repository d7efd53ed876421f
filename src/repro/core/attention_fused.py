"""Fused cross-sequence MILLION attention for batched decode.

One engine step over ``B`` running sequences used to cost ``B`` full Python
model traversals; the serving engine now runs **one** stacked forward
(:meth:`repro.models.transformer.TransformerLM.fused_decode_step`) and
delegates attention to :class:`FusedMillionAttention`, which per layer:

1. pops the flush-due rows of every sequence and quantizes them in one
   row-invariant :meth:`~repro.core.million_cache.MillionKVCacheLayer.encode_rows`
   call (the per-sequence flush schedule is untouched — only who calls the
   encoder changes);
2. builds the score lookup tables of all ``B * n_heads`` query heads in one
   :meth:`~repro.core.pq.ProductQuantizer.build_score_luts` call;
3. scores every sequence against only its own key codes with one flat
   segment-ADC gather per subspace, through the layer's kept
   ``(M, elements)`` index of LUT positions (ragged segments laid out by
   per-step element maps, heads sharing a KV head sharing the same code
   rows);
4. merges with the full-precision recent window and softmaxes per sequence
   (sequence-local row lengths differ, and the merge is exactly the
   per-sequence cache's ``attend``);
5. sums all sequences' value probabilities per centroid in one flat
   ``np.add.at`` into the layer's kept ``(elements, M)`` centroid bins and
   decodes against the centroid tables.

The indices of steps 3 and 5 depend only on the codes and the element
layout, never on the query.  Each layer keeps its pair and rebuilds it only
when a cache in the batch flushed, adopted or reset, or the batch membership
changed (``decode/pack_codes`` times those rebuilds); every other step runs
just the query side.

Every kernel accumulates in an order independent of how many sequences share
the call, so each sequence's context — and therefore its next-token logits —
is bit-identical to decoding that sequence alone through its cache's
``attend`` (the tests' solo reference).
Scratch buffers (element maps, kept indices, the rebuild-only packed codes,
probabilities, gather and aggregation temporaries) live in a
:class:`~repro.utils.scratch.ScratchArena` reused across steps, so
steady-state decoding performs no per-step allocation growth.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.attention_pq import (
    adc_scores_indexed,
    build_adc_index,
    build_value_bins,
    weighted_decode_indexed,
)
from repro.core.million_cache import MillionKVCacheLayer
from repro.models.attention import AttentionBlock
from repro.models.attention_math import attention_scores, repeat_kv_heads
from repro.models.positional import alibi_bias
from repro.models.tensor_ops import softmax
from repro.obs.prof import NULL_PROFILER, PhaseProfiler
from repro.utils.bitpack import code_dtype
from repro.utils.scratch import ScratchArena
from repro.utils.validation import require


class FusedMillionAttention:
    """Batched-decode attention strategy over per-sequence MILLION caches.

    One instance is owned by a serving engine and passed to
    ``fused_decode_step`` as its ``batch_attend``; it is stateful only
    through its scratch arena, the memoized element maps and the per-layer
    keys of the kept gather indices.
    Sequences may have arbitrary, different context lengths; sparse outlier
    corrections are not supported (the engine then stacks the forward
    without this class, and each cache attends through its own ``attend``).
    """

    def __init__(self) -> None:
        self.arena = ScratchArena()
        # Phase attribution (repro.obs.prof): the owning engine replaces this
        # with its profiler; the default no-op keeps the disabled cost to one
        # ``enabled`` attribute check per step.
        self.prof: PhaseProfiler = NULL_PROFILER
        # Element maps depend only on (H, kv_heads, segment lengths); they
        # are identical for every layer of a step (all layers see the same
        # token stream), so they are rebuilt once per step and reused.
        self._map_key: tuple | None = None
        self._element_count = 0
        self._probs_offsets: list[int] = []
        # Per-layer key of the kept gather indices: the element-map key plus
        # a (cache_serial, code_version) pair per cache.  Serials are never
        # reused and versions bump on every stored-code mutation (flush,
        # adoption, reset), so an equal key proves the indices are current;
        # on pooled or windowed configs most decode steps flush nothing.
        self._index_keys: dict[int, tuple] = {}
        #: Layer index rebuilds so far (one per layer whose key changed).
        self.index_builds = 0

    # Per-step element maps ------------------------------------------------

    def _build_maps(
        self, n_heads: int, kv_heads: int, segments: Sequence[int]
    ) -> None:
        key = (n_heads, kv_heads, tuple(segments))
        if key == self._map_key:
            return
        group = n_heads // kv_heads
        total_elements = n_heads * sum(segments)
        token_kv = self.arena.get("map.token_kv", (total_elements,), np.int64)
        row_index = self.arena.get("map.row", (total_elements,), np.int64)
        kv_of_head = np.arange(n_heads, dtype=np.int64) // group
        offsets = [0]
        elem = 0
        seg_start = 0
        for b, seg_len in enumerate(segments):
            if seg_len:
                block = token_kv[elem : elem + n_heads * seg_len].reshape(
                    n_heads, seg_len
                )
                np.add(
                    (np.arange(seg_len, dtype=np.int64) + seg_start)[None, :]
                    * kv_heads,
                    kv_of_head[:, None],
                    out=block,
                )
                rows = row_index[elem : elem + n_heads * seg_len].reshape(
                    n_heads, seg_len
                )
                rows[:] = (
                    b * n_heads + np.arange(n_heads, dtype=np.int64)
                )[:, None]
                elem += n_heads * seg_len
            seg_start += seg_len
            offsets.append(elem)
        self._map_key = key
        self._element_count = total_elements
        self._probs_offsets = offsets

    # Kept gather indices --------------------------------------------------

    def _layer_indices(
        self,
        caches: Sequence[MillionKVCacheLayer],
        segments: Sequence[int],
        n_heads: int,
        kv_heads: int,
        layer_index: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """This layer's ``(adc_index, value_bins)``, rebuilt only on change.

        Both depend on the stored codes and the element layout alone, so a
        step whose caches flushed, adopted or reset nothing reuses the
        previous step's.  A rebuild packs the batch's codes into scratch
        shared by all layers, then derives the indices from the packed rows.
        """
        key_pq, value_pq = caches[0].key_pq, caches[0].value_pq
        n_elements = self._element_count
        adc_index = self.arena.get(
            f"index.adc.{layer_index}", (key_pq.m_subspaces, n_elements), np.int64
        )
        value_bins = self.arena.get(
            f"index.wv.{layer_index}", (n_elements, value_pq.m_subspaces), np.int64
        )
        key = (
            self._map_key,
            tuple((cache.cache_serial, cache.code_version) for cache in caches),
        )
        if self._index_keys.get(layer_index) == key:
            return adc_index, value_bins
        total_rows = sum(segments) * kv_heads
        key_rows = self.arena.get(
            "pack.keys", (total_rows, key_pq.m_subspaces), code_dtype(key_pq.nbits)
        )
        value_rows = self.arena.get(
            "pack.values",
            (total_rows, value_pq.m_subspaces),
            code_dtype(value_pq.nbits),
        )
        lo = 0
        for cache, seg_len in zip(caches, segments):
            if seg_len == 0:
                continue
            hi = lo + seg_len * kv_heads
            key_view, value_view = cache.stored_code_views()
            np.copyto(key_rows[lo:hi], key_view.reshape(hi - lo, -1))
            np.copyto(value_rows[lo:hi], value_view.reshape(hi - lo, -1))
            lo = hi
        token_kv = self.arena.get("map.token_kv", (n_elements,), np.int64)
        row_index = self.arena.get("map.row", (n_elements,), np.int64)
        build_adc_index(
            key_rows, token_kv, row_index, key_pq.n_centroids,
            len(segments) * n_heads, adc_index,
            self.arena, "fused.adc",
        )
        build_value_bins(
            value_rows, token_kv, row_index, value_pq.n_centroids, value_bins,
            self.arena, "fused.wv",
        )
        self._index_keys[layer_index] = key
        self.index_builds += 1
        return adc_index, value_bins

    # Flush + append -------------------------------------------------------

    def _flush_and_append(
        self,
        caches: Sequence[MillionKVCacheLayer],
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Quantize every sequence's flush-due rows in one encode, then stage
        the new tokens — per sequence, this is exactly ``cache.append``."""
        flush_counts = [cache.flushable_rows() for cache in caches]
        if any(flush_counts):
            flushing = [b for b, count in enumerate(flush_counts) if count]
            popped = [caches[b].pop_flushable() for b in flushing]
            encoder = caches[flushing[0]]
            keys_block = np.concatenate([keys for keys, _ in popped], axis=0)
            values_block = np.concatenate([values for _, values in popped], axis=0)
            key_codes, value_codes = encoder.encode_rows(keys_block, values_block)
            start = 0
            for b, (keys, _) in zip(flushing, popped):
                count = keys.shape[0]
                caches[b].store_code_block(
                    key_codes[start : start + count],
                    value_codes[start : start + count],
                )
                start += count
        for b, cache in enumerate(caches):
            cache.append_pending(k[b : b + 1], v[b : b + 1])

    # Attention ------------------------------------------------------------

    def __call__(
        self,
        block: AttentionBlock,
        caches: Sequence[MillionKVCacheLayer],
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
        layer_index: int = 0,
    ) -> np.ndarray:
        n_seqs, n_heads, head_dim = q.shape
        kv_heads = k.shape[1]
        scale = block.scale
        slopes = block.alibi_head_slopes
        first = caches[0]
        key_pq, value_pq = first.key_pq, first.value_pq
        for cache in caches:
            require(
                cache.key_pq is key_pq and cache.value_pq is value_pq,
                "fused attention requires caches sharing one quantizer pair",
            )

        prof = self.prof
        timing = prof.enabled
        if timing:
            t = prof.now()
        self._flush_and_append(caches, k, v)
        if timing:
            t = prof.lap("decode/flush_encode", t)
        segments = [cache.stored_tokens for cache in caches]
        self._build_maps(n_heads, kv_heads, segments)
        n_elements = self._element_count
        offsets = self._probs_offsets

        scores_flat = value_bins = None
        if n_elements:
            if timing:
                t = prof.now()
            adc_index, value_bins = self._layer_indices(
                caches, segments, n_heads, kv_heads, layer_index
            )
            if timing:
                t = prof.lap("decode/pack_codes", t)
            flat_q = q.reshape(n_seqs * n_heads, head_dim)
            luts = key_pq.build_score_luts(flat_q, subspace_major=True)
            if timing:
                t = prof.lap("decode/lut_build", t)
            scores_flat = adc_scores_indexed(luts, adc_index, self.arena, "fused.adc")
            np.multiply(scores_flat, np.float32(scale), out=scores_flat)
            if timing:
                t = prof.lap("decode/adc_gather", t)

        # Sequence-local merge with the full-precision recent window: exactly
        # the per-sequence cache's attend(), with the stored scores precomputed.
        if timing:
            t = prof.now()
        context = np.empty((n_seqs, n_heads, head_dim), dtype=np.float32)
        probs_packed = self.arena.get("pack.probs", (n_elements,), np.float32)
        pending_contexts: list[np.ndarray] = []
        for b, cache in enumerate(caches):
            seg_len = segments[b]
            score_blocks = []
            if seg_len:
                stored_scores = scores_flat[
                    offsets[b] : offsets[b + 1]
                ].reshape(n_heads, 1, seg_len)
                if slopes is not None:
                    stored_scores = stored_scores + alibi_bias(
                        slopes, positions[b : b + 1], np.arange(seg_len)
                    )
                score_blocks.append(stored_scores)
            pending_keys, pending_values = cache.pending_views()
            pending_positions = np.arange(seg_len, seg_len + pending_keys.shape[0])
            if pending_keys.shape[0] > 0:
                score_blocks.append(
                    attention_scores(
                        q[b : b + 1],
                        pending_keys,
                        positions[b : b + 1],
                        pending_positions,
                        scale,
                        alibi_head_slopes=slopes,
                        causal=True,
                    )
                )
            scores = np.concatenate(score_blocks, axis=-1)
            probs = softmax(scores, axis=-1)
            if seg_len:
                np.copyto(
                    probs_packed[offsets[b] : offsets[b + 1]],
                    probs[..., :seg_len].reshape(-1),
                )
            if pending_keys.shape[0] > 0:
                expanded_values = repeat_kv_heads(pending_values, n_heads)
                pending_contexts.append(
                    np.einsum(
                        "hqk,khd->qhd", probs[..., seg_len:], expanded_values
                    ).astype(np.float32)
                )
            else:
                pending_contexts.append(None)
        if timing:
            t = prof.lap("decode/softmax_merge", t)

        if n_elements:
            stored_context = weighted_decode_indexed(
                probs_packed,
                value_bins,
                n_seqs * n_heads,
                value_pq,
                self.arena,
                "fused.wv",
            ).reshape(n_seqs, n_heads, head_dim)
        context[:] = 0.0
        for b in range(n_seqs):
            if segments[b]:
                context[b] += stored_context[b]
            if pending_contexts[b] is not None:
                context[b] += pending_contexts[b][0]
        if timing:
            prof.lap("decode/scatter_add", t)
        return context


__all__ = ["FusedMillionAttention"]
