"""Multi-head / grouped-query attention block with a pluggable KV cache."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer
from repro.models.linear import Linear
from repro.models.positional import RotaryEmbedding
from repro.obs.prof import NULL_PROFILER, PhaseProfiler

KVObserver = Callable[[np.ndarray, np.ndarray], None]


class AttentionBlock:
    """Self-attention with rotary/ALiBi support and cache-owned attention.

    The block projects the hidden states to queries/keys/values, applies the
    positional transform, hands the new keys/values to the cache and asks the
    cache for the attention context.  The cache therefore decides *how*
    attention over past tokens is computed (full precision, de-quantized or
    MILLION's ADC path).
    """

    def __init__(
        self,
        config: ModelConfig,
        wq: Linear,
        wk: Linear,
        wv: Linear,
        wo: Linear,
        rope: Optional[RotaryEmbedding] = None,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.wo = wo
        self.rope = rope
        self.alibi_head_slopes = alibi_head_slopes
        base_scale = 1.0 / math.sqrt(config.head_dim)
        if rope is not None:
            base_scale *= rope.attention_scale
        self.scale = base_scale

    def project_qkv(
        self, x: np.ndarray, positions: np.ndarray, paired: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project hidden states to (q, k, v) with positional transform applied.

        ``paired`` selects the row-invariant projection kernel used on the
        decode path (see :meth:`Linear.__call__`); the rotary transform is
        per-row elementwise, so the full tuple is row-invariant with it.
        """
        n_tokens = x.shape[0]
        cfg = self.config
        q = self.wq(x, paired=paired).reshape(n_tokens, cfg.n_heads, cfg.head_dim)
        k = self.wk(x, paired=paired).reshape(n_tokens, cfg.kv_heads, cfg.head_dim)
        v = self.wv(x, paired=paired).reshape(n_tokens, cfg.kv_heads, cfg.head_dim)
        if self.rope is not None:
            q = self.rope.apply(q, positions)
            k = self.rope.apply(k, positions)
        return q, k, v

    def forward(
        self,
        x: np.ndarray,
        caches: Sequence[KVCacheLayer],
        positions: np.ndarray,
        kv_observer: Optional[KVObserver] = None,
        prof: PhaseProfiler = NULL_PROFILER,
    ) -> np.ndarray:
        """Run attention for ``x`` of shape ``(rows, d_model)``.

        Either every row belongs to ``caches[0]`` (one context's rows; the
        projections are plain GEMMs), or there is one cache per row (single
        tokens of different sequences stacked row-wise; the projections use
        the row-invariant paired kernel, so each row is bit-identical to its
        sequence run alone).  Each cache in turn appends its rows'
        keys/values (post-RoPE, exactly as a real serving stack stores them)
        and then computes their causal attention context, so a cache listed
        twice sees its first row before its second.  With ``prof`` enabled
        the appends (flush and encode) are timed as the
        ``decode/flush_encode`` phase and the attends as ``decode/attend``.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ValueError(
                f"expected x of shape (tokens, {self.config.d_model}), got {x.shape}"
            )
        n_rows = x.shape[0]
        if len(caches) not in (1, n_rows):
            raise ValueError(f"expected 1 or {n_rows} caches, got {len(caches)}")
        paired = len(caches) == n_rows
        q, k, v = self.project_qkv(x, positions, paired=paired)
        if kv_observer is not None:
            kv_observer(k, v)
        span = n_rows // len(caches)
        contexts = []
        timing = prof.enabled
        append_seconds = attend_seconds = 0.0
        for b, cache in enumerate(caches):
            rows = slice(b * span, (b + 1) * span)
            if timing:
                start = prof.now()
            cache.append(k[rows], v[rows])
            if timing:
                appended = prof.now()
            contexts.append(
                cache.attend(
                    q[rows],
                    positions[rows],
                    self.scale,
                    alibi_head_slopes=self.alibi_head_slopes,
                )
            )
            if timing:
                append_seconds += appended - start
                attend_seconds += prof.now() - appended
        if timing:
            prof.record("decode/flush_encode", append_seconds)
            prof.record("decode/attend", attend_seconds)
        context = contexts[0] if len(contexts) == 1 else np.concatenate(contexts)
        context = context.reshape(n_rows, self.config.n_heads * self.config.head_dim)
        return self.wo(context, paired=paired)

    def num_parameters(self) -> int:
        return sum(layer.num_parameters() for layer in (self.wq, self.wk, self.wv, self.wo))
