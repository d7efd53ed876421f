"""Multi-head / grouped-query attention block with a pluggable KV cache."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer
from repro.models.linear import Linear
from repro.models.positional import RotaryEmbedding

KVObserver = Callable[[np.ndarray, np.ndarray], None]

# Fused multi-sequence attention strategy: called with (attention_block,
# caches, q, k, v, positions, layer_index=...) where q is (B, n_heads,
# head_dim) and k/v are (B, kv_heads, head_dim) — one token per sequence —
# and must return context of shape (B, n_heads, head_dim).  It owns
# appending k/v to each cache; layer_index keys any per-layer scratch state.
BatchAttend = Callable[..., np.ndarray]


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
        cache: KVCacheLayer,
        positions: np.ndarray,
        kv_observer: Optional[KVObserver] = None,
        paired: bool = False,
    ) -> np.ndarray:
        """Run attention for ``x`` of shape ``(tokens, d_model)``.

        New keys/values are appended to ``cache`` (post-RoPE, exactly as they
        would be stored on a real serving stack) before the cache computes the
        causal attention context.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ValueError(
                f"expected x of shape (tokens, {self.config.d_model}), got {x.shape}"
            )
        q, k, v = self.project_qkv(x, positions, paired=paired)
        if kv_observer is not None:
            kv_observer(k, v)
        cache.append(k, v)
        context = cache.attend(
            q,
            positions,
            self.scale,
            alibi_head_slopes=self.alibi_head_slopes,
        )
        context = context.reshape(x.shape[0], self.config.n_heads * self.config.head_dim)
        return self.wo(context, paired=paired)

    def fused_decode(
        self,
        x: np.ndarray,
        caches: list[KVCacheLayer],
        positions: np.ndarray,
        batch_attend: Optional["BatchAttend"] = None,
        layer_index: int = 0,
    ) -> np.ndarray:
        """One attention step for ``B`` independent sequences stacked row-wise.

        ``x`` is ``(B, d_model)`` — one single-token hidden state per
        sequence — and ``caches[b]`` / ``positions[b]`` belong to sequence
        ``b``.  Projections run as stacked row-invariant GEMMs, so each row's
        (q, k, v) is bit-identical to what the per-sequence path computes for
        that sequence alone.  Attention is delegated to ``batch_attend``
        (e.g. the fused MILLION ADC path) or falls back to one
        ``append`` + ``attend`` per sequence — same calls, same bits, as the
        per-sequence path.
        """
        x = np.asarray(x, dtype=np.float32)
        n_seqs = x.shape[0]
        q, k, v = self.project_qkv(x, positions, paired=True)
        if batch_attend is not None:
            context = batch_attend(
                self, caches, q, k, v, positions, layer_index=layer_index
            )
        else:
            context = np.empty_like(q)
            for b, cache in enumerate(caches):
                cache.append(k[b : b + 1], v[b : b + 1])
                context[b] = cache.attend(
                    q[b : b + 1],
                    positions[b : b + 1],
                    self.scale,
                    alibi_head_slopes=self.alibi_head_slopes,
                )[0]
        context = context.reshape(n_seqs, self.config.n_heads * self.config.head_dim)
        return self.wo(context, paired=True)

    def num_parameters(self) -> int:
        return sum(layer.num_parameters() for layer in (self.wq, self.wk, self.wv, self.wo))
