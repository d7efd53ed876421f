"""Decoder-only transformer language model with prefill/decode semantics.

The model is deliberately faithful to the structure sketched in the paper's
Fig. 1: an embedding, a stack of pre-norm attention + feed-forward blocks, a
final norm and an LM head.  The per-layer KV caches are pluggable so every
quantization scheme under study (fp16, KIVI-like, KVQuant-like, MILLION) can
be swapped in without touching the model code.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.models.attention import AttentionBlock
from repro.models.config import ModelConfig
from repro.models.kv_cache import (
    FullPrecisionCacheFactory,
    KVCacheFactory,
    KVCacheLayer,
)
from repro.models.linear import Embedding, Linear
from repro.models.sampling import GreedySampler
from repro.models.tensor_ops import ACTIVATION_FUNCTIONS, layer_norm, rms_norm
from repro.obs.prof import NULL_PROFILER, PhaseProfiler
from repro.utils.rng import SeedLike, get_rng
from repro.utils.validation import require

# Called with (layer_index, keys, values) whenever a layer produces new KV.
LayerKVObserver = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass
class ModelContext:
    """Snapshot of a model's mutable inference state (caches + position).

    A context holds *references* to the per-layer caches, not copies: saving
    a context and continuing to run the model mutates the saved caches.  It
    is the unit of sequence identity — swapping contexts in and out of one
    :class:`TransformerLM` lets many independent sequences share the same
    weights (see :mod:`repro.serving`), and lets callers run a throwaway
    computation (e.g. full-precision reference logits) without disturbing the
    live context.
    """

    caches: list[KVCacheLayer]
    cache_factory: KVCacheFactory
    next_position: int = 0

    @property
    def context_length(self) -> int:
        return self.next_position


class Norm:
    """RMSNorm or LayerNorm selected by the model configuration."""

    def __init__(
        self,
        kind: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        eps: float = 1e-5,
    ) -> None:
        require(kind in ("rmsnorm", "layernorm"), f"unknown norm kind {kind!r}")
        self.kind = kind
        self.weight = np.asarray(weight, dtype=np.float32)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float32)
        self.eps = eps

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "rmsnorm":
            return rms_norm(x, self.weight, eps=self.eps)
        return layer_norm(x, self.weight, self.bias, eps=self.eps)

    def num_parameters(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)


class FeedForward:
    """Position-wise MLP: SwiGLU for ``silu`` models, plain MLP for ``gelu``."""

    def __init__(
        self,
        activation: str,
        w_in: Linear,
        w_out: Linear,
        w_gate: Optional[Linear] = None,
    ) -> None:
        require(activation in ACTIVATION_FUNCTIONS, f"unknown activation {activation!r}")
        if activation == "silu" and w_gate is None:
            raise ValueError("silu feed-forward requires a gate projection")
        self.activation_name = activation
        self.activation = ACTIVATION_FUNCTIONS[activation]
        self.w_in = w_in
        self.w_out = w_out
        self.w_gate = w_gate

    def __call__(self, x: np.ndarray, paired: bool = False) -> np.ndarray:
        if self.w_gate is not None:
            hidden = self.activation(self.w_gate(x, paired=paired)) * self.w_in(
                x, paired=paired
            )
        else:
            hidden = self.activation(self.w_in(x, paired=paired))
        return self.w_out(hidden, paired=paired)

    def num_parameters(self) -> int:
        total = self.w_in.num_parameters() + self.w_out.num_parameters()
        if self.w_gate is not None:
            total += self.w_gate.num_parameters()
        return total


class TransformerBlock:
    """Pre-norm residual block: ``x + attn(norm(x))`` then ``x + ffn(norm(x))``."""

    def __init__(
        self,
        attention: AttentionBlock,
        feed_forward: FeedForward,
        attention_norm: Norm,
        ffn_norm: Norm,
    ) -> None:
        self.attention = attention
        self.feed_forward = feed_forward
        self.attention_norm = attention_norm
        self.ffn_norm = ffn_norm

    def forward(
        self,
        x: np.ndarray,
        cache: KVCacheLayer,
        positions: np.ndarray,
        kv_observer=None,
        paired: bool = False,
    ) -> np.ndarray:
        attn_out = self.attention.forward(
            self.attention_norm(x), cache, positions, kv_observer=kv_observer,
            paired=paired,
        )
        x = x + attn_out
        x = x + self.feed_forward(self.ffn_norm(x), paired=paired)
        return x

    def fused_decode(
        self,
        x: np.ndarray,
        caches: Sequence[KVCacheLayer],
        positions: np.ndarray,
        prof: PhaseProfiler = NULL_PROFILER,
    ) -> np.ndarray:
        """One block step for stacked single-token rows of ``B`` sequences.

        Norms, residual adds and activations are row-wise, and the linear
        projections use the row-invariant paired kernel, so row ``b`` is
        bit-identical to running :meth:`forward` on sequence ``b`` alone.
        """
        attn_out = self.attention.fused_decode(
            self.attention_norm(x), list(caches), positions, prof
        )
        x = x + attn_out
        x = x + self.feed_forward(self.ffn_norm(x), paired=True)
        return x

    def num_parameters(self) -> int:
        return (
            self.attention.num_parameters()
            + self.feed_forward.num_parameters()
            + self.attention_norm.num_parameters()
            + self.ffn_norm.num_parameters()
        )


class TransformerLM:
    """Auto-regressive language model with pluggable per-layer KV caches.

    Typical usage::

        model = load_model("llama-2-7b-tiny")
        model.reset_cache(MillionCacheFactory(quantizers))
        logits = model.prefill(prompt_ids)
        token = int(np.argmax(logits[-1]))
        logits = model.decode_step(token)
    """

    def __init__(
        self,
        config: ModelConfig,
        token_embedding: Embedding,
        blocks: Sequence[TransformerBlock],
        final_norm: Norm,
        position_embedding: Optional[Embedding] = None,
        lm_head: Optional[Linear] = None,
        cache_factory: Optional[KVCacheFactory] = None,
    ) -> None:
        require(len(blocks) == config.n_layers, "number of blocks must match config")
        if config.positional == "absolute" and position_embedding is None:
            raise ValueError("absolute positional model requires a position embedding")
        self.config = config
        self.token_embedding = token_embedding
        self.position_embedding = position_embedding
        self.blocks = list(blocks)
        self.final_norm = final_norm
        self.lm_head = lm_head
        self.cache_factory: KVCacheFactory = cache_factory or FullPrecisionCacheFactory()
        self.kv_observers: list[LayerKVObserver] = []
        self.caches: list[KVCacheLayer] = []
        self._next_position = 0
        self.reset_cache()

    # Cache management ---------------------------------------------------

    def reset_cache(self, factory: Optional[KVCacheFactory] = None) -> None:
        """Drop cached context; optionally switch the KV-cache scheme."""
        self.restore_context(self.fresh_context(factory))

    @property
    def context_length(self) -> int:
        """Number of tokens currently held in the KV caches."""
        return self._next_position

    # Context save/restore ------------------------------------------------

    def save_context(self) -> ModelContext:
        """Snapshot the current inference state (caches, factory, position).

        The snapshot shares the cache objects with the model — it is a handle
        for swapping, not a deep copy.  Pair with :meth:`restore_context`.
        """
        return ModelContext(self.caches, self.cache_factory, self._next_position)

    def restore_context(self, context: ModelContext) -> None:
        """Make ``context`` the model's live inference state."""
        self.caches = context.caches
        self.cache_factory = context.cache_factory
        self._next_position = context.next_position

    def fresh_context(self, factory: Optional[KVCacheFactory] = None) -> ModelContext:
        """Build an empty context (new caches, position 0) without adopting it."""
        factory = factory or self.cache_factory
        caches = [factory.create(i, self.config) for i in range(self.config.n_layers)]
        return ModelContext(caches, factory, 0)

    @contextmanager
    def temporary_context(
        self, factory: Optional[KVCacheFactory] = None
    ) -> Iterator["TransformerLM"]:
        """Run with a throwaway empty context, then restore the previous one.

        Example::

            with model.temporary_context(FullPrecisionCacheFactory()):
                reference = model.forward(token_ids)
        """
        saved = self.save_context()
        self.restore_context(self.fresh_context(factory))
        try:
            yield self
        finally:
            self.restore_context(saved)

    def cache_memory_bytes(self) -> float:
        """Total modelled KV-cache footprint across all layers."""
        return float(sum(cache.memory_bytes() for cache in self.caches))

    def advance_position(self, n_tokens: int) -> None:
        """Advance the decode position without running the model.

        For callers that install cached KV state into the per-layer caches
        directly — e.g. shared prompt-prefix blocks adopted from a serving
        block pool — so that subsequent :meth:`forward` calls assign the
        correct positions to new tokens.  The caches themselves must already
        hold ``n_tokens`` additional tokens; this only moves the position
        counter.
        """
        require(n_tokens >= 0, "n_tokens must be >= 0")
        require(
            self._next_position + n_tokens <= self.config.max_seq_len,
            f"advancing by {n_tokens} tokens exceeds max_seq_len "
            f"{self.config.max_seq_len}",
        )
        self._next_position += n_tokens

    # Forward passes -----------------------------------------------------

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Append ``token_ids`` to the context and return their logits.

        ``token_ids`` is a 1-D array; the returned logits have shape
        ``(len(token_ids), vocab_size)``.  Calling ``forward`` repeatedly
        continues the same sequence (prefill followed by single-token decode
        steps is simply ``forward(prompt)`` then ``forward([token])``).
        """
        token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
        require(token_ids.size > 0, "token_ids must contain at least one token")
        positions = np.arange(
            self._next_position, self._next_position + token_ids.size, dtype=np.int64
        )
        if int(positions[-1]) >= self.config.max_seq_len:
            raise ValueError(
                f"context length {int(positions[-1]) + 1} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        # Single-token (decode-style) forwards use the row-invariant paired
        # projection kernel so their logits match the rows of a fused batched
        # decode step bit for bit; multi-token prefill keeps full GEMMs.
        paired = token_ids.size == 1
        x = self.token_embedding(token_ids)
        if self.position_embedding is not None:
            x = x + self.position_embedding(positions)
        for layer_index, block in enumerate(self.blocks):
            observer = self._make_layer_observer(layer_index)
            x = block.forward(
                x, self.caches[layer_index], positions, kv_observer=observer,
                paired=paired,
            )
        x = self.final_norm(x)
        logits = self._project_logits(x, paired=paired)
        self._next_position += token_ids.size
        return logits

    def fused_decode_step(
        self,
        tokens: np.ndarray,
        contexts: Sequence[ModelContext],
        prof: PhaseProfiler = NULL_PROFILER,
    ) -> np.ndarray:
        """Advance ``B`` independent sequences by one token in one pass.

        ``tokens[b]`` is appended to ``contexts[b]`` (each context carries its
        own per-layer caches and position); the return value is ``(B, vocab)``
        logits.  Every layer runs one stacked traversal — norms, paired
        projections, then one ``append`` + ``attend`` per sequence against
        its own caches, so every cache scheme is supported — instead of
        ``B`` full model traversals, and each row is bit-identical to calling
        :meth:`decode_step` on that context alone (the tests' reference
        serves each request alone, through :meth:`decode_step`).  ``prof``
        receives the attention phases (see :meth:`AttentionBlock.fused_decode`).
        """
        require(not self.kv_observers, "fused decode does not support kv observers")
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        require(tokens.size == len(contexts), "one token per context required")
        require(tokens.size > 0, "tokens must contain at least one token")
        positions = np.asarray(
            [context.next_position for context in contexts], dtype=np.int64
        )
        if int(positions.max()) >= self.config.max_seq_len:
            raise ValueError(
                f"context length {int(positions.max()) + 1} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        x = self.token_embedding(tokens)
        if self.position_embedding is not None:
            x = x + self.position_embedding(positions)
        for layer_index, block in enumerate(self.blocks):
            caches = [context.caches[layer_index] for context in contexts]
            x = block.fused_decode(x, caches, positions, prof)
        x = self.final_norm(x)
        logits = self._project_logits(x, paired=True)
        for context in contexts:
            context.next_position += 1
        return logits

    def prefill(self, token_ids: np.ndarray) -> np.ndarray:
        """Process the prompt in one batch (the paper's prefill stage)."""
        return self.forward(token_ids)

    def decode_step(self, token_id: int) -> np.ndarray:
        """Generate logits for one new token (the paper's decode stage)."""
        return self.forward(np.asarray([token_id], dtype=np.int64))[0]

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        sampler=None,
        seed: SeedLike = None,
        stop_token: Optional[int] = None,
        reset: bool = True,
    ) -> np.ndarray:
        """Auto-regressively generate up to ``max_new_tokens`` tokens."""
        require(max_new_tokens >= 0, "max_new_tokens must be >= 0")
        sampler = sampler or GreedySampler()
        rng = get_rng(seed)
        if reset:
            self.reset_cache()
        logits = self.prefill(np.asarray(prompt_ids, dtype=np.int64))
        generated: list[int] = []
        next_logits = logits[-1]
        for _ in range(max_new_tokens):
            if self._next_position >= self.config.max_seq_len:
                break
            token = sampler(next_logits, rng)
            generated.append(token)
            if stop_token is not None and token == stop_token:
                break
            if self._next_position >= self.config.max_seq_len:
                break
            next_logits = self.decode_step(token)
        return np.asarray(generated, dtype=np.int64)

    # Introspection ------------------------------------------------------

    def num_parameters(self) -> int:
        total = self.token_embedding.num_parameters()
        if self.position_embedding is not None:
            total += self.position_embedding.num_parameters()
        total += sum(block.num_parameters() for block in self.blocks)
        total += self.final_norm.num_parameters()
        if self.lm_head is not None:
            total += self.lm_head.num_parameters()
        return total

    # Internal helpers ---------------------------------------------------

    def _project_logits(self, x: np.ndarray, paired: bool = False) -> np.ndarray:
        if self.lm_head is not None:
            return self.lm_head(x, paired=paired)
        if paired:
            from repro.models.tensor_ops import paired_rows_matmul

            return paired_rows_matmul(x, self.token_embedding.weight.T)
        return x @ self.token_embedding.weight.T

    def _make_layer_observer(self, layer_index: int):
        if not self.kv_observers:
            return None

        def observer(keys: np.ndarray, values: np.ndarray) -> None:
            for callback in self.kv_observers:
                callback(layer_index, keys, values)

        return observer
