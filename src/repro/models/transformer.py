"""Decoder-only transformer language model with prefill/decode semantics.

The model is deliberately faithful to the structure sketched in the paper's
Fig. 1: an embedding, a stack of pre-norm attention + feed-forward blocks, a
final norm and an LM head.  The per-layer KV caches are pluggable so every
quantization scheme under study (fp16, KIVI-like, KVQuant-like, MILLION) can
be swapped in without touching the model code.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
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

#: Called with one layer's caches in append order and each one's
#: ``(rows, seal)``; its context spans their appends and attends (see
#: :meth:`TransformerLM.forward_segments`).
ShareRuns = Callable[
    [Sequence[KVCacheLayer], Sequence[tuple[int, bool]]], AbstractContextManager
]


def no_sharing(
    caches: Sequence[KVCacheLayer], appends: Sequence[tuple[int, bool]]
) -> AbstractContextManager:
    """Every cache reconstructs its own stored rows."""
    return nullcontext()


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


@dataclass
class Segment:
    """Tokens one context advances by in :meth:`TransformerLM.forward_segments`.

    ``seal`` runs ``flush_all`` on each layer's cache right after the
    segment's append and attend (a prefill chunk that ends on a published
    block boundary) and skips the final norm and LM head: a sealed segment
    has no logits.  ``seconds`` is filled by the traversal with a
    multi-token segment's own block and head time (0 for single tokens,
    which run stacked).
    """

    context: ModelContext
    token_ids: np.ndarray
    seal: bool = False
    seconds: float = 0.0


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
        self.sync_weight()

    def sync_weight(self) -> None:
        """Refresh the float64 copy of ``weight`` (after writing it in place).

        :func:`rms_norm` computes in float64; upcasting the weight once
        spares every call that copy.
        """
        self._weight64 = self.weight.astype(np.float64)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "rmsnorm":
            return rms_norm(x, self._weight64, eps=self.eps)
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
        caches: Sequence[KVCacheLayer],
        positions: np.ndarray,
        kv_observer=None,
        prof: PhaseProfiler = NULL_PROFILER,
    ) -> np.ndarray:
        """One block step over one context's rows, or over stacked single-token
        rows of ``len(caches)`` sequences (see :meth:`AttentionBlock.forward`).

        Norms, residual adds and activations are row-wise, and stacked rows
        use the row-invariant paired projections, so each stacked row is
        bit-identical to running its sequence alone.
        """
        paired = len(caches) == x.shape[0]
        x = x + self.attention.forward(
            self.attention_norm(x), caches, positions, kv_observer, prof
        )
        return x + self.feed_forward(self.ffn_norm(x), paired=paired)

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

    # Forward passes -----------------------------------------------------

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Append ``token_ids`` to the live context and return their logits.

        ``token_ids`` is a 1-D array; the returned logits have shape
        ``(len(token_ids), vocab_size)``.  Calling ``forward`` repeatedly
        continues the same sequence (prefill followed by single-token decode
        steps is simply ``forward(prompt)`` then ``forward([token])``).  It is
        one segment of :meth:`forward_segments`.
        """
        context = self.save_context()
        (logits,) = self.forward_segments([Segment(context, token_ids)])
        self._next_position = context.next_position
        return logits

    def forward_segments(
        self,
        segments: Sequence[Segment],
        prof: PhaseProfiler = NULL_PROFILER,
        share: ShareRuns = no_sharing,
    ) -> list[Optional[np.ndarray]]:
        """Advance every segment's context by its tokens in one traversal.

        Each segment appends to and attends over its own context's caches,
        after the earlier segments of the same context, exactly as if the
        segments ran one by one.  Per layer, every multi-token segment runs
        the block over its own rows with plain GEMMs (a context's prefill
        chunk), then all single-token segments run stacked through the
        row-invariant paired projections (decode rows), so every segment's
        output is bit-identical to running it alone.  A sealed segment's
        caches are flushed right after its block step, so a context's
        multi-token segments must precede its single-token ones, and a sealed
        single-token segment must be its context's last.  Each layer's
        segments run inside one ``share(caches, appends)`` context, which
        may arrange for caches holding equal stored rows to reconstruct them
        once for all of them (see
        :func:`repro.serving.memory.shared_prefix_runs`); building it counts
        as ``decode/attend`` time, without an attend count.

        Returns each segment's ``(tokens, vocab)`` logits, or ``None`` for a
        sealed segment, which skips the final norm and the LM head.  A
        multi-token segment's ``seconds`` receives its own block and head
        time; stacked rows share theirs, and ``prof`` receives their
        attention phases (see :meth:`AttentionBlock.forward`).
        """
        require(len(segments) > 0, "at least one segment required")
        require(
            len(segments) == 1 or not self.kv_observers,
            "kv observers support one segment per forward",
        )
        ids, positions, ends, row_contexts, sealed_rows = [], [], {}, set(), set()
        for segment in segments:
            tokens = np.asarray(segment.token_ids, dtype=np.int64).reshape(-1)
            require(tokens.size > 0, "token_ids must contain at least one token")
            key = id(segment.context)
            require(
                key not in sealed_rows,
                "a sealed single-token segment must be its context's last",
            )
            if tokens.size == 1:
                row_contexts.add(key)
                if segment.seal:
                    sealed_rows.add(key)
            require(
                tokens.size == 1 or key not in row_contexts,
                "a context's multi-token segments must precede its single-token ones",
            )
            start = ends.get(key, segment.context.next_position)
            end = start + tokens.size
            if end > self.config.max_seq_len:
                raise ValueError(
                    f"context length {end} exceeds max_seq_len "
                    f"{self.config.max_seq_len}"
                )
            ids.append(tokens)
            positions.append(np.arange(start, end, dtype=np.int64))
            ends[key] = end
            segment.seconds = 0.0
        chunks = [i for i, tokens in enumerate(ids) if tokens.size > 1]
        rows = [i for i, tokens in enumerate(ids) if tokens.size == 1]
        hidden = {i: self._embed(ids[i], positions[i]) for i in chunks}
        if rows:
            row_positions = np.concatenate([positions[i] for i in rows])
            x_rows = self._embed(np.concatenate([ids[i] for i in rows]), row_positions)
        appends = [(ids[i].size, segments[i].seal) for i in chunks + rows]
        for layer, block in enumerate(self.blocks):
            observer = self._make_layer_observer(layer)
            caches = [segments[i].context.caches[layer] for i in chunks + rows]
            if prof.enabled:
                began = prof.now()
            runs = share(caches, appends)
            if prof.enabled:
                prof.record("decode/attend", prof.now() - began, count=0)
            with runs:
                for i, cache in zip(chunks, caches):
                    segment = segments[i]
                    began = time.perf_counter()
                    hidden[i] = block.forward(hidden[i], [cache], positions[i], observer)
                    if segment.seal:
                        cache.flush_all()
                    segment.seconds += time.perf_counter() - began
                if rows:
                    row_caches = caches[len(chunks) :]
                    x_rows = block.forward(x_rows, row_caches, row_positions, observer, prof)
                    for i, cache in zip(rows, row_caches):
                        if segments[i].seal:
                            cache.flush_all()
        logits: list[Optional[np.ndarray]] = [None] * len(segments)
        for i in chunks:
            segment = segments[i]
            if not segment.seal:
                began = time.perf_counter()
                logits[i] = self._project_logits(self.final_norm(hidden[i]))
                segment.seconds += time.perf_counter() - began
        kept = [j for j, i in enumerate(rows) if not segments[i].seal]
        if kept:
            out = self._project_logits(self.final_norm(x_rows[kept]), paired=True)
            for n, j in enumerate(kept):
                logits[rows[j]] = out[n : n + 1]
        for segment, tokens in zip(segments, ids):
            segment.context.next_position += tokens.size
        return logits

    def fused_decode_step(
        self,
        tokens: np.ndarray,
        contexts: Sequence[ModelContext],
        prof: PhaseProfiler = NULL_PROFILER,
    ) -> np.ndarray:
        """Advance each context by one token: one-row segments of
        :meth:`forward_segments`; returns ``(len(contexts), vocab)`` logits."""
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        require(tokens.size == len(contexts), "one token per context required")
        segments = [Segment(context, tokens[b : b + 1]) for b, context in enumerate(contexts)]
        return np.concatenate(self.forward_segments(segments, prof))

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
        """Auto-regressively generate up to ``max_new_tokens`` tokens.

        Stops after the last token: nothing computes logits that no one reads.
        """
        require(max_new_tokens >= 0, "max_new_tokens must be >= 0")
        sampler = sampler or GreedySampler()
        rng = get_rng(seed)
        if reset:
            self.reset_cache()
        logits = self.prefill(np.asarray(prompt_ids, dtype=np.int64))[-1]
        generated: list[int] = []
        for _ in range(max_new_tokens):
            if self._next_position >= self.config.max_seq_len:
                break
            token = sampler(logits, rng)
            generated.append(token)
            if token == stop_token or len(generated) == max_new_tokens:
                break
            logits = self.decode_step(token)
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

    def _embed(self, token_ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        x = self.token_embedding(token_ids)
        if self.position_embedding is not None:
            x = x + self.position_embedding(positions)
        return x

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
