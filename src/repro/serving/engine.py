"""Batched MILLION serving engine.

One calibrated model serves many concurrent sequences: every request owns a
private :class:`~repro.models.transformer.ModelContext` (its per-layer
quantized caches + position).  Prefills swap contexts in and out of the
shared :class:`~repro.models.transformer.TransformerLM`; decode advances the
whole running batch through **one** stacked forward per step
(:meth:`TransformerLM.fused_decode_step`), whatever the batch size: the
projections and MLPs run stacked, and each sequence appends to and attends
over its own caches, exactly as it would alone.  Weights and trained PQ
codebooks are shared; per-sequence state is isolated, so with greedy
sampling the batched output is token-identical to serving each request
alone (the test suite's reference oracle, which sweeps batch shapes,
preemption, cancellation and prefix sharing against it).

Scheduling is continuous batching (see
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`): a sequence
that finishes frees its slot immediately and the next queued request is
admitted on the following step, so the running set stays full under load.

The engine takes one :class:`~repro.serving.memory.PooledPolicyCacheFactory`,
which owns the replica's one :class:`~repro.serving.memory.BlockPool`; a
request's quality tier selects a quantization policy over units of that
pool, so every request allocates from, adopts from and preempts within the
same blocks.  On top of slot-count scheduling the engine manages that
memory, and every prefill follows one resumable **chunk schedule**:

* **Chunk schedule.**  A prompt of ``P`` tokens is split at
  ``A = B * floor((P - 1) / B)`` (``B`` = pool block tokens).  The aligned
  prefix ``[0, A)`` runs in chunks of ``C`` tokens (:func:`chunk_schedule`;
  ``C`` is the largest block multiple inside ``prefill_token_budget``), each
  ending in a forced ``flush_all`` that seals its blocks and publishes them
  under token-chain hashes.  The residual tail ``[A, P)`` stays full
  precision and produces the next-token logits.  With no budget
  (``prefill_token_budget=None``, the default) one chunk covers ``[0, A)``,
  so every admitted prompt prefills within its admission step.
* **Exact prefix adoption.**  MILLION attends to PQ codes for sealed history
  and to full precision for the recent window, merged in one softmax, so a
  token's KV depends on which earlier tokens were already quantized when it
  was computed.  A request therefore adopts published blocks only up to a
  flush state its own cold run passes through: a chunk boundary, or ``A``
  on a full hit.  Adoption runs at admission and again before every
  aligned chunk, so requests admitted together compute a shared prefix
  once, and adopted, cold and restored runs of a prompt produce
  bit-identical logits.  Block content is a pure function of
  ``(token prefix, C, B)``, which is why ``C`` is fixed at construction and
  never follows load.
* **Memory-aware admission.**  The scheduler's admission gate refuses the
  queue head until the pool can cover its first chunk (minus prefix hits)
  plus one decode group of its tier's units of headroom.
* **Stall-free batching.**  Chunk sub-steps run round-robin over the
  prefilling sequences under the per-step token budget, before the fused
  decode half of the same step (Sarathi-style); a sequence decodes only
  after its schedule finishes.  Later chunks make room through the same
  preemption order as decode.
* **Preemption with recompute.**  Before each decode step the engine checks
  the pool can cover the step's flush; if not, a running sequence is
  preempted — lowest priority class first; within a class never-preempted
  sequences youngest first, then already-preempted ones (so ``best_effort``
  work is sacrificed before ``interactive`` work, and a restored sequence
  is not the next victim): its
  non-shared blocks are freed and it re-queues at the front of its class's
  queue.  Restoration replays the prompt's chunk schedule, then feeds
  every generated token back as a teacher-forced row of the fused decode
  step, one token per engine step, so a long replay never stalls the
  running streams.  Forced flushing is deterministic in the total token
  count, so the restored cache state and the next sampled token are
  bit-identical to an uncontended run (a test asserts this).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.models.sampling import GreedySampler
from repro.models.transformer import ModelContext, TransformerLM
from repro.obs.hist import BATCH_BUCKETS, Histogram, LATENCY_BUCKETS_S
from repro.obs.prof import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.quant.policy_cache import HeadGroupKVCache
from repro.serving.memory import (
    BlockPool,
    PoolExhaustedError,
    PooledMillionKVCacheLayer,
    PooledPolicyCacheFactory,
    chain_hashes,
    hash_token_block,
)
from repro.serving.request import (
    PRIORITIES,
    FinishReason,
    GenerationRequest,
    RequestState,
    RequestStatus,
    StepOutput,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, SloPolicy
from repro.utils.logging import get_logger
from repro.utils.rng import get_rng
from repro.utils.validation import require

logger = get_logger("serving")


def chunk_schedule(
    prompt_tokens: int, block_tokens: int, chunk_tokens: int
) -> tuple[int, ...]:
    """Cumulative chunk boundaries for a chunked prompt prefill.

    Boundaries below the aligned prefix ``A = B*floor((P-1)/B)`` are
    multiples of ``chunk_tokens`` (itself a multiple of the pool block size
    ``B``), followed by ``A`` itself (the possibly-partial final aligned
    chunk) and ``P`` (the residual-window tail of 1..B tokens, which stays
    pending and produces the next-token logits).  Every boundary except the
    last is a forced-flush state ``(stored == boundary, pending == 0)`` —
    the invariant that makes chunk-published blocks adoptable.
    """
    require(prompt_tokens >= 1, "prompt_tokens must be >= 1")
    require(block_tokens >= 1, "block_tokens must be >= 1")
    require(
        chunk_tokens >= block_tokens and chunk_tokens % block_tokens == 0,
        "chunk_tokens must be a positive multiple of block_tokens",
    )
    aligned = block_tokens * ((prompt_tokens - 1) // block_tokens)
    bounds = list(range(chunk_tokens, aligned, chunk_tokens))
    if aligned > 0:
        bounds.append(aligned)
    bounds.append(prompt_tokens)
    return tuple(bounds)


@dataclass
class _PrefillPlan:
    """Resumable chunk schedule of one pooled prefill or restore.

    ``aligned`` is the force-quantized prompt prefix ``A = B*floor((P-1)/B)``;
    ``bounds`` holds the cumulative :func:`chunk_schedule` boundaries of the
    prompt; ``hashes`` is the candidate block chain to look up in the pool
    (the aligned prompt prefix for a fresh request, or the sealed history of
    a preempted one); ``stored_final`` is how many tokens will sit in sealed
    blocks once the prefill/restore completes — which is what admission must
    budget for.  ``is_restore`` marks a preempted sequence whose generated
    tokens are replayed after the prompt.

    ``cursor`` is how many history tokens are already incorporated (adopted
    or computed); ``-1`` means the request has not been admitted yet.  The
    plan persists on the state across steps until the schedule completes.
    Once the cursor reaches the prompt end of a restore, the plan is
    :attr:`replaying`: the sequence joins the fused decode step as a
    teacher-forced row, one history token per step.  ``promised`` is the
    pool blocks of the first chunk, reserved from admission until that
    chunk runs; ``reused`` counts adopted tokens not yet reported in a
    trace span.
    """

    aligned: int
    hashes: tuple
    stored_final: int
    is_restore: bool
    bounds: tuple
    cursor: int = -1
    promised: int = 0
    reused: int = 0

    def next_bound(self) -> int:
        """End of the chunk that starts at the cursor."""
        return next(bound for bound in self.bounds if bound > self.cursor)

    @property
    def replaying(self) -> bool:
        """Prompt chunks done; generated tokens remain to be fed back."""
        return self.cursor >= self.bounds[-1]


class BatchedMillionEngine:
    """Serve many sequences through one model with continuous batching.

    The engine is single-threaded: :meth:`step` advances every running
    sequence by one token and performs due admissions/prefills.  Call
    :meth:`run` to drain the queue, or drive :meth:`step` yourself for
    streaming consumption.
    """

    def __init__(
        self,
        model: TransformerLM,
        factory: PooledPolicyCacheFactory,
        max_batch_size: int = 8,
        max_unclaimed_results: int = 1024,
        max_queue_size: Optional[int] = None,
        trace: Optional[TraceRecorder] = None,
        trace_track: str = "engine",
        priority_aware: bool = True,
        slo_policy: Optional[SloPolicy] = None,
        prof: Optional[PhaseProfiler] = None,
        prefill_token_budget: Optional[int] = None,
    ) -> None:
        require(max_unclaimed_results >= 1, "max_unclaimed_results must be >= 1")
        require(
            prefill_token_budget is None or prefill_token_budget >= 1,
            "prefill_token_budget must be >= 1",
        )
        require(
            isinstance(factory, PooledPolicyCacheFactory),
            "the cache factory must be a PooledPolicyCacheFactory: calibrated "
            "quantizers over the replica's block pool",
        )
        self.model = model
        # A request carrying ``tier="quality"`` builds its caches under the
        # factory's "quality" policy, over units of the same pool.
        self.factory = factory
        # Phase profiler (repro.obs.prof): attributes step wall time to named
        # kernels.  Defaults to the shared no-op so every hook costs one
        # ``enabled`` attribute check; the stacked decode forward records its
        # attention phases into it, under the engine's ``decode`` root.
        self.prof = prof if prof is not None else NULL_PROFILER
        # ``priority_aware=False`` collapses the priority classes into one
        # FIFO queue and orders preemption victims regardless of class
        # — the pre-priority behavior, kept as the baseline the
        # ``serving.slo_load`` benchmark compares against.
        self.scheduler = ContinuousBatchingScheduler(
            max_batch_size=max_batch_size,
            max_queue_size=max_queue_size,
            priority_aware=priority_aware,
            slo_policy=slo_policy,
        )
        self.max_unclaimed_results = max_unclaimed_results
        self._states: dict[str, RequestState] = {}
        # Incremental token subscription: every StepOutput is pushed through
        # these callbacks the moment it is produced (one per decoded token,
        # plus finish/cancel markers) — this is what lets the async gateway
        # stream tokens as they are decoded instead of waiting for run().
        self._output_listeners: list[Callable[[StepOutput], None]] = []
        self._unclaimed_results: dict[str, np.ndarray] = {}
        self._next_request_number = 0
        self.pool: BlockPool = factory.pool
        # Per-step prefill token budget (see the module docstring); ``None``
        # means no cap and one chunk per prompt.  The chunk size follows
        # from the budget alone — never from load — because every chunk
        # boundary is a published-block state, and two runs of a prompt must
        # pass through identical flush states for published content (and
        # hence prefix adoption) to be deterministic.  It is the largest
        # multiple of the block size inside the budget (at least one block);
        # without a budget it covers ``max_seq_len``, so any prompt's aligned
        # prefix is one chunk.
        self.prefill_token_budget = (
            None if prefill_token_budget is None else int(prefill_token_budget)
        )
        block = self.pool.block_tokens
        if self.prefill_token_budget is None:
            self._chunk_tokens = block * -(-model.config.max_seq_len // block)
        else:
            self._chunk_tokens = block * max(1, self.prefill_token_budget // block)
        # Per-tier lifetime counters ("default" = requests without a tier).
        self._tier_requests_total: dict[str, int] = {
            label: 0 for label in ("default", *factory.tier_names)
        }
        # Lifetime counters (reported by stats()).
        self.preemption_count = 0
        # Preemptions split by the victim's priority class: under pool
        # contention best_effort should absorb (nearly) all of these.
        self.priority_preemptions: dict[str, int] = {p: 0 for p in PRIORITIES}
        self.prefill_tokens_computed = 0
        self.prefill_tokens_reused = 0
        self.prefix_block_hits = 0
        self.prefix_block_misses = 0
        # Per-step timing split (reported by stats() and /metrics): wall time
        # spent admitting/prefilling vs decoding, and the rows of the last
        # fused decode step, restore replay rows included (0 when the step
        # ran no decode forward).
        self.step_count = 0
        self.fused_decode_steps = 0
        self.prefill_seconds_total = 0.0
        self.decode_seconds_total = 0.0
        self.last_prefill_seconds = 0.0
        self.last_decode_seconds = 0.0
        self.last_fused_batch_size = 0
        # Chunk accounting: sub-steps executed, and the fraction of the
        # per-step token budget the last step actually spent on prefill work
        # (0.0 when the step had no prefill work or there is no budget; may
        # exceed 1.0 — the final sub-step of a step is allowed to overshoot
        # so a budget smaller than one chunk still makes progress).
        self.prefill_chunks_total = 0
        self.last_budget_utilization = 0.0
        # Tracing + latency histograms (repro.obs).  ``trace`` defaults to
        # the shared no-op recorder so the disabled path costs one attribute
        # check per hook; the gateway hands every replica one shared recorder
        # with its own track name so all timelines land in one trace.
        self.trace = trace if trace is not None else NULL_RECORDER
        self.trace_track = trace_track
        self.queue_wait_hist = Histogram(LATENCY_BUCKETS_S)
        self.prefill_step_hist = Histogram(LATENCY_BUCKETS_S)
        self.decode_step_hist = Histogram(LATENCY_BUCKETS_S)
        self.fused_batch_hist = Histogram(BATCH_BUCKETS)
        # Pool events (evictions, adoptions) record onto this engine's track.
        self.pool.trace = self.trace
        self.pool.trace_track = trace_track

    # Submission ---------------------------------------------------------------

    def submit(self, request: GenerationRequest) -> str:
        """Queue a request; returns its (possibly auto-assigned) id."""
        if request.request_id is None:
            # Skip over ids the caller already used explicitly.
            candidate = f"req-{self._next_request_number:04d}"
            self._next_request_number += 1
            while candidate in self._states:
                candidate = f"req-{self._next_request_number:04d}"
                self._next_request_number += 1
            request.request_id = candidate
        require(
            request.request_id not in self._states,
            f"duplicate request id {request.request_id!r}",
        )
        # Reject prompts that cannot prefill: letting model.forward raise
        # mid-step would strand every other in-flight request.
        require(
            request.prompt_ids.size <= self.model.config.max_seq_len,
            f"prompt of {request.prompt_ids.size} tokens exceeds max_seq_len "
            f"{self.model.config.max_seq_len}",
        )
        # Unknown tiers fail here, in the caller's stack frame — the gateway
        # maps this ValueError to a 400 before the request ever queues.
        require(
            request.tier is None or request.tier in self.factory.tier_names,
            f"unknown tier {request.tier!r}; available tiers: "
            f"{sorted(self.factory.tier_names)}",
        )
        state = RequestState(request=request, rng=get_rng(request.seed))
        # A request the whole pool cannot hold would be force-admitted and
        # fail inside step(), taking every other stream on the replica down.
        total = min(
            request.prompt_ids.size + request.max_new_tokens,
            self.model.config.max_seq_len,
        )
        sealed_blocks = self._sealed_tokens(state, total) // self.pool.block_tokens
        needed = sealed_blocks * self._units(state)
        require(
            needed <= self.pool.num_blocks,
            f"request of {request.prompt_ids.size} prompt + "
            f"{request.max_new_tokens} new tokens needs {needed} pool blocks; "
            f"the pool holds {self.pool.num_blocks}",
        )
        # Scheduler first: a QueueFullError (backpressure) must leave no
        # trace in the engine's state table.
        self.scheduler.submit(state)
        self._states[request.request_id] = state
        self._tier_requests_total[request.tier or "default"] += 1
        if self.trace.enabled:
            self.trace.instant(
                "queued",
                track=self.trace_track,
                ts=state.submitted_at,
                request_id=request.request_id,
                args={
                    "tier": request.tier or "default",
                    "priority": request.priority,
                    "tenant": request.tenant or "",
                    "prompt_tokens": int(request.prompt_ids.size),
                    "max_new_tokens": request.max_new_tokens,
                },
            )
        return request.request_id

    def add_request(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        request_id: Optional[str] = None,
        stop_token: Optional[int] = None,
        sampler=None,
        seed: Optional[int] = None,
        tier: Optional[str] = None,
        priority: str = "interactive",
        tenant: Optional[str] = None,
    ) -> str:
        """Convenience wrapper building and submitting a :class:`GenerationRequest`."""
        return self.submit(
            GenerationRequest(
                prompt_ids=prompt_ids,
                max_new_tokens=max_new_tokens,
                request_id=request_id,
                stop_token=stop_token,
                sampler=sampler,
                seed=seed,
                tier=tier,
                priority=priority,
                tenant=tenant,
            )
        )

    def cancel(self, request_id: str) -> bool:
        """Withdraw a queued, preempted or running request.

        Frees the request's pool blocks, records the tokens
        generated so far as its result and marks it finished with reason
        ``CANCELLED``.  Returns ``False`` if the request already finished;
        raises for unknown ids.
        """
        state = self._states.get(request_id)
        require(state is not None, f"unknown request id {request_id!r}")
        if state.is_finished:
            return False
        cancelled = self.scheduler.cancel(request_id)
        assert cancelled is state
        state.finish_reason = FinishReason.CANCELLED
        state.prefill_plan = None
        state.prefilling = False
        self._release_context(state)
        state.next_logits = None
        self._record_result(state)
        if self.trace.enabled:
            self.trace.instant(
                "cancelled",
                track=self.trace_track,
                request_id=request_id,
                args={"generated": len(state.generated)},
            )
        # Subscribers (e.g. a gateway streaming this request) need a finish
        # marker even though cancel happens outside step().
        self._emit(
            StepOutput(state.request_id, None, True, FinishReason.CANCELLED)
        )
        return True

    # Token subscription -------------------------------------------------------

    def add_output_listener(self, listener: Callable[[StepOutput], None]) -> None:
        """Subscribe to every :class:`StepOutput` the moment it is produced.

        Listeners fire inside :meth:`step` (one call per decoded token and
        per finish, in decode order) and inside :meth:`cancel`; they must be
        fast and must not call back into the engine.
        """
        self._output_listeners.append(listener)

    def remove_output_listener(self, listener: Callable[[StepOutput], None]) -> None:
        self._output_listeners.remove(listener)

    def _emit(self, output: StepOutput) -> StepOutput:
        if self.trace.enabled:
            self.trace.instant(
                "finish" if output.finished else "token",
                track=self.trace_track,
                request_id=output.request_id,
                args=(
                    {"reason": output.finish_reason.value}
                    if output.finished and output.finish_reason is not None
                    else None
                ),
            )
        for listener in self._output_listeners:
            listener(output)
        return output

    # Serving loop -------------------------------------------------------------

    @contextmanager
    def _bound(self, state: RequestState) -> Iterator[TransformerLM]:
        """Swap ``state``'s context into the shared model for one operation."""
        saved = self.model.save_context()
        assert state.context is not None
        self.model.restore_context(state.context)
        try:
            yield self.model
        finally:
            state.context = self.model.save_context()
            self.model.restore_context(saved)

    def _units(self, state: RequestState) -> int:
        """Blocks per group of this request's tier (its pool units)."""
        return self.factory.tier(state.request.tier).units

    def _pooled_caches(self, state: RequestState) -> list[PooledMillionKVCacheLayer]:
        """Pool-backed caches in *unit order* (layer-major, head-groups ascending).

        Head-group composite layers contribute their pooled sub-caches in
        group order, matching the unit order of the tier in the pool — so
        position ``u`` in this list owns the tier's ``u``-th unit, which
        block adoption and publication rely on.
        """
        assert state.context is not None
        caches: list[PooledMillionKVCacheLayer] = []
        for cache in state.context.caches:
            if isinstance(cache, HeadGroupKVCache):
                caches.extend(cache.sub_caches)
            else:
                caches.append(cache)
        return caches

    def _release_context(self, state: RequestState) -> None:
        """Return the sequence's pool blocks and drop its caches."""
        if state.context is not None:
            for cache in self._pooled_caches(state):
                cache.release_blocks()
        state.context = None
        state.block_hashes = []

    def _record_result(self, state: RequestState) -> None:
        self._unclaimed_results[state.request_id] = state.generated_ids
        # Bound unclaimed-result growth the same way evict_finished() bounds
        # finished-state history: a fire-and-forget client that never calls
        # run() must not leak one result array per request forever.
        while len(self._unclaimed_results) > self.max_unclaimed_results:
            evicted_id = next(iter(self._unclaimed_results))
            del self._unclaimed_results[evicted_id]
            logger.warning(
                "dropping unclaimed result for %r (more than %d results were "
                "never collected via run(); raise max_unclaimed_results or "
                "consume results promptly)",
                evicted_id,
                self.max_unclaimed_results,
            )

    def _finish(self, state: RequestState, reason: FinishReason) -> None:
        state.finish_reason = reason
        state.prefilling = False
        self.scheduler.release(state)
        self._record_result(state)
        # Release the per-sequence KV caches immediately; keeping every
        # finished context alive would grow memory with total requests served.
        self._release_context(state)
        state.next_logits = None

    # Prefill protocol ---------------------------------------------------------

    def _history_slice(self, state: RequestState, lo: int, hi: int) -> np.ndarray:
        """``state.token_history[lo:hi]`` without materializing the history.

        Block publication needs one block's worth of tokens per seal;
        concatenating the full prompt + generated arrays each time would
        reintroduce the O(T²) per-generation copying the storage layer was
        built to avoid.
        """
        prompt = state.request.prompt_ids
        if hi <= prompt.size:
            return prompt[lo:hi]
        generated = np.asarray(
            state.generated[max(0, lo - prompt.size) : hi - prompt.size],
            dtype=np.int64,
        )
        if lo >= prompt.size:
            return generated
        return np.concatenate([prompt[lo:], generated])

    def _sealed_tokens(self, state: RequestState, total: int) -> int:
        """Tokens in sealed pool blocks once ``total`` history tokens are
        cached: the aligned prompt prefix ``A``, or ``B*floor((total-1-W)/B)``
        once decode has flushed past it (``W`` = residual window)."""
        block = self.pool.block_tokens
        aligned = block * ((state.request.prompt_ids.size - 1) // block)
        window = self.factory.recent_window
        return max(aligned, block * (max(0, total - 1 - window) // block))

    def _prefill_plan(self, state: RequestState) -> _PrefillPlan:
        """Chunk schedule of a (re)prefill; see :class:`_PrefillPlan`.

        A fresh prompt force-quantizes ``A = B*floor((P-1)/B)`` tokens —
        always leaving at least the last prompt token full-precision so the
        final forward produces next-token logits.  A preempted sequence ends
        its restore with ``max(A, B*floor((P+n-1-W)/B))`` tokens sealed
        (``W`` = residual window): what the uncontended decode path would
        have flushed by the time it computed the next token's logits.

        The plan (notably its hash chain) is memoized on the state while the
        request waits in the queue — the admission gate runs every step and
        must not rehash a long prefix each time.  The chain is seeded with
        the tier's root hash, so it only meets blocks of the same tier.
        """
        if state.prefill_plan is not None:
            return state.prefill_plan
        block = self.pool.block_tokens
        root = self.factory.tier(state.request.tier).root_hash
        prompt = state.request.prompt_ids
        aligned = block * ((prompt.size - 1) // block)
        bounds = chunk_schedule(prompt.size, block, self._chunk_tokens)
        if state.generated:
            history = state.token_history
            # The last generated token's decode step is always replayed, so
            # only blocks strictly before it are adoption candidates.
            hashes = tuple(chain_hashes(history[: history.size - 1], block, root))
            stored_final = self._sealed_tokens(state, history.size)
            state.prefill_plan = _PrefillPlan(
                aligned, hashes, stored_final, True, bounds
            )
        else:
            hashes = tuple(chain_hashes(prompt[:aligned], block, root))
            state.prefill_plan = _PrefillPlan(aligned, hashes, aligned, False, bounds)
        return state.prefill_plan

    def _round_hits(self, aligned: int, hits: int) -> int:
        """Leading chain hits a prompt with aligned prefix ``aligned`` can adopt.

        Adopting ``k`` blocks resumes from the state ``(stored == k*B,
        pending == 0)``, which must be a state the prompt's own cold run
        passes through — otherwise the tokens computed next would see a
        different quantized/full-precision split and diverge.  The cold
        chunk schedule passes through such states only at multiples of the
        chunk size below ``A`` and at ``A`` itself, so hits are capped at
        ``A`` and, short of it, rounded down to a whole number of chunks.
        """
        block = self.pool.block_tokens
        usable = min(hits, aligned // block)
        if usable * block < aligned:
            usable -= usable % (self._chunk_tokens // block)
        return usable

    def _usable_hits(self, state: RequestState, plan: _PrefillPlan, hits: int) -> int:
        """How many leading chain hits the prefill protocol can actually adopt.

        :meth:`_round_hits` for the prompt, plus one case only a restore
        reaches: with a residual window of 0, every decode step flushes to
        the block boundary before appending, so any block boundary at or
        past the prompt end is a state the original replay passed through.
        """
        if (
            plan.is_restore
            and self.factory.recent_window == 0
            and hits * self.pool.block_tokens >= state.request.prompt_ids.size
        ):
            return hits
        return self._round_hits(plan.aligned, hits)

    def _admission_gate(self, state: RequestState) -> bool:
        """Can the pool cover this request's first chunk (plus decode headroom)?

        Later chunks run under the per-step budget and make their own room
        by preempting (or being preempted) through the same victim ordering
        as decode — that is what lets a whale prompt start while the pool is
        mostly busy, instead of blocking the queue head until the whole
        prompt fits.  Without a budget the first chunk is the whole prefill.
        First chunks admitted earlier but not yet run hold their blocks'
        worth of the pool, so two admissions never count on the same room.
        """
        pool = self.pool
        plan = self._prefill_plan(state)
        hits = pool.longest_prefix(plan.hashes)
        usable = self._usable_hits(state, plan, hits)
        block = pool.block_tokens
        needed_groups = min(
            plan.stored_final // block - usable, self._chunk_tokens // block
        )
        # Cached groups this prefill will adopt leave the evictable set the
        # moment they are adopted, so they must not double as reclaimable
        # capacity for the new allocations.
        adopted_from_cache = sum(
            1 for h in plan.hashes[:usable] if pool.group_is_evictable(h)
        )
        needed = (needed_groups + 1 + adopted_from_cache) * self._units(state)
        promised = sum(
            other.prefill_plan.promised
            for other in self.scheduler.running
            if other.prefilling
        )
        return pool.can_allocate(needed + promised)

    def _register_new_blocks(self, state: RequestState) -> None:
        """Publish blocks sealed by the last forward under their chain hashes."""
        caches = self._pooled_caches(state)
        per_unit = [cache.drain_new_blocks() for cache in caches]
        n_new = len(per_unit[0])
        assert all(len(blocks) == n_new for blocks in per_unit), (
            "units sealed different block counts for one sequence"
        )
        if n_new == 0:
            return
        pool = self.pool
        block = pool.block_tokens
        prev_hash = (
            state.block_hashes[-1]
            if state.block_hashes
            else self.factory.tier(state.request.tier).root_hash
        )
        start = len(state.block_hashes)
        for j in range(n_new):
            lo = (start + j) * block
            prev_hash = hash_token_block(
                prev_hash, self._history_slice(state, lo, lo + block)
            )
            state.block_hashes.append(prev_hash)
            pool.publish(
                prev_hash, tuple(blocks[j] for blocks in per_unit)
            )

    def _adopt_published(self, state: RequestState, plan: _PrefillPlan) -> None:
        """Adopt published groups past the cursor that the schedule may skip.

        Runs at admission and again before every aligned chunk, so a prefix
        published by a request admitted in the same step — or computed while
        this one waited for budget — is computed once.  Only hits that
        :meth:`_usable_hits` proves to be states of this request's own cold
        run are taken, so adoption never changes its logits.  The adopted
        groups count as hits that the admission counted as misses.
        """
        pool = self.pool
        prof = self.prof
        if prof.enabled:
            t = prof.now()
        block = pool.block_tokens
        have = plan.cursor // block
        usable = self._usable_hits(state, plan, pool.longest_prefix(plan.hashes))
        if usable > have:
            hashes = plan.hashes[have:usable]
            groups = [pool.adopt(h) for h in hashes]
            with self._bound(state) as model:
                for unit, cache in enumerate(self._pooled_caches(state)):
                    cache.adopt_shared_blocks([g[unit] for g in groups])
                model.advance_position(len(groups) * block)
            state.block_hashes.extend(hashes)
            plan.cursor = usable * block
            plan.reused += len(groups) * block
            self.prefix_block_hits += len(groups)
            self.prefix_block_misses -= len(groups)
            self.prefill_tokens_reused += len(groups) * block
        if prof.enabled:
            prof.lap("prefill/adopt", t)

    def _begin_prefill(self, state: RequestState) -> None:
        """Admit a request into the running set with only adoption done.

        The compute — chunk forwards and the residual tail — happens in
        :meth:`_prefill_chunk_work` later in the same step; a restore's
        generated tokens are replayed by :meth:`_decode_fused`.
        Adoption runs here because the admission gate already accounted for
        the adopted groups leaving the evictable set; deferring it would let
        a decode flush in the same step evict the blocks the gate promised.
        Until the schedule completes the state is ``prefilling`` and the
        decode half of every step skips it.
        """
        begin_start = time.perf_counter()
        plan = self._prefill_plan(state)
        config = self.model.config
        tier = state.request.tier
        state.context = ModelContext(
            [self.factory.create(i, config, tier) for i in range(config.n_layers)],
            self.factory,
        )
        state.block_hashes = []
        plan.cursor = 0
        self.prefix_block_misses += len(plan.hashes)
        self._adopt_published(state, plan)
        if plan.cursor < plan.aligned:
            chunk_groups = (plan.next_bound() - plan.cursor) // self.pool.block_tokens
            plan.promised = chunk_groups * self._units(state)
        state.prefilling = True
        if self.prof.enabled:
            self.prof.record("prefill", time.perf_counter() - begin_start)

    def _end_prefill(self, state: RequestState) -> Optional[StepOutput]:
        """Prefill complete: the request decodes next, unless it is done already.

        Returns the finish output, not yet emitted, if it is done."""
        state.prefilling = False
        state.prefill_plan = None
        if state.request.max_new_tokens <= len(state.generated):
            self._finish(state, FinishReason.LENGTH)
        elif state.context.next_position >= self.model.config.max_seq_len:
            self._finish(state, FinishReason.CONTEXT_FULL)
        if state.is_finished:
            return StepOutput(state.request_id, None, True, state.finish_reason)
        return None

    def _prefill_chunk_substep(
        self, state: RequestState
    ) -> tuple[int, Optional[StepOutput]]:
        """Advance one prefilling sequence by one chunk of its prompt schedule.

        Before an aligned chunk, newly published groups are adopted (see
        :meth:`_adopt_published`).  Then one of two moves, by cursor
        position: an **aligned chunk** (forward + forced flush + publication
        — the pool protocol's sealed state) or the **residual tail**
        (pending-only forward that produces the next-token logits; no
        allocation).  A restore's schedule continues with its replay rows in
        :meth:`_decode_fused`.  Returns the tokens computed and, when a fresh
        prompt's schedule completed, the finish output (if the request
        finished immediately).  A return of ``(0, None)`` means the state
        was preempted making room for its own chunk and left the running
        set, or adopted published blocks past its prompt end.
        """
        plan = state.prefill_plan
        assert plan is not None and plan.cursor >= 0
        block = self.pool.block_tokens
        prompt_tokens = state.request.prompt_ids.size
        sub_start = time.perf_counter()
        prof = self.prof
        timing = prof.enabled
        plan.promised = 0  # the first chunk claims its own room from here
        if plan.cursor < plan.aligned:
            self._adopt_published(state, plan)
        cursor = plan.cursor
        computed = 0
        if cursor < plan.aligned:
            hi = plan.next_bound()
            demand = ((hi - cursor) // block) * self._units(state)
            if not self._ensure_decode_capacity(state, demand=demand):
                return 0, None  # preempted; restarts from scratch on restore
            if timing:
                t = prof.now()
            with self._bound(state) as model:
                caches = self._pooled_caches(state)
                model.forward(self._history_slice(state, cursor, hi))
                for cache in caches:
                    cache.flush_all()
                self._register_new_blocks(state)
            computed = hi - cursor
            plan.cursor = hi
            if timing:
                prof.lap("prefill/chunk", t)
        elif cursor < prompt_tokens:
            # Residual tail [A, P): stays pending (the existing
            # residual-window path), produces the next-token logits.
            if timing:
                t = prof.now()
            with self._bound(state) as model:
                logits = model.forward(
                    self._history_slice(state, cursor, prompt_tokens)
                )
            state.next_logits = logits[-1]
            computed = prompt_tokens - cursor
            plan.cursor = prompt_tokens
            if timing:
                prof.lap("prefill/chunk", t)
        self.prefill_tokens_computed += computed
        self.prefill_chunks_total += 1
        if timing:
            prof.record("prefill", time.perf_counter() - sub_start)
        if self.trace.enabled:
            self.trace.complete(
                "restore" if plan.is_restore else "prefill",
                sub_start,
                time.perf_counter(),
                track=self.trace_track,
                request_id=state.request_id,
                args={
                    "chunk_end": plan.cursor,
                    "tokens_computed": computed,
                    "tokens_reused": plan.reused,
                    "is_restore": plan.is_restore,
                },
            )
        plan.reused = 0
        if plan.cursor >= prompt_tokens + len(state.generated):
            return computed, self._end_prefill(state)
        return computed, None

    def _prefill_chunk_work(self) -> tuple[list[StepOutput], int]:
        """Run chunk sub-steps round-robin until the token budget is spent.

        Prefilling sequences advance in admission order, one sub-step each
        per pass, so two concurrent long prompts share the budget instead of
        the older one monopolizing it.  The budget check runs *before* each
        sub-step — a budget smaller than one chunk still guarantees one
        sub-step of forward progress per engine step (stall-free, never
        stalled-out).  Without a budget every prompt schedule runs to
        completion; a restore's replay rows run in :meth:`_decode_fused`.
        """
        outputs: list[StepOutput] = []
        budget = self.prefill_token_budget or math.inf
        spent = 0
        while True:
            pending = [
                s
                for s in self.scheduler.running
                if s.status is RequestStatus.RUNNING
                and s.prefilling
                and not s.prefill_plan.replaying
            ]
            if not pending or spent >= budget:
                break
            progressed = 0
            for state in pending:
                if spent >= budget:
                    break
                if state.status is not RequestStatus.RUNNING or not state.prefilling:
                    continue  # preempted by an earlier sub-step of this pass
                tokens, output = self._prefill_chunk_substep(state)
                spent += tokens
                progressed += tokens
                if output is not None:
                    outputs.append(self._emit(output))
            if progressed == 0:
                # Every candidate was preempted or adopted past its prompt
                # end; retry next step.
                break
        return outputs, spent

    # Preemption ---------------------------------------------------------------

    def _preempt(self, state: RequestState) -> None:
        """Evict a running sequence: free its blocks, re-queue it at the front."""
        self.preemption_count += 1
        self.priority_preemptions[state.priority] += 1
        state.preemptions += 1
        self._release_context(state)
        state.next_logits = None
        state.prefill_plan = None  # the restore plan depends on generated tokens
        state.prefilling = False  # a mid-chunk victim restarts its schedule
        self.scheduler.preempt(state)
        if self.trace.enabled:
            self.trace.instant(
                "preempted",
                track=self.trace_track,
                request_id=state.request_id,
                args={
                    "generated": len(state.generated),
                    "preemptions": state.preemptions,
                },
            )

    def _decode_block_demand(self, state: RequestState) -> int:
        """Pool blocks ``state``'s next decode step will allocate on flush."""
        caches = self._pooled_caches(state)
        return caches[0].flushable_blocks() * len(caches)

    def _ensure_decode_capacity(
        self,
        state: RequestState,
        reserved: int = 0,
        exclude: Sequence[RequestState] = (),
        demand: Optional[int] = None,
    ) -> bool:
        """Make room for ``state``'s next decode step, preempting if needed.

        ``demand`` overrides the computed decode-flush demand — chunked
        prefill passes the block cost of the next aligned chunk so a
        mid-prefill sequence claims room through the same victim ordering
        as decode.

        ``reserved`` is block demand already promised to sequences decoding
        in the same fused step — their flush allocations have not happened
        yet, so the pool must cover the sum, not just this sequence's share.
        The victim is the first candidate in
        :meth:`ContinuousBatchingScheduler.preemption_victims` order (lowest
        priority class first; within a class, never-preempted sequences
        before preempted ones, youngest first), whatever its tier: every
        tier allocates from the one pool.  ``exclude`` holds sequences that
        must not be victims: the fused path passes the states already
        collected into this step's batch, whose input token (sampled, or
        forced by a restore replay) would be lost if their context were
        freed mid-batch.  Returns ``False`` if ``state`` itself was
        preempted (every eligible candidate outranks it and the pool still
        cannot cover its flush).
        """
        pool = self.pool
        assert state.context is not None
        excluded = {id(s) for s in exclude}
        if demand is None:
            demand = self._decode_block_demand(state)
        while demand and not pool.can_allocate(reserved + demand):
            victim = next(
                (
                    candidate
                    for candidate in self.scheduler.preemption_victims()
                    if candidate.status is RequestStatus.RUNNING
                    and id(candidate) not in excluded
                ),
                state,
            )
            if victim is state:
                if self.scheduler.running_count <= 1:
                    raise PoolExhaustedError(
                        f"block pool ({pool.num_blocks} blocks) cannot "
                        f"hold a single sequence of "
                        f"{state.context.next_position} tokens; enlarge the "
                        "pool or shorten the request"
                    )
                self._preempt(state)
                return False
            self._preempt(victim)
        return True

    # Decode -------------------------------------------------------------------

    def _decode_fused(self) -> list[StepOutput]:
        """Advance every running sequence by one token in one fused forward.

        The capacity gate, sampling and finish checks run per sequence in
        admission order (sample, stop check, context check, decode — the
        order of :meth:`TransformerLM.generate`), then the surviving rows run
        as one :meth:`TransformerLM.fused_decode_step`, whatever their
        number.  A restore whose prompt chunks are done joins as a
        teacher-forced row: its input is the history token at its cursor,
        nothing is sampled or emitted, and its logits are dropped until the
        cursor reaches the end of its history, where its prefill ends.
        Outputs are emitted in admission order.
        """
        processed: list[RequestState] = []
        results: dict[str, StepOutput] = {}
        live: list[RequestState] = []
        tokens: list[int] = []
        timing = self.prof.enabled
        sample_seconds = 0.0
        sampled = 0
        # Flush blocks promised to the rows already collected.
        reserved = 0
        max_seq_len = self.model.config.max_seq_len
        for state in self.scheduler.running:
            if state.status is not RequestStatus.RUNNING:
                continue  # preempted or cancelled earlier in this very step
            plan = state.prefill_plan
            if state.prefilling and not plan.replaying:
                continue  # prompt chunks not finished; no logits to sample
            # ``exclude=live`` protects sequences already collected into this
            # fused batch: each holds an input token whose forward has not
            # run yet, so preempting one here would null its context out from
            # under the stacked decode (and orphan a sampled token).
            if not self._ensure_decode_capacity(state, reserved, exclude=live):
                continue
            processed.append(state)
            request = state.request
            assert state.context is not None
            if state.prefilling:
                token = state.generated[plan.cursor - request.prompt_ids.size]
            else:
                assert state.next_logits is not None
                if state.context.next_position >= max_seq_len:
                    self._finish(state, FinishReason.CONTEXT_FULL)
                    results[state.request_id] = StepOutput(
                        state.request_id, None, True, state.finish_reason
                    )
                    continue
                sampler = request.sampler or GreedySampler()
                if timing:
                    sample_start = time.perf_counter()
                    token = sampler(state.next_logits, state.rng)
                    sample_seconds += time.perf_counter() - sample_start
                    sampled += 1
                else:
                    token = sampler(state.next_logits, state.rng)
                state.generated.append(token)
                if request.stop_token is not None and token == request.stop_token:
                    self._finish(state, FinishReason.STOP_TOKEN)
                    results[state.request_id] = StepOutput(
                        state.request_id, token, True, state.finish_reason
                    )
                    continue
            reserved += self._decode_block_demand(state)
            live.append(state)
            tokens.append(token)
        self.last_fused_batch_size = len(live)
        if live:
            self.fused_decode_steps += 1
            logits = self.model.fused_decode_step(
                np.asarray(tokens, dtype=np.int64),
                [state.context for state in live],
                prof=self.prof,
            )
            for row, (state, token) in enumerate(zip(live, tokens)):
                state.next_logits = logits[row]
                self._register_new_blocks(state)
                if state.prefilling:
                    # Replay rows count as prefill work, as chunks do.
                    self.prefill_tokens_computed += 1
                    plan = state.prefill_plan
                    plan.cursor += 1
                    history = state.request.prompt_ids.size + len(state.generated)
                    if plan.cursor == history:
                        output = self._end_prefill(state)
                        if output is not None:
                            results[state.request_id] = output
                    continue
                if len(state.generated) >= state.request.max_new_tokens:
                    self._finish(state, FinishReason.LENGTH)
                results[state.request_id] = StepOutput(
                    state.request_id, token, state.is_finished, state.finish_reason
                )
        if timing and sampled:
            self.prof.record("decode/sample", sample_seconds, count=sampled)
        return [
            self._emit(results[state.request_id])
            for state in processed
            if state.request_id in results
        ]

    def step(self) -> list[StepOutput]:
        """One engine iteration: admit + prefill, then one decode per sequence.

        The decode half runs one stacked forward for the whole running
        batch (:meth:`_decode_fused`).  The prefill half advances every
        mid-prefill sequence by block-aligned chunks under
        ``prefill_token_budget``, so one step mixes bounded prefill work with
        a full decode of the non-prefilling batch — a long prompt makes
        forward progress without freezing in-flight streams.
        """
        step_start = time.perf_counter()
        self.step_count += 1
        admitted_count = 0
        while True:
            state = self.scheduler.admit_next(self._admission_gate)
            if (
                state is None
                and self.scheduler.running_count == 0
                and self.scheduler.queued_count > 0
            ):
                # Nothing is running, so waiting cannot free pool blocks.
                # Force the head request in: submit() refused anything larger
                # than its whole pool, so evicting cached groups makes room.
                state = self.scheduler.admit_next(gate=None)
            if state is None:
                break
            admitted_count += 1
            if state.admissions == 1 and state.queue_wait_s is not None:
                # First admission only: restores after preemption would
                # otherwise double-count one request's queue wait.
                self.queue_wait_hist.observe(state.queue_wait_s)
                if self.trace.enabled:
                    self.trace.complete(
                        "queue_wait",
                        state.submitted_at,
                        state.admitted_at,
                        track=self.trace_track,
                        request_id=state.request_id,
                        args={"tier": state.request.tier or "default"},
                    )
            self._begin_prefill(state)
        outputs, chunk_spent = self._prefill_chunk_work()
        budget = self.prefill_token_budget
        self.last_budget_utilization = (
            chunk_spent / budget if chunk_spent and budget else 0.0
        )
        decode_start = time.perf_counter()
        outputs.extend(self._decode_fused())
        decode_end = time.perf_counter()
        self.last_prefill_seconds = decode_start - step_start
        self.last_decode_seconds = decode_end - decode_start
        self.prefill_seconds_total += self.last_prefill_seconds
        self.decode_seconds_total += self.last_decode_seconds
        if self.prof.enabled:
            # The ``decode`` root phase is the same wall split exported as
            # ``decode_seconds_total``, so the kernel phases' self times sum
            # exactly to the measured decode wall (the remainder — norms,
            # MLPs, logit projection, Python glue — is ``decode`` self time).
            self.prof.record("decode", self.last_decode_seconds)
        decoded = [o for o in outputs if o.token is not None]
        if admitted_count or chunk_spent:
            self.prefill_step_hist.observe(self.last_prefill_seconds)
        if decoded or self.last_fused_batch_size:
            self.decode_step_hist.observe(self.last_decode_seconds)
            if self.last_fused_batch_size:
                self.fused_batch_hist.observe(self.last_fused_batch_size)
            if self.trace.enabled:
                self.trace.complete(
                    "decode_step",
                    decode_start,
                    decode_end,
                    track=self.trace_track,
                    args={
                        "batch": len(decoded),
                        "fused_batch": self.last_fused_batch_size,
                        "requests": sorted(o.request_id for o in decoded),
                    },
                )
        return outputs

    def run(self) -> dict[str, np.ndarray]:
        """Drain queue and running set; return generated ids per request id.

        Only results not yet returned by a previous :meth:`run` call are
        included, so alternating submissions and ``run`` calls yields each
        request exactly once.
        """
        while self.scheduler.has_work:
            self.step()
        results = self._unclaimed_results
        self._unclaimed_results = {}
        return results

    def generate_batch(
        self,
        prompts: Sequence[np.ndarray],
        max_new_tokens: int,
        stop_token: Optional[int] = None,
        sampler=None,
        seed: Optional[int] = None,
    ) -> list[np.ndarray]:
        """Serve ``prompts`` concurrently; results in submission order."""
        ids = [
            self.add_request(
                prompt,
                max_new_tokens,
                stop_token=stop_token,
                sampler=sampler,
                seed=seed,
            )
            for prompt in prompts
        ]
        results = self.run()
        batch = [results.pop(request_id) for request_id in ids]
        # Results of requests submitted outside this batch stay claimable
        # by a later run() call.
        self._unclaimed_results.update(results)
        return batch

    # Introspection ------------------------------------------------------------

    def state_of(self, request_id: str) -> RequestState:
        """Look up a request's state (queued, running, preempted or finished)."""
        require(request_id in self._states, f"unknown request id {request_id!r}")
        return self._states[request_id]

    def evict_finished(self) -> int:
        """Drop bookkeeping for finished requests; returns how many were evicted.

        A long-lived engine otherwise accumulates one :class:`RequestState`
        (request ids, generated token lists) per request ever served.  Results
        not yet claimed through :meth:`run` are dropped too, so call this only
        after consuming what you need.
        """
        evicted = self.scheduler.evict_finished()
        for state in evicted:
            del self._states[state.request_id]
            self._unclaimed_results.pop(state.request_id, None)
        return len(evicted)

    def prefix_hit_blocks(self, prompt_ids: np.ndarray) -> int:
        """Leading pool blocks a prompt would adopt if prefilled right now.

        The chain hashes cover the block-aligned prompt prefix the prefill
        protocol would force-quantize (``A = B*floor((P-1)/B)``); published
        hits are rounded the way admission rounds them (:meth:`_round_hits`),
        so the count is what a prefill could actually adopt.  The gateway's
        :class:`~repro.gateway.router.ReplicaRouter` does not call this: it
        hashes a prompt once and probes every replica's pool through
        :meth:`~repro.gateway.runner.AsyncEngineRunner.longest_prefix`.
        """
        prompt_tokens = np.asarray(prompt_ids).size
        block = self.pool.block_tokens
        aligned = block * (max(0, prompt_tokens - 1) // block)
        hits = self.pool.longest_token_prefix(prompt_ids)
        return self._round_hits(aligned, hits)

    @property
    def queue_full(self) -> bool:
        """True when a new submission would be refused with backpressure."""
        return self.scheduler.queue_full

    @property
    def running_count(self) -> int:
        return self.scheduler.running_count

    @property
    def queued_count(self) -> int:
        return self.scheduler.queued_count

    @property
    def finished_count(self) -> int:
        return self.scheduler.finished_count

    def active_cache_memory_bytes(self) -> float:
        """Total modelled KV footprint across all running sequences.

        Each cache reports its fair share of shared blocks (bytes divided by
        refcount), so this aggregate counts a shared prefix once no matter
        how many sequences reference it.
        """
        total = 0.0
        for state in self.scheduler.running:
            if state.context is not None:
                total += sum(cache.memory_bytes() for cache in state.context.caches)
        return total

    def tier_stats(self) -> dict:
        """Per-tier serving statistics (``"default"`` = untiered requests).

        ``kv_bytes`` is the live KV footprint of the tier's running
        sequences (pool-backed caches report fair shares of shared blocks);
        ``policy_bytes_per_token`` is the tier policy's modelled steady-state
        cost.
        """
        tiers: dict[str, dict] = {}
        for label, name in (("default", None), *((n, n) for n in self.factory.tier_names)):
            tiers[label] = {
                "running": 0,
                "kv_bytes": 0.0,
                "requests_total": self._tier_requests_total[label],
                "policy_bytes_per_token": self.factory.bytes_per_token(name),
            }
        for state in self.scheduler.running:
            label = state.request.tier or "default"
            tiers[label]["running"] += 1
            if state.context is not None:
                tiers[label]["kv_bytes"] += float(
                    sum(cache.memory_bytes() for cache in state.context.caches)
                )
        return tiers

    def priority_stats(self) -> dict:
        """Per-priority-class serving statistics.

        Always keyed by every class in :data:`PRIORITIES`, even when the
        scheduler runs priority-unaware (classes then share one FIFO queue
        but requests still carry their class tag).  ``slo_rejections`` counts
        submissions refused by the scheduler's SLO admission gate.
        """
        queued = self.scheduler.queued_count_by_class()
        running = self.scheduler.running_count_by_class()
        return {
            label: {
                "queued": queued[label],
                "running": running[label],
                "preemptions": self.priority_preemptions[label],
                "slo_rejections": self.scheduler.slo_rejections[label],
            }
            for label in PRIORITIES
        }

    def stats(self) -> dict:
        """Aggregate serving statistics: queues, memory, pool utilization."""
        return {
            "running": self.scheduler.running_count,
            "prefilling": self.scheduler.prefilling_count,
            "queued": self.scheduler.queued_count,
            "finished": self.scheduler.finished_count,
            "unclaimed_results": len(self._unclaimed_results),
            "active_cache_memory_bytes": self.active_cache_memory_bytes(),
            "preemptions": self.preemption_count,
            "prefill_tokens_computed": self.prefill_tokens_computed,
            "prefill_tokens_reused": self.prefill_tokens_reused,
            "prefix_block_hits": self.prefix_block_hits,
            "prefix_block_misses": self.prefix_block_misses,
            "step_timing": {
                "steps": self.step_count,
                "fused_decode_steps": self.fused_decode_steps,
                "last_fused_batch_size": self.last_fused_batch_size,
                "last_prefill_seconds": self.last_prefill_seconds,
                "last_decode_seconds": self.last_decode_seconds,
                "prefill_seconds_total": self.prefill_seconds_total,
                "decode_seconds_total": self.decode_seconds_total,
                "prefill_token_budget": self.prefill_token_budget,
                "prefill_chunks_total": self.prefill_chunks_total,
                "last_budget_utilization": self.last_budget_utilization,
            },
            "pool": self.pool.stats(),
            "phases": self.prof.snapshot(),
            "tiers": self.tier_stats(),
            "priority": self.priority_stats(),
            "histograms": {
                "queue_wait_seconds": self.queue_wait_hist.snapshot(),
                "prefill_step_seconds": self.prefill_step_hist.snapshot(),
                "decode_step_seconds": self.decode_step_hist.snapshot(),
                "fused_batch_size": self.fused_batch_hist.snapshot(),
            },
        }


__all__ = [
    "BatchedMillionEngine",
    "chunk_schedule",
    "FinishReason",
    "GenerationRequest",
    "RequestState",
    "RequestStatus",
    "StepOutput",
]
