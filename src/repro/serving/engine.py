"""Batched MILLION serving engine.

One calibrated model serves many concurrent sequences: every request owns a
private :class:`~repro.models.transformer.ModelContext` (its per-layer
quantized caches + position).  Each engine step makes **one** model
traversal (:meth:`TransformerLM.forward_segments`) over a ragged list of
segments: prompt chunks, residual tails, restore-replay rows and decode
rows.  A chunk runs its own rows with plain GEMMs; the single-token rows run
stacked through the row-invariant projections; every segment appends to and
attends over its own caches, exactly as it would alone (per layer,
segments whose caches adopted the same prefix blocks reconstruct that
prefix once: :func:`~repro.serving.memory.shared_prefix_runs`).  Weights and
trained PQ codebooks are shared; per-sequence state is isolated, so with greedy
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
* **Stall-free batching.**  A step plans chunks round-robin over the
  prefilling sequences under the per-step token budget, then one row per
  sequence past its prompt, and runs them all in the same traversal
  (Sarathi-style); a sequence decodes only after its schedule finishes.
  Right after the traversal every sequence whose logits are its next
  token's samples and emits, so a prompt's tail and its first token share
  a step, and no row is computed for a request's final token.  A sequence
  whose next chunk starts with a block that an earlier segment of the step
  will publish sits the step out: it adopts the block right after the
  traversal publishes it and runs its next segment on the next step.
* **Preemption with recompute.**  Every planned segment's flush demand is
  reserved before the traversal; when the pool cannot cover it, a running
  sequence is preempted — lowest priority class first; within a class
  never-preempted sequences youngest first, then already-preempted ones (so
  ``best_effort`` work is sacrificed before ``interactive`` work, and a
  restored sequence is not the next victim): it leaves the step's batch,
  its non-shared blocks are freed and it re-queues at the front of its
  class's queue.  Restoration replays the prompt's chunk schedule, then
  feeds every generated token back as a teacher-forced row, one token per
  engine step, so a long replay never stalls the running streams.  Forced
  flushing is deterministic in the total token count, so the restored
  cache state and the next sampled token are bit-identical to an
  uncontended run (a test asserts this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.sampling import GreedySampler
from repro.models.transformer import ModelContext, Segment, TransformerLM
from repro.obs.hist import BATCH_BUCKETS, Histogram, LATENCY_BUCKETS_S
from repro.obs.prof import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.serving.memory import (
    BlockPool,
    PoolExhaustedError,
    PooledMillionKVCacheLayer,
    PooledPolicyCacheFactory,
    chain_hashes,
    hash_token_block,
    pooled_units,
    shared_prefix_runs,
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
    plan persists on the state across steps until the schedule completes;
    the planner advances the cursor when it plans a segment, before the
    step's traversal computes it.  Once the cursor reaches the prompt end of
    a restore, the plan is :attr:`replaying`: the sequence adds one
    teacher-forced row per step, its next history token.  ``promised`` is
    the pool blocks of the first chunk, reserved from admission until that
    chunk is planned; ``reused`` counts adopted tokens not yet reported in a
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


@dataclass
class _Batch:
    """The segments of one step's traversal and the pool room they hold.

    ``work`` lists ``(state, segment, chunk_end)`` in traversal order, with
    ``chunk_end`` the prompt position a chunk or tail ends at and ``None``
    for a decode or replay row.  ``pending`` and ``blocks`` map each
    planned state's ``id`` to the pending rows its segments leave in its
    caches and the pool blocks their flushes will allocate.
    ``publishing`` holds the chain hashes their seals will publish, and
    ``waiting`` the states that sat out to adopt them once published.
    """

    work: list = field(default_factory=list)
    pending: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
    publishing: set = field(default_factory=set)
    waiting: list = field(default_factory=list)


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
        # ``enabled`` attribute check; the traversal's stacked rows record
        # their attention phases into it, under the engine's ``decode`` root.
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
        # spent admitting/prefilling vs decoding; steps whose traversal
        # stacked single-token rows, and the last step's row count (decode
        # and replay rows, and one-token tails; 0 when it stacked none).
        self.step_count = 0
        self.fused_decode_steps = 0
        self.prefill_seconds_total = 0.0
        self.decode_seconds_total = 0.0
        self.last_prefill_seconds = 0.0
        self.last_decode_seconds = 0.0
        self.last_fused_batch_size = 0
        # Chunk accounting: prefill segments (aligned chunks and tails) run,
        # and the fraction of the per-step token budget the last step
        # actually spent on them (0.0 when the step had no prefill work or
        # there is no budget; may exceed 1.0 — the last chunk of a step is
        # allowed to overshoot so a budget smaller than one chunk still makes
        # progress).
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

    def _units(self, state: RequestState) -> int:
        """Blocks per group of this request's tier (its pool units)."""
        return self.factory.tier(state.request.tier).units

    def _pooled_caches(self, state: RequestState) -> list[PooledMillionKVCacheLayer]:
        """Pool-backed caches in *unit order* (:func:`pooled_units`): position
        ``u`` owns the tier's ``u``-th unit, which block adoption and
        publication rely on."""
        assert state.context is not None
        return pooled_units(state.context.caches)

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

        Runs at admission, before a step's first aligned chunk, and right
        after the traversal for a sequence that sat the step out, so a prefix
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
            for unit, cache in enumerate(self._pooled_caches(state)):
                cache.adopt_shared_blocks([g[unit] for g in groups])
            state.context.next_position += len(groups) * block
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

        Its chunks and tail are planned by :meth:`_plan_prefill` later in
        the same step; a restore's generated tokens are replayed as rows
        (:meth:`_plan_rows`).  Adoption runs here because the admission gate
        already accounted for the adopted groups leaving the evictable set;
        deferring it would let a flush in the same step evict the blocks the
        gate promised.  Until the schedule completes the state is
        ``prefilling``.
        """
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

    # One traversal per step ---------------------------------------------------

    def _admit(self) -> int:
        """Admit queued requests while the gate allows; returns how many."""
        admitted = 0
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
                return admitted
            admitted += 1
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

    def _plan_prefill(self, batch: _Batch) -> int:
        """Plan prompt chunks and tails round-robin under the token budget.

        Prefilling sequences take one chunk each per pass, in admission
        order, so two concurrent long prompts share the budget instead of the
        older one monopolizing it.  The budget is checked *before* each
        chunk: a budget smaller than one chunk still moves one chunk per step
        (stall-free, never stalled-out), and the last chunk may overshoot.
        Without a budget every prompt schedule is planned to its end; a
        restore's replay rows are planned by :meth:`_plan_rows`.  Returns the
        prompt tokens planned.
        """
        budget = self.prefill_token_budget or math.inf
        spent = 0
        idle: set[int] = set()  # planned all it can this step
        while spent < budget:
            pending = [
                s
                for s in self.scheduler.running
                if s.prefilling and not s.prefill_plan.replaying and id(s) not in idle
            ]
            if not pending:
                break
            for state in pending:
                if spent >= budget:
                    break
                # A state may have been preempted by an earlier chunk's room.
                rows = (
                    self._plan_chunk(batch, state)
                    if state.status is RequestStatus.RUNNING
                    else 0
                )
                spent += rows
                if rows <= 1:
                    # A one-token chunk is sealed after the stacked rows'
                    # block step, so it must be its sequence's last segment.
                    idle.add(id(state))
        return spent

    def _plan_chunk(self, batch: _Batch, state: RequestState) -> int:
        """Plan ``state``'s next aligned chunk or its residual tail.

        Before an aligned chunk the sequence adopts newly published groups
        (:meth:`_adopt_published`) — only before its first segment of the
        step, since after it its caches trail its cursor.  If groups that a
        segment planned earlier in this step will publish would let it adopt
        further, it sits the step out and adopts them once they are
        published, after the traversal, so a shared prompt is computed once.
        An aligned chunk is sealed: its blocks are
        flushed and published.  The tail ``[A, P)`` stays pending and
        produces the next-token logits.  Returns the tokens planned, 0 when
        the state plans nothing more this step.
        """
        plan = state.prefill_plan
        block = self.pool.block_tokens
        if plan.cursor < plan.aligned and id(state) not in batch.pending:
            self._adopt_published(state, plan)
        lo = plan.cursor
        if lo < plan.aligned:
            if self._sits_out(state, plan, batch.publishing):
                batch.waiting.append(state)
                return 0
            hi, seal = plan.next_bound(), True
        elif lo < state.request.prompt_ids.size:
            hi, seal = state.request.prompt_ids.size, False
        else:
            return 0  # adopted past its prompt end: it replays from here
        if not self._reserve(batch, state, hi - lo, seal):
            return 0
        plan.promised = 0  # the first chunk's room is reserved in the batch now
        if seal:
            batch.publishing.update(plan.hashes[lo // block : hi // block])
        plan.cursor = hi
        segment = Segment(state.context, self._history_slice(state, lo, hi), seal)
        batch.work.append((state, segment, hi))
        return hi - lo

    def _sits_out(self, state: RequestState, plan: _PrefillPlan, publishing: set) -> bool:
        """Would the groups in ``publishing`` let ``state`` adopt past its cursor?"""
        pool, hashes = self.pool, plan.hashes
        have = hits = plan.cursor // pool.block_tokens
        while hits < len(hashes) and (
            hashes[hits] in publishing or pool.lookup(hashes[hits]) is not None
        ):
            hits += 1
        return self._usable_hits(state, plan, hits) > have

    def _plan_rows(self, batch: _Batch) -> None:
        """One row per running sequence past its prompt, in admission order.

        A row is the history token at the sequence's position: a decoding
        sequence's last sampled token, or a restore's next replayed token
        (its first one right after its tail, if that was planned this step).
        A sequence whose position is already at its history's end — a prompt
        whose tail was planned this step — samples after the traversal
        instead.  A sequence preempted to make room for its own row has no
        row.
        """
        for state in self.scheduler.running:
            plan = state.prefill_plan
            if state.status is not RequestStatus.RUNNING or (
                state.prefilling and not plan.replaying
            ):
                continue
            position = plan.cursor if state.prefilling else state.context.next_position
            if position == state.request.prompt_ids.size + len(state.generated):
                continue
            if not self._reserve(batch, state, 1, seal=False):
                continue
            token = self._history_slice(state, position, position + 1)
            batch.work.append((state, Segment(state.context, token), None))
            if state.prefilling:
                plan.cursor += 1

    def _after_traversal(
        self, batch: _Batch, logits: list, start: float, end: float
    ) -> list[StepOutput]:
        """Count, publish, then sample each sequence at its next token.

        Prompt chunks and tails are prefill work — one ``prefill/chunk``
        record and one trace span each — and replay rows count as prefill
        tokens.  A sequence samples once its position reaches the end of its
        history (a fresh prompt's tail, a restore's last replay row, a decode
        row), with the finish checks in :meth:`TransformerLM.generate`'s
        order: context full (no sample), stop token, length.  Outputs are
        emitted in traversal order.
        """
        prof, trace = self.prof, self.trace
        last: dict[int, tuple] = {}  # each state's last segment's logits
        for (state, segment, chunk_end), out in zip(batch.work, logits):
            last[id(state)] = (state, out)
            if chunk_end is None:
                if state.prefilling:  # a replay row
                    self.prefill_tokens_computed += 1
                continue
            plan = state.prefill_plan
            tokens = segment.token_ids.size
            self.prefill_tokens_computed += tokens
            self.prefill_chunks_total += 1
            if prof.enabled:
                prof.record("prefill/chunk", segment.seconds)
            if trace.enabled:
                trace.complete(
                    "restore" if plan.is_restore else "prefill",
                    start,
                    end,
                    track=self.trace_track,
                    request_id=state.request_id,
                    args={
                        "chunk_end": chunk_end,
                        "tokens_computed": tokens,
                        "tokens_reused": plan.reused,
                        "is_restore": plan.is_restore,
                    },
                )
            plan.reused = 0
        outputs = []
        sample_seconds, sampled = 0.0, 0
        max_seq_len = self.model.config.max_seq_len
        for state, out in last.values():
            self._register_new_blocks(state)
            request = state.request
            position = state.context.next_position
            if position < request.prompt_ids.size + len(state.generated):
                continue  # mid-prompt or mid-replay: no token yet
            state.prefilling = False
            state.prefill_plan = None
            if position >= max_seq_len:
                self._finish(state, FinishReason.CONTEXT_FULL)
                outputs.append(
                    self._emit(StepOutput(state.request_id, None, True, state.finish_reason))
                )
                continue
            sampler = request.sampler or GreedySampler()
            sample_start = time.perf_counter()
            token = sampler(out[-1], state.rng)
            sample_seconds += time.perf_counter() - sample_start
            sampled += 1
            state.generated.append(token)
            if request.stop_token is not None and token == request.stop_token:
                self._finish(state, FinishReason.STOP_TOKEN)
            elif len(state.generated) >= request.max_new_tokens:
                self._finish(state, FinishReason.LENGTH)
            outputs.append(
                self._emit(
                    StepOutput(state.request_id, token, state.is_finished, state.finish_reason)
                )
            )
        if prof.enabled and sampled:
            prof.record("decode/sample", sample_seconds, count=sampled)
        return outputs

    # Preemption ---------------------------------------------------------------

    def _preempt(self, state: RequestState) -> None:
        """Evict a running sequence: free its blocks, re-queue it at the front."""
        self.preemption_count += 1
        self.priority_preemptions[state.priority] += 1
        state.preemptions += 1
        self._release_context(state)
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

    def _reserve(self, batch: _Batch, state: RequestState, rows: int, seal: bool) -> bool:
        """Reserve the pool blocks a planned segment's flushes will allocate.

        The demand follows from the pending rows ``state``'s earlier segments
        in this batch leave behind (a restore's tail before its first replay
        row): the append flushes whole blocks beyond the residual window, and
        a seal flushes every whole block left.  Returns ``False`` when the
        segment cannot run because ``state`` was preempted.
        """
        pending = batch.pending.get(id(state))
        if pending is None:
            pending = self._pooled_caches(state)[0].flush_state[1]
        window, block = self.factory.recent_window, self.pool.block_tokens
        flushed = max(0, (pending - window) // block)
        pending += rows - flushed * block
        if seal:
            flushed += pending // block
            pending %= block
        demand = flushed * self._units(state)
        if not self._make_room(state, demand, batch):
            return False
        batch.blocks[id(state)] = batch.blocks.get(id(state), 0) + demand
        batch.pending[id(state)] = pending
        return True

    def _make_room(self, state: RequestState, demand: int, batch: _Batch) -> bool:
        """Make the pool cover ``demand`` blocks beside the batch's reserved ones.

        While it cannot, the first sequence in
        :meth:`ContinuousBatchingScheduler.preemption_victims` order is
        preempted (lowest priority class first; within a class,
        never-preempted sequences before preempted ones, youngest first),
        whatever its tier: every tier allocates from the one pool.  A victim
        leaves the batch with its planned segments and their room, so the
        traversal never runs a preempted sequence.  Returns ``False`` if
        ``state`` itself was preempted.
        """
        pool = self.pool
        while demand and not pool.can_allocate(sum(batch.blocks.values()) + demand):
            victim = next(iter(self.scheduler.preemption_victims()))
            if victim is state and self.scheduler.running_count <= 1:
                raise PoolExhaustedError(
                    f"block pool ({pool.num_blocks} blocks) cannot "
                    f"hold a single sequence of "
                    f"{state.context.next_position} tokens; enlarge the "
                    "pool or shorten the request"
                )
            batch.work = [item for item in batch.work if item[0] is not victim]
            batch.blocks.pop(id(victim), None)
            batch.pending.pop(id(victim), None)
            self._preempt(victim)
            if victim is state:
                return False
        return True

    def step(self) -> list[StepOutput]:
        """One engine iteration: admit, plan, one model traversal, then emit.

        Planning collects the step's segments — prompt chunks and tails under
        ``prefill_token_budget`` (:meth:`_plan_prefill`), then one row per
        sequence past its prompt (:meth:`_plan_rows`) — and reserves their
        pool room.  :meth:`TransformerLM.forward_segments` advances them all
        in one traversal, and :meth:`_after_traversal` publishes sealed
        blocks and samples each sequence whose logits are its next token's.
        A long prompt makes bounded progress per step without freezing
        in-flight streams.
        """
        step_start = time.perf_counter()
        self.step_count += 1
        admitted = self._admit()
        batch = _Batch()
        spent = self._plan_prefill(batch)
        planned = time.perf_counter()
        self._plan_rows(batch)
        segments = [segment for _, segment, _ in batch.work]
        logits = (
            self.model.forward_segments(segments, self.prof, share=shared_prefix_runs)
            if segments
            else []
        )
        traversed = time.perf_counter()
        outputs = self._after_traversal(batch, logits, planned, traversed)
        adopting = time.perf_counter()
        for state in batch.waiting:
            if state.status is RequestStatus.RUNNING:  # unless a later victim
                self._adopt_published(state, state.prefill_plan)
        step_end = time.perf_counter()
        chunks = [segment for _, segment, end in batch.work if end is not None]
        rows = sum(1 for segment in segments if segment.token_ids.size == 1)
        budget = self.prefill_token_budget
        self.last_budget_utilization = spent / budget if spent and budget else 0.0
        # Prefill is admission, chunk planning, the chunks' own block time
        # inside the traversal and the sat-out adoptions after it; the rest
        # of the step is decode.
        self.last_prefill_seconds = (
            planned - step_start + sum(c.seconds for c in chunks) + step_end - adopting
        )
        self.last_decode_seconds = step_end - step_start - self.last_prefill_seconds
        self.prefill_seconds_total += self.last_prefill_seconds
        self.decode_seconds_total += self.last_decode_seconds
        self.last_fused_batch_size = rows
        self.fused_decode_steps += int(rows > 0)
        if self.prof.enabled:
            # The roots are the same wall split exported as the two seconds
            # totals, so the kernel phases' self times sum exactly to them
            # (the remainder — norms, MLPs, logit projection, Python glue —
            # is the roots' self time).
            self.prof.record("prefill", self.last_prefill_seconds)
            self.prof.record("decode", self.last_decode_seconds)
        decoded = [o for o in outputs if o.token is not None]
        if admitted or chunks:
            self.prefill_step_hist.observe(self.last_prefill_seconds)
        if decoded or rows:
            self.decode_step_hist.observe(self.last_decode_seconds)
            if rows:
                self.fused_batch_hist.observe(rows)
            if self.trace.enabled:
                self.trace.complete(
                    "decode_step",
                    planned,
                    step_end,
                    track=self.trace_track,
                    args={
                        "batch": len(decoded),
                        "fused_batch": rows,
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
