"""Request and per-sequence state objects for the serving layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.models.transformer import ModelContext
from repro.utils.validation import require


#: Priority classes in admission order (highest first).  ``interactive``
#: requests are admitted before any queued ``best_effort`` request and are
#: the last preemption victims; ``best_effort`` requests absorb queueing and
#: preemption when the pool is contended.  The default is ``interactive`` so
#: priority-unaware callers keep today's FCFS behavior.
PRIORITIES = ("interactive", "best_effort")


class RequestStatus(Enum):
    """Lifecycle of a request inside the batched engine.

    ``PREEMPTED`` is a running sequence that was evicted under memory
    pressure: its KV blocks were returned to the pool and it sits at the
    front of its priority class's queue waiting to be restored by
    re-prefilling its full token history (prompt + tokens generated so far).
    """

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


class FinishReason(Enum):
    """Why a request stopped generating.

    ``ERROR`` is never produced by the engine itself — it is the finish
    marker a serving shell (the gateway's :class:`AsyncEngineRunner`) emits
    to unblock subscribers when the engine raised and can no longer make
    progress.
    """

    LENGTH = "length"
    STOP_TOKEN = "stop_token"
    CONTEXT_FULL = "context_full"
    CANCELLED = "cancelled"
    ERROR = "error"


@dataclass
class GenerationRequest:
    """One user request: a prompt plus generation limits.

    ``sampler`` follows the :mod:`repro.models.sampling` protocol (callable
    ``(logits, rng) -> token``); ``None`` means greedy, which is what makes
    batched output token-identical to sequential generation.

    ``tier`` selects a quality tier — a named cache factory registered with
    the engine (e.g. ``"quality"`` / ``"balanced"`` / ``"compact"``, each
    backed by a different quantization policy).  ``None`` uses the engine's
    default factory; unknown tiers are rejected at submission.

    ``priority`` selects a serving class (see :data:`PRIORITIES`):
    ``"interactive"`` requests are admitted ahead of ``"best_effort"`` ones
    and are preempted last under pool pressure.  ``tenant`` is an opaque tag
    carried through scheduling and tracing for per-tenant accounting; it
    never affects scheduling decisions.
    """

    prompt_ids: np.ndarray
    max_new_tokens: int
    request_id: Optional[str] = None
    stop_token: Optional[int] = None
    sampler: Optional[object] = None
    seed: Optional[int] = None
    tier: Optional[str] = None
    priority: str = "interactive"
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        # Validate at construction, not deep inside prefill: a malformed
        # request must fail in the caller's stack frame with a clear message,
        # never strand the other in-flight sequences of a batch.
        self.prompt_ids = np.asarray(self.prompt_ids, dtype=np.int64).reshape(-1)
        require(
            self.prompt_ids.size > 0,
            "prompt_ids must contain at least one token (empty prompt)",
        )
        require(
            self.max_new_tokens >= 1,
            f"max_new_tokens must be >= 1, got {self.max_new_tokens}",
        )
        require(
            self.request_id is None or self.request_id != "",
            "request_id must be None (auto-assign) or a non-empty string",
        )
        require(
            self.tier is None or (isinstance(self.tier, str) and self.tier != ""),
            "tier must be None (default) or a non-empty string",
        )
        require(
            self.priority in PRIORITIES,
            f"priority must be one of {PRIORITIES}, got {self.priority!r}",
        )
        require(
            self.tenant is None
            or (isinstance(self.tenant, str) and 0 < len(self.tenant) <= 64),
            "tenant must be None or a non-empty string of at most 64 characters",
        )


@dataclass
class RequestState:
    """Mutable per-sequence serving state owned by the engine.

    ``context`` is the sequence's private :class:`ModelContext` (per-layer
    caches + position); each engine step advances it by its segments of the
    step's one model traversal.  The history token at its position is the
    sequence's next row: its last sampled token, or during a restore its next
    replayed token.
    """

    request: GenerationRequest
    status: RequestStatus = RequestStatus.QUEUED
    context: Optional[ModelContext] = None
    generated: list[int] = field(default_factory=list)
    rng: Optional[np.random.Generator] = None
    finish_reason: Optional[FinishReason] = None
    # Number of times this sequence was evicted under memory pressure.
    preemptions: int = 0
    # Content-hash chain of the sequence's sealed KV blocks (engine-managed;
    # entry i is the chain hash covering token_history[: (i+1) * block_tokens]).
    block_hashes: list[bytes] = field(default_factory=list)
    # Engine-memoized prefill/restore chunk schedule, kept (with a resume
    # cursor) from admission until the schedule completes.  Cleared on
    # preemption and cancel.
    prefill_plan: Optional[object] = None
    # True while a pooled sequence still has prefill work (prompt chunks,
    # or a restore's replay rows): it holds a running slot but samples no
    # token until the schedule finishes.
    prefilling: bool = False
    # Lifecycle timestamps on the process-wide monotonic clock
    # (time.perf_counter), stamped by the scheduler.  ``admitted_at`` and
    # ``queue_wait_s`` cover the *first* admission only; restores after
    # preemption bump ``admissions`` without rewriting them.
    submitted_at: Optional[float] = None
    admitted_at: Optional[float] = None
    queue_wait_s: Optional[float] = None
    admissions: int = 0

    @property
    def request_id(self) -> str:
        assert self.request.request_id is not None
        return self.request.request_id

    @property
    def priority(self) -> str:
        return self.request.priority

    @property
    def generated_ids(self) -> np.ndarray:
        return np.asarray(self.generated, dtype=np.int64)

    @property
    def token_history(self) -> np.ndarray:
        """Prompt plus every token generated so far (the full replay history)."""
        return np.concatenate(
            [self.request.prompt_ids, np.asarray(self.generated, dtype=np.int64)]
        )

    @property
    def is_finished(self) -> bool:
        return self.status is RequestStatus.FINISHED


@dataclass(frozen=True)
class StepOutput:
    """What one engine step produced for one running sequence."""

    request_id: str
    token: Optional[int]
    finished: bool
    finish_reason: Optional[FinishReason] = None
