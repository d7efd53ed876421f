"""Continuous-batching scheduler: priority admission, running set, completion.

The scheduler is deliberately model-agnostic — it only tracks
:class:`~repro.serving.request.RequestState` objects through their lifecycle.
Admission is **priority-class FCFS** with a ``max_batch_size`` cap on the
running set: every queued ``interactive`` request is admitted before any
queued ``best_effort`` request, and requests within one class admit in
arrival order.  A slot freed by a finishing sequence is refilled on the next
:meth:`admit` call, so the batch stays full while the queues are non-empty
(continuous batching, as opposed to static batching which would wait for the
whole batch to drain).  ``priority_aware=False`` collapses the classes into
one FIFO queue — pure FCFS, the pre-priority behavior, kept as the baseline
the ``serving.slo_load`` benchmark compares against.

Memory awareness is injected from the outside: :meth:`admit_next` accepts an
*admission gate* — a predicate supplied by the engine that consults the KV
block pool — so the scheduler itself stays free of memory policy.  The
engine's gate only requires the request's *first chunk* to fit (the rest of
the prompt streams in under the per-step token budget),
which shortens how long a large prompt blocks the head of the line; the
admitted state then stays in the running set with ``prefilling=True`` until
its chunk schedule completes (see :attr:`~ContinuousBatchingScheduler.prefilling_count`).
Admission is strictly head-of-line *within the class order*: the head of the
highest-priority non-empty queue is the only admission candidate, and if the
gate refuses it nothing younger or lower-priority is admitted past it.  That
rule is what makes the starvation guarantees composable: large interactive
requests are not starved by small ones, and best-effort requests can never
claim pool blocks an interactive request is waiting for.

Backpressure is SLO-aware when a :class:`SloPolicy` is attached: instead of
refusing submissions the moment the wait queue hits ``max_queue_size``, the
scheduler estimates the queue wait a new request of that class would see
(queued-ahead × a recency-weighted admission interval) and refuses — with
:class:`SloCapacityError`, a :class:`QueueFullError` subclass carrying a
retry hint — only when that estimate exceeds the class's SLO.  The hard
``max_queue_size`` cap remains as the memory backstop.  Callers that front a
network (the gateway) translate both errors into HTTP 429.

Two further lifecycle transitions support the block pool:

* :meth:`preempt` — a running sequence evicted under memory pressure goes to
  the *front of its priority class's queue* with status ``PREEMPTED``, so it
  is restored before newly arrived requests of the same or lower class.
  :meth:`preemption_victims` orders the running set for eviction:
  lowest-priority first, then within a class the never-preempted sequences
  youngest first, then the already-preempted ones — best-effort work is
  sacrificed before interactive work, the least-progressed sequence of a
  class (cheapest to replay) goes first, and a sequence that just came back
  from a preemption is not the next one sent away.
* :meth:`cancel` — withdraw a queued, preempted or running request; it moves
  straight to the finished set.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.serving.request import PRIORITIES, RequestState, RequestStatus
from repro.utils.validation import require

AdmissionGate = Callable[[RequestState], bool]

#: Queue label used when ``priority_aware=False`` collapses every class.
_FIFO_CLASS = "fifo"

#: EWMA smoothing factor for the admission-interval estimate.  0.25 weights
#: the last ~8 admissions — reactive enough to track a burst, smooth enough
#: that one slow prefill does not reject a whole arrival wave.
_ADMIT_EWMA_ALPHA = 0.25


class QueueFullError(RuntimeError):
    """Raised when a submission is refused for capacity (backpressure).

    Raised either because the wait queue is at the ``max_queue_size`` hard
    cap, or — through the :class:`SloCapacityError` subclass — because an
    attached :class:`SloPolicy` projects the request would miss its class's
    queue-wait SLO.  Callers that front a network (the gateway) translate
    this into an HTTP 429 instead of buffering without bound; in-process
    callers can simply retry after draining some work.
    """


class SloCapacityError(QueueFullError):
    """A submission was refused because it would miss its class's SLO.

    ``projected_wait_s`` is the scheduler's queue-wait estimate for the
    refused request; ``retry_after_s`` is a coarse hint for how long the
    client should back off (the gateway forwards it as ``Retry-After``).
    """

    def __init__(
        self, message: str, projected_wait_s: float, slo_s: float
    ) -> None:
        super().__init__(message)
        self.projected_wait_s = projected_wait_s
        self.slo_s = slo_s
        self.retry_after_s = max(1, math.ceil(projected_wait_s - slo_s))


@dataclass(frozen=True)
class SloPolicy:
    """Per-class queue-wait SLOs driving admission control.

    A class whose bound is ``None`` has no SLO — its submissions are only
    refused by the ``max_queue_size`` hard cap.  Bounds are on *queue wait*
    (submission to first admission), the component of TTFT the scheduler
    controls; prefill time is workload-dependent and excluded.
    """

    interactive_slo_s: Optional[float] = None
    best_effort_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("interactive_slo_s", "best_effort_slo_s"):
            bound = getattr(self, name)
            require(
                bound is None or bound > 0.0,
                f"{name} must be positive (or None for no SLO)",
            )

    def slo_for(self, priority: str) -> Optional[float]:
        if priority == "interactive":
            return self.interactive_slo_s
        return self.best_effort_slo_s


class ContinuousBatchingScheduler:
    """Priority-class FCFS admission into a bounded running set.

    ``max_queue_size`` bounds the *total wait* queue only (``None`` =
    unbounded): submission past the cap raises :class:`QueueFullError`.
    ``slo_policy`` layers SLO-aware admission control on top (see the module
    docstring).  Preempted sequences re-enter at their class's queue front
    regardless of either limit — eviction must never be refused, or memory
    pressure would deadlock against backpressure.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_queue_size: Optional[int] = None,
        priority_aware: bool = True,
        slo_policy: Optional[SloPolicy] = None,
    ) -> None:
        require(max_batch_size >= 1, "max_batch_size must be >= 1")
        require(
            max_queue_size is None or max_queue_size >= 1,
            "max_queue_size must be >= 1 (or None for unbounded)",
        )
        self.max_batch_size = max_batch_size
        self.max_queue_size = max_queue_size
        self.priority_aware = priority_aware
        self.slo_policy = slo_policy
        self._classes = PRIORITIES if priority_aware else (_FIFO_CLASS,)
        self._queues: dict[str, deque[RequestState]] = {
            label: deque() for label in self._classes
        }
        # Insertion order == admission order; decode steps iterate this.
        self._running: OrderedDict[str, RequestState] = OrderedDict()
        self._finished: OrderedDict[str, RequestState] = OrderedDict()
        # Recency-weighted seconds between successful admissions — the queue
        # drain rate the SLO projection extrapolates from.
        self._ewma_admit_interval_s: Optional[float] = None
        self._last_admit_at: Optional[float] = None
        # Lifetime SLO rejections by priority class (reported by stats()).
        self.slo_rejections: dict[str, int] = {label: 0 for label in PRIORITIES}

    def _class_of(self, state: RequestState) -> str:
        return state.priority if self.priority_aware else _FIFO_CLASS

    def _queued_states(self) -> Iterator[RequestState]:
        for label in self._classes:
            yield from self._queues[label]

    # Lifecycle -----------------------------------------------------------

    @property
    def queue_full(self) -> bool:
        """True when the wait queue is at its ``max_queue_size`` hard cap.

        This is the memory backstop only; with an :class:`SloPolicy`
        attached a submission may be refused well before the cap (see
        :meth:`projected_queue_wait_s`).
        """
        return (
            self.max_queue_size is not None
            and self.queued_count >= self.max_queue_size
        )

    def projected_queue_wait_s(self, priority: str) -> float:
        """Estimated queue wait a new ``priority`` submission would see.

        The estimate is (requests admitted before it) × (recency-weighted
        interval between admissions).  "Before it" counts every queued
        request of a higher or equal class — lower classes cannot delay it.
        Returns 0.0 until at least two admissions have established a drain
        rate (a cold scheduler never rejects on SLO grounds).
        """
        if self._ewma_admit_interval_s is None:
            return 0.0
        if self.priority_aware:
            ahead = 0
            for label in self._classes:
                ahead += len(self._queues[label])
                if label == priority:
                    break
        else:
            ahead = self.queued_count
        return ahead * self._ewma_admit_interval_s

    def _check_slo_capacity(self, state: RequestState) -> None:
        if self.slo_policy is None:
            return
        slo = self.slo_policy.slo_for(state.priority)
        if slo is None:
            return
        projected = self.projected_queue_wait_s(state.priority)
        if projected > slo:
            self.slo_rejections[state.priority] += 1
            raise SloCapacityError(
                f"projected queue wait {projected:.3f}s exceeds the "
                f"{state.priority} SLO of {slo:.3f}s; retry later",
                projected_wait_s=projected,
                slo_s=slo,
            )

    def submit(self, state: RequestState) -> None:
        """Enqueue a new request (status must be QUEUED).

        Raises :class:`QueueFullError` when the wait queue is at
        ``max_queue_size``, or :class:`SloCapacityError` when an attached
        :class:`SloPolicy` projects the request would miss its class's
        queue-wait SLO.
        """
        require(
            state.status is RequestStatus.QUEUED,
            f"cannot submit a request in state {state.status}",
        )
        if self.queue_full:
            raise QueueFullError(
                f"wait queue is full ({self.max_queue_size} requests); "
                "retry after in-flight work drains"
            )
        self._check_slo_capacity(state)
        require(
            state.request_id not in self._running
            and state.request_id not in self._finished
            and all(s.request_id != state.request_id for s in self._queued_states()),
            f"duplicate request id {state.request_id!r}",
        )
        state.submitted_at = time.perf_counter()
        self._queues[self._class_of(state)].append(state)

    def _admission_head(self) -> Optional[RequestState]:
        """The single admission candidate: head of the best non-empty class."""
        for label in self._classes:
            if self._queues[label]:
                return self._queues[label][0]
        return None

    def admit_next(self, gate: Optional[AdmissionGate] = None) -> Optional[RequestState]:
        """Admit the head of the highest-priority non-empty queue.

        Returns ``None`` when no request is queued, the batch is full, or
        the ``gate`` (e.g. a block-pool capacity check) refuses the head
        request.  A refused head blocks everything behind it *and* every
        lower class — admitting around it would hand its memory to younger
        or lower-priority work (head-of-line, per class order).
        """
        if len(self._running) >= self.max_batch_size:
            return None
        state = self._admission_head()
        if state is None:
            return None
        if gate is not None and not gate(state):
            return None
        self._queues[self._class_of(state)].popleft()
        state.status = RequestStatus.RUNNING
        state.admissions += 1
        now = time.perf_counter()
        if self._last_admit_at is not None:
            interval = now - self._last_admit_at
            if self._ewma_admit_interval_s is None:
                self._ewma_admit_interval_s = interval
            else:
                self._ewma_admit_interval_s += _ADMIT_EWMA_ALPHA * (
                    interval - self._ewma_admit_interval_s
                )
        self._last_admit_at = now
        if state.admitted_at is None:
            state.admitted_at = now
            if state.submitted_at is not None:
                state.queue_wait_s = state.admitted_at - state.submitted_at
        self._running[state.request_id] = state
        return state

    def admit(self, gate: Optional[AdmissionGate] = None) -> list[RequestState]:
        """Move queued requests into free running slots; return the admitted."""
        admitted: list[RequestState] = []
        while True:
            state = self.admit_next(gate)
            if state is None:
                return admitted
            admitted.append(state)

    def preempt(self, state: RequestState) -> None:
        """Evict a running request to the front of its class's queue.

        Re-entry bypasses both the hard cap and the SLO gate — eviction must
        never be refused — and the front position means the request is
        restored before newly arrived work of its own class.
        """
        require(
            state.request_id in self._running,
            f"request {state.request_id!r} is not running",
        )
        del self._running[state.request_id]
        state.status = RequestStatus.PREEMPTED
        self._queues[self._class_of(state)].appendleft(state)

    def preemption_victims(self) -> Iterator[RequestState]:
        """Running sequences in eviction-preference order.

        Lowest priority class first.  Within a class, sequences never
        preempted before come first, youngest (most recently admitted)
        first; then the ones already preempted, youngest first.  A restored
        sequence is the youngest, so age alone would pick it again and start
        its restore over.  With ``priority_aware=False`` the whole running
        set is one class.  The engine walks this order and preempts the
        first victim whose blocks would actually relieve the contended pool.
        Mid-prefill sequences (chunked admission) are ordinary candidates:
        evicting one frees its chunk blocks and its schedule restarts from
        scratch on restore.
        """
        youngest_first = list(reversed(self._running.values()))
        classes = (
            [[s for s in youngest_first if s.priority == label] for label in reversed(PRIORITIES)]
            if self.priority_aware
            else [youngest_first]
        )
        for states in classes:
            # Stable sort: never-preempted first, each group youngest first.
            yield from sorted(states, key=lambda s: s.preemptions > 0)

    def release(self, state: RequestState) -> None:
        """Mark a running request finished and free its slot."""
        require(
            state.request_id in self._running,
            f"request {state.request_id!r} is not running",
        )
        del self._running[state.request_id]
        state.status = RequestStatus.FINISHED
        self._finished[state.request_id] = state

    def cancel(self, request_id: str) -> Optional[RequestState]:
        """Withdraw a queued, preempted or running request.

        The state moves to the finished set with status ``FINISHED``; the
        caller (engine) is responsible for setting the finish reason and
        releasing any resources.  Returns ``None`` if the id is not queued or
        running (unknown, or already finished).
        """
        for queue in self._queues.values():
            for state in queue:
                if state.request_id == request_id:
                    queue.remove(state)
                    state.status = RequestStatus.FINISHED
                    self._finished[request_id] = state
                    return state
        if request_id in self._running:
            state = self._running.pop(request_id)
            state.status = RequestStatus.FINISHED
            self._finished[request_id] = state
            return state
        return None

    # Introspection -------------------------------------------------------

    @property
    def running(self) -> list[RequestState]:
        """Running sequences in admission order."""
        return list(self._running.values())

    @property
    def queued_count(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_count_by_class(self) -> dict[str, int]:
        """Queued requests per priority class (always keyed by PRIORITIES)."""
        if self.priority_aware:
            return {label: len(self._queues[label]) for label in PRIORITIES}
        counts = {label: 0 for label in PRIORITIES}
        for state in self._queues[_FIFO_CLASS]:
            counts[state.priority] += 1
        return counts

    def running_count_by_class(self) -> dict[str, int]:
        """Running sequences per priority class."""
        counts = {label: 0 for label in PRIORITIES}
        for state in self._running.values():
            counts[state.priority] += 1
        return counts

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def prefilling_count(self) -> int:
        """Running sequences whose chunked prefill has not completed yet.

        These hold a running slot (they were admitted once their first
        chunk fit) but sample no token until their schedule finishes: the
        prompt's chunks, then a restore's replay rows.
        """
        return sum(1 for state in self._running.values() if state.prefilling)

    @property
    def finished_count(self) -> int:
        return len(self._finished)

    @property
    def has_work(self) -> bool:
        """True while any request is queued or running."""
        return self.queued_count > 0 or bool(self._running)

    def finished_states(self) -> list[RequestState]:
        """Finished sequences in completion order."""
        return list(self._finished.values())

    def evict_finished(self) -> list[RequestState]:
        """Forget all finished sequences; returns the evicted states."""
        evicted = list(self._finished.values())
        self._finished.clear()
        return evicted


__all__ = [
    "AdmissionGate",
    "ContinuousBatchingScheduler",
    "QueueFullError",
    "SloCapacityError",
    "SloPolicy",
]
