"""Async driver for one :class:`~repro.serving.engine.BatchedMillionEngine`.

The engine is synchronous and single-threaded by design; the runner is the
bridge between it and the asyncio gateway:

* a background *stepper* task calls ``engine.step()`` in the default thread
  executor whenever the engine has work, so the event loop stays responsive
  while a long prefill runs;
* every engine interaction (submit, cancel, stats, eviction) is serialized
  behind one :class:`asyncio.Lock` — the engine itself never sees
  concurrency;
* the engine's incremental output hook
  (:meth:`~repro.serving.engine.BatchedMillionEngine.add_output_listener`)
  fans each :class:`~repro.serving.request.StepOutput` out to a per-request
  :class:`asyncio.Queue` the moment the token is decoded, which is what the
  SSE handler streams from.

The listener runs on the executor thread mid-``step``; it only performs a
dict lookup and a ``call_soon_threadsafe`` hand-off, so the decode loop is
never blocked on a slow client (the queue buffers, bounded by the request's
``max_tokens``).
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.serving.engine import BatchedMillionEngine
from repro.serving.request import FinishReason, GenerationRequest, StepOutput
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError, require

logger = get_logger("gateway")


class ReplicaFailedError(RuntimeError):
    """The replica's stepper died on an engine exception; see ``__cause__``."""


class AsyncEngineRunner:
    """Drive one engine replica on a background stepper task.

    ``evict_after`` bounds finished-request bookkeeping: once that many
    finished states accumulate the runner evicts them (their tokens were
    already streamed through the per-request queues, so nothing is lost).
    """

    def __init__(
        self,
        engine: BatchedMillionEngine,
        name: str = "replica-0",
        evict_after: int = 64,
    ) -> None:
        require(evict_after >= 1, "evict_after must be >= 1")
        self.engine = engine
        self.name = name
        self.evict_after = evict_after
        self._lock = asyncio.Lock()
        self._queues: dict[str, asyncio.Queue] = {}
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.steps = 0
        # Set when the stepper dies on an engine exception; the replica
        # refuses further work and the router stops placing requests on it.
        self.error: Optional[BaseException] = None

    # Lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Attach to the running loop and launch the stepper task."""
        require(self._task is None, f"runner {self.name!r} already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self.engine.add_output_listener(self._on_output)
        self._task = asyncio.create_task(self._step_loop(), name=f"stepper-{self.name}")

    async def stop(self) -> None:
        """Stop the stepper; in-flight requests are abandoned, not cancelled."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        self.engine.remove_output_listener(self._on_output)

    @property
    def started(self) -> bool:
        return self._task is not None

    # Request plumbing -----------------------------------------------------

    async def submit(
        self, request: GenerationRequest
    ) -> tuple[str, "asyncio.Queue[StepOutput]"]:
        """Queue a request; returns its id and the queue its outputs land on.

        Raises :class:`~repro.serving.scheduler.QueueFullError` when the
        replica's wait queue is at capacity (the server maps this to 429)
        and ``ValueError`` for invalid requests — both before any state is
        created.
        """
        require(self._task is not None, f"runner {self.name!r} is not started")
        if self.error is not None:
            raise ReplicaFailedError(
                f"replica {self.name!r} failed and accepts no new requests"
            ) from self.error
        async with self._lock:
            request_id = self.engine.submit(request)
            # Register under the lock so no step can emit for this id before
            # the queue exists.
            queue: asyncio.Queue[StepOutput] = asyncio.Queue()
            self._queues[request_id] = queue
        if self.engine.trace.enabled:
            self.engine.trace.instant(
                "submit",
                track="gateway",
                request_id=request_id,
                args={"replica": self.name},
            )
        assert self._wake is not None
        self._wake.set()
        return request_id, queue

    async def cancel(self, request_id: str) -> bool:
        """Propagate a client disconnect (or explicit abort) to the engine.

        The engine emits a ``CANCELLED`` finish marker through the output
        hook, so a consumer blocked on the request's queue wakes up.
        Returns ``False`` if the request already finished.
        """
        async with self._lock:
            try:
                return self.engine.cancel(request_id)
            except ValidationError:
                # Already evicted: the request finished long ago.
                return False

    def release(self, request_id: str) -> None:
        """Drop the per-request queue once its consumer is done."""
        self._queues.pop(request_id, None)

    async def stats(self) -> dict:
        """Engine statistics snapshot, serialized against the stepper."""
        async with self._lock:
            return self.engine.stats()

    # Routing probes (lock-free; approximate by design) --------------------

    @property
    def load(self) -> int:
        """Queued + running requests — the router's least-loaded signal.

        Read without the lock: both counts are plain ``len()`` reads, and a
        router decision made one step early or late is still correct.
        """
        return self.engine.queued_count + self.engine.running_count

    @property
    def queue_full(self) -> bool:
        """True when this replica must not receive new work (full or failed)."""
        return self.error is not None or self.engine.queue_full

    def longest_prefix(self, hashes, block_tokens: int) -> int:
        """Published leading groups for a precomputed chain-hash sequence.

        The router hashes a prompt once and probes every replica with the
        same chain, so routing costs one hash pass per request instead of
        one per replica.  Returns 0 when the pool's block size differs from
        the chain's (the hashes would not correspond to this pool's groups).
        """
        pool = self.engine.pool
        if pool.block_tokens != block_tokens:
            return 0
        return pool.longest_prefix(hashes)

    # Stepper --------------------------------------------------------------

    def _on_output(self, output: StepOutput) -> None:
        # Called from the executor thread mid-step (or the loop thread for
        # cancel); hand off to the loop without touching asyncio.Queue
        # internals from the wrong thread.
        queue = self._queues.get(output.request_id)
        if queue is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(queue.put_nowait, output)

    async def _step_loop(self) -> None:
        assert self._loop is not None and self._wake is not None
        try:
            while True:
                self._wake.clear()
                async with self._lock:
                    has_work = self.engine.scheduler.has_work
                    if has_work:
                        await self._loop.run_in_executor(None, self.engine.step)
                        self.steps += 1
                        if self.engine.finished_count >= self.evict_after:
                            self.engine.evict_finished()
                if has_work:
                    # Yield so SSE handlers drain their queues between steps.
                    await asyncio.sleep(0)
                else:
                    # clear() above happens before the has_work read, so a
                    # submit racing this branch has already set the event and
                    # wait() returns immediately — no lost wakeups.
                    await self._wake.wait()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # An engine exception raised inside step() must not wedge the
            # replica silently: record the failure, unblock every waiting
            # consumer with an ERROR finish, and let the router route around
            # this replica (queue_full).
            self.error = exc
            logger.exception(
                "stepper for %s died; failing the replica and unblocking "
                "%d in-flight request(s)",
                self.name,
                len(self._queues),
            )
            for request_id, queue in list(self._queues.items()):
                queue.put_nowait(
                    StepOutput(request_id, None, True, FinishReason.ERROR)
                )


__all__ = ["AsyncEngineRunner", "ReplicaFailedError"]
