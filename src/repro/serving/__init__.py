"""Batched serving layer: many sequences through one calibrated model.

* :class:`~repro.serving.request.GenerationRequest` — one prompt + limits,
  plus a :data:`~repro.serving.request.PRIORITIES` class and tenant tag;
* :class:`~repro.serving.scheduler.ContinuousBatchingScheduler` —
  priority-class FCFS admission into a bounded running set with immediate
  slot reuse, optional SLO-aware backpressure
  (:class:`~repro.serving.scheduler.SloPolicy`);
* :class:`~repro.serving.engine.BatchedMillionEngine` — swaps per-request
  :class:`~repro.models.transformer.ModelContext` objects through a shared
  model, one decode step per running sequence per engine step;
* :mod:`~repro.serving.memory` — the paged KV memory manager:
  :class:`~repro.serving.memory.BlockPool` (bounded, ref-counted quantized
  blocks with content-hash prefix sharing) and
  :class:`~repro.serving.memory.PooledPolicyCacheFactory`, the pool-backed
  cache factory the engine requires: every quality tier's policy over one
  pool (memory-aware admission, preemption, prefix sharing).
"""

from repro.serving.engine import BatchedMillionEngine, chunk_schedule
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
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    QueueFullError,
    SloCapacityError,
    SloPolicy,
)

__all__ = [
    "BatchedMillionEngine",
    "BlockPool",
    "ContinuousBatchingScheduler",
    "FinishReason",
    "GenerationRequest",
    "PRIORITIES",
    "PoolExhaustedError",
    "QueueFullError",
    "PooledMillionKVCacheLayer",
    "PooledPolicyCacheFactory",
    "RequestState",
    "RequestStatus",
    "SloCapacityError",
    "SloPolicy",
    "StepOutput",
    "chain_hashes",
    "chunk_schedule",
    "hash_token_block",
]
