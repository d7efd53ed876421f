"""Reference oracles for the serving engine's identity suites.

The engine decodes its running batch through one fused stacked forward, so
the suites need an answer computed without it.  Two oracles live here:

* :func:`solo` serves every request alone on a fresh single-slot engine
  and a fresh pool.  A batch of one never stacks (it is below
  ``FUSED_MIN_BATCH``), so the run decodes through per-sequence
  ``model.decode_step`` and ``cache.attend`` and never touches
  :class:`~repro.core.attention_fused.FusedMillionAttention`; nothing else
  is scheduled beside it.
* :func:`oracle_logits` spells out the unbounded chunk schedule on the bare
  model: forward ``[0, A)``, flush, forward ``[A, P)``, then greedy decode.

Comparisons are exact (``assert_array_equal``): batching, preemption,
cancellation and prefix adoption must not change a single bit.

:func:`pooled` wraps a calibrated factory in a fresh block pool, the only
form the serving engine accepts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.serving import BatchedMillionEngine, BlockPool, PooledMillionCacheFactory

#: Default pool of :func:`pooled`: room for everything a test serves, so
#: nothing is evicted or preempted unless a test sizes the pool to force it.
POOL_BLOCKS = 1024
BLOCK_TOKENS = 4


def pooled(model, factory, *, num_blocks: int = POOL_BLOCKS, block_tokens: int = BLOCK_TOKENS):
    """A calibrated ``MillionCacheFactory`` over a fresh ``num_blocks``-block
    pool of ``block_tokens``-token blocks."""
    pool = BlockPool.for_model(
        model.config, factory.million_config,
        num_blocks=num_blocks, block_tokens=block_tokens,
    )
    return PooledMillionCacheFactory.from_factory(factory, pool)


class RecordingSampler:
    """Greedy sampler that keeps every logits vector it samples from."""

    def __init__(self):
        self.logits = []

    def __call__(self, logits, rng):
        self.logits.append(np.array(logits, copy=True))
        return int(np.argmax(logits))


def oracle_logits(model, factory, prompt, n_tokens, block_tokens):
    """The unbounded chunk schedule spelled out: forward ``[0, A)``, flush
    every cache, forward ``[A, P)``, then greedy single-token decode."""
    aligned = block_tokens * ((prompt.size - 1) // block_tokens)
    with model.temporary_context(factory) as m:
        if aligned:
            m.forward(prompt[:aligned])
            for cache in m.caches:
                cache.flush_all()
        logits = [m.forward(prompt[aligned:])[-1]]
        for _ in range(n_tokens - 1):
            logits.append(m.decode_step(int(np.argmax(logits[-1]))))
    return logits


def served_logits(engine, prompts, n_tokens):
    """Serve ``prompts`` in one batch; every request's sampled logits."""
    samplers = [RecordingSampler() for _ in prompts]
    for prompt, sampler in zip(prompts, samplers):
        engine.add_request(prompt, max_new_tokens=n_tokens, sampler=sampler)
    engine.run()
    return [sampler.logits for sampler in samplers]


def assert_logits_equal(want, got):
    assert len(want) == len(got)
    for step, (a, b) in enumerate(zip(want, got)):
        np.testing.assert_array_equal(a, b, err_msg=f"logits differ at step {step}")


def solo(
    model,
    factory,
    prompts,
    max_new_tokens: int,
    *,
    num_blocks: int = POOL_BLOCKS,
    block_tokens: int = BLOCK_TOKENS,
    budget: Optional[int] = None,
    record_logits: bool = False,
    **request,
) -> list:
    """Serve each prompt alone; its tokens, or its sampled logits.

    ``factory`` is a calibrated ``MillionCacheFactory``; every prompt gets
    its own ``num_blocks``-block pool of ``block_tokens``-token blocks
    (:func:`pooled`), and ``budget`` is the engine's ``prefill_token_budget``
    (the chunk size, which the logits depend on).  ``request`` holds the
    remaining :meth:`BatchedMillionEngine.add_request` arguments (stop
    token, sampler, seed).  With ``record_logits`` the sampler is a greedy
    :class:`RecordingSampler` and the result is each prompt's list of
    sampled logits.
    """
    results = []
    for prompt in prompts:
        engine = BatchedMillionEngine(
            model,
            pooled(model, factory, num_blocks=num_blocks, block_tokens=block_tokens),
            max_batch_size=1,
            prefill_token_budget=budget,
        )
        if record_logits:
            (logits,) = served_logits(engine, [prompt], max_new_tokens)
            results.append(logits)
        else:
            (tokens,) = engine.generate_batch([prompt], max_new_tokens, **request)
            results.append(tokens)
        assert engine.fused_decode_steps == 0
    return results
