"""Fused cross-request batched decode: bit-identity, memory, timing.

The hard correctness bar of the fused decode path is that it produces
*bit-identical* token streams to every request served alone
(:func:`support.reference.solo`, which decodes per sequence and never
stacks), for every batch composition: mixed lengths, mixed samplers,
preemption and restore, cancellation mid-batch, and pooled prefix-shared
caches.  These tests run the batched engine and the solo oracle over the
same workloads and require exact equality, plus the row-invariance
properties of the underlying kernels that make the identity hold by
construction.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import MillionConfig, calibrate_million
from repro.core.codebook import SubspaceCodebooks
from repro.core.million_cache import MillionCacheFactory
from repro.core.pq import ProductQuantizer
from repro.gateway.metrics import GatewayMetrics, render_prometheus
from repro.models import TemperatureSampler
from repro.models.config import ModelConfig
from repro.models.tensor_ops import paired_rows_matmul
from repro.models.weights import build_model
from repro.serving import BatchedMillionEngine
from support.reference import assert_logits_equal, pooled, served_logits, solo


def _run_engine(
    model,
    factory,
    prompts,
    max_new_tokens=12,
    max_batch_size=8,
    stop_token=None,
    sampler=None,
    seed=None,
):
    engine = BatchedMillionEngine(
        model, pooled(model, factory), max_batch_size=max_batch_size
    )
    ids = [
        engine.add_request(
            p, max_new_tokens, stop_token=stop_token, sampler=sampler, seed=seed
        )
        for p in prompts
    ]
    results = engine.run()
    return [results[i] for i in ids], engine


def _assert_streams_equal(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        np.testing.assert_array_equal(a, b)


def _window_factory(million_factory, million_config, window):
    """Same trained quantizers, different residual window — no recalibration."""
    return MillionCacheFactory(
        million_factory.quantizers, million_config.with_updates(recent_window=window)
    )


class TestKernelRowInvariance:
    """The properties that make fused == per-sequence hold by construction."""

    def test_paired_matmul_rows_independent_of_batch(self):
        rng = np.random.default_rng(0)
        for k, n in ((64, 256), (256, 129), (31, 7)):
            x = rng.standard_normal((9, k)).astype(np.float32)
            w = rng.standard_normal((k, n)).astype(np.float32)
            full = paired_rows_matmul(x, w)
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(
                    full[i], paired_rows_matmul(x[i : i + 1], w)[0]
                )
            # Transposed (lm-head style) weights too.
            wt = rng.standard_normal((n, k)).astype(np.float32)
            full_t = paired_rows_matmul(x, wt.T)
            np.testing.assert_array_equal(
                full_t[3], paired_rows_matmul(x[3:4], wt.T)[0]
            )

    @pytest.mark.parametrize("m_subspaces", [2, 8, 16, 32])
    def test_encode_rows_independent_of_batch(self, m_subspaces):
        rng = np.random.default_rng(1)
        dim = 32
        pq = ProductQuantizer.fit(
            rng.standard_normal((512, dim)).astype(np.float32),
            m_subspaces=m_subspaces,
            nbits=4,
            kmeans_iters=3,
        )
        vectors = rng.standard_normal((33, dim)).astype(np.float32)
        full = pq.encode(vectors)
        for split in (1, 2, 5):
            parts = [
                pq.encode(chunk)
                for chunk in np.array_split(vectors, split)
                if chunk.size
            ]
            np.testing.assert_array_equal(full, np.concatenate(parts))

    @pytest.mark.parametrize("subspace_dim", [1, 2, 4, 8])
    def test_subspace_gemm_rows_invariant_at_encode_tiles(self, subspace_dim):
        """``encode`` runs the distance GEMM on tiles of
        ``encode_tile_rows()`` rows (a lone last row is duplicated); each
        row must equal the same row of one 600-row GEMM."""
        rng = np.random.default_rng(3)
        m_subspaces = 64 // subspace_dim
        pq = ProductQuantizer(
            SubspaceCodebooks(
                rng.standard_normal((m_subspaces, 256, subspace_dim)).astype(np.float32)
            )
        )
        sub_t = rng.standard_normal((m_subspaces, 600, subspace_dim)).astype(np.float32)
        full = pq._subspace_cross(sub_t, np.float32)
        tile = pq.encode_tile_rows()
        for start in (0, tile, 583):
            for rows in (1, 2, tile - 1, tile, tile + 1):
                part = np.ascontiguousarray(sub_t[:, start : start + rows])
                np.testing.assert_array_equal(
                    pq._subspace_cross(part, np.float32),
                    full[:, start : start + rows],
                )

    def test_lut_layouts_and_batching_bit_equal(self):
        rng = np.random.default_rng(2)
        pq = ProductQuantizer.fit(
            rng.standard_normal((256, 16)).astype(np.float32),
            m_subspaces=8,
            nbits=4,
            kmeans_iters=3,
        )
        queries = rng.standard_normal((11, 16)).astype(np.float32)
        default = pq.build_score_luts(queries)
        major = pq.build_score_luts(queries, subspace_major=True)
        np.testing.assert_array_equal(default, major.transpose(1, 0, 2))
        one = pq.build_score_luts(queries[4:5], subspace_major=True)
        np.testing.assert_array_equal(major[:, 4:5], one)


class TestFusedTokenIdentity:
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    def test_mixed_length_batches(
        self, tiny_model, million_factory, calibration_tokens, batch
    ):
        prompts = [
            calibration_tokens[i * 7 : i * 7 + 5 + 9 * i] for i in range(batch)
        ]
        fused, engine = _run_engine(tiny_model, million_factory, prompts)
        _assert_streams_equal(solo(tiny_model, million_factory, prompts, 12), fused)
        if batch > 1:
            assert engine.fused_decode_steps > 0

    @pytest.mark.parametrize("window", [0, 3, 17])
    def test_residual_window_sweep(
        self, tiny_model, million_factory, million_config, calibration_tokens, window
    ):
        factory = _window_factory(million_factory, million_config, window)
        prompts = [calibration_tokens[s : s + 11 + s % 13] for s in (0, 17, 40, 80)]
        fused, _ = _run_engine(tiny_model, factory, prompts)
        _assert_streams_equal(solo(tiny_model, factory, prompts, 12), fused)

    def test_stop_token_and_varying_budgets(
        self, tiny_model, million_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[s : s + 9 + s % 5] for s in (0, 10, 30)]
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory), max_batch_size=4
        )
        ids = [
            engine.add_request(p, max_new_tokens=5 + 4 * i, stop_token=int(p[0]) % 16)
            for i, p in enumerate(prompts)
        ]
        results = engine.run()
        want = [
            solo(tiny_model, million_factory, [p], 5 + 4 * i, stop_token=int(p[0]) % 16)[0]
            for i, p in enumerate(prompts)
        ]
        _assert_streams_equal(want, [results[i] for i in ids])

    def test_stochastic_samplers_identical(
        self, tiny_model, million_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[s : s + 8] for s in (0, 16, 48, 90)]
        kwargs = dict(sampler=TemperatureSampler(0.8), seed=123)
        fused, _ = _run_engine(
            tiny_model, million_factory, prompts, max_new_tokens=10, **kwargs
        )
        _assert_streams_equal(
            solo(tiny_model, million_factory, prompts, 10, **kwargs), fused
        )

    def test_gqa_alibi_model(self, gqa_model, calibration_tokens):
        config = MillionConfig.for_equivalent_bits(
            gqa_model.config.head_dim, bits=4, kmeans_iters=3, calibration_samples=512
        )
        factory = calibrate_million(
            gqa_model,
            calibration_tokens % gqa_model.config.vocab_size,
            config,
            chunk_size=128,
        )
        prompts = [
            calibration_tokens[s : s + 6 + s % 11] % gqa_model.config.vocab_size
            for s in (0, 9, 33, 70, 95)
        ]
        fused, _ = _run_engine(gqa_model, factory, prompts)
        _assert_streams_equal(solo(gqa_model, factory, prompts, 12), fused)

    def test_property_sweep_random_workloads(
        self, tiny_model, million_factory, million_config, calibration_tokens
    ):
        rng = np.random.default_rng(99)
        for trial in range(4):
            window = int(rng.choice([0, 2, 9]))
            factory = _window_factory(million_factory, million_config, window)
            batch = int(rng.integers(2, 7))
            prompts = [
                calibration_tokens[: int(rng.integers(4, 60))] for _ in range(batch)
            ]
            budget = int(rng.integers(3, 14))
            fused, _ = _run_engine(
                tiny_model, factory, prompts, max_new_tokens=budget,
                max_batch_size=int(rng.integers(2, 6)),
            )
            _assert_streams_equal(solo(tiny_model, factory, prompts, budget), fused)


def test_fused_decode_step_refuses_kv_observers(tiny_model, million_factory):
    """Stacked decode cannot feed per-layer KV observers (calibration's
    sample collector); the model refuses rather than skip them."""
    contexts = [tiny_model.fresh_context(million_factory) for _ in range(2)]

    def observer(layer_index, keys, values):
        raise AssertionError("the refused step must not reach the observer")

    tiny_model.kv_observers.append(observer)
    try:
        with pytest.raises(ValueError, match="kv observers"):
            tiny_model.fused_decode_step(np.array([1, 2]), contexts)
    finally:
        tiny_model.kv_observers.remove(observer)


class TestFusedPooled:
    BLOCK_TOKENS = 4

    def _build(self, tiny_model, tiny_config, million_factory, million_config,
               num_blocks, max_batch_size=4, budget=None):
        factory = pooled(
            tiny_model, million_factory, num_blocks=num_blocks,
            block_tokens=self.BLOCK_TOKENS,
        )
        return BatchedMillionEngine(
            tiny_model, factory, max_batch_size=max_batch_size,
            prefill_token_budget=budget,
        )

    def test_prefix_shared_batches_identical(
        self, tiny_model, tiny_config, million_factory, million_config,
        calibration_tokens,
    ):
        shared = calibration_tokens[:16]
        prompts = [
            np.concatenate([shared, calibration_tokens[20 + 5 * i : 25 + 5 * i]])
            for i in range(4)
        ]

        # A chunk boundary at the shared prefix's end makes it adoptable.
        engine = self._build(
            tiny_model, tiny_config, million_factory, million_config,
            num_blocks=256, budget=shared.size,
        )
        ids = [engine.add_request(p, 10) for p in prompts]
        results = engine.run()
        assert engine.prefix_block_hits > 0  # sharing actually happened
        want = solo(
            tiny_model, million_factory, prompts, 10, num_blocks=256,
            block_tokens=self.BLOCK_TOKENS, budget=shared.size,
        )
        _assert_streams_equal(want, [results[i] for i in ids])

    def test_preemption_and_restore_identical(
        self, tiny_model, tiny_config, million_factory, million_config,
        calibration_tokens,
    ):
        prompts = [calibration_tokens[s : s + 13 + s % 7] for s in (0, 15, 40, 70)]

        def run(num_blocks):
            engine = self._build(
                tiny_model, tiny_config, million_factory, million_config,
                num_blocks=num_blocks,
            )
            ids = [engine.add_request(p, 14) for p in prompts]
            results = engine.run()
            return [results[i] for i in ids], engine

        want = solo(
            tiny_model, million_factory, prompts, 14, num_blocks=40,
            block_tokens=self.BLOCK_TOKENS,
        )
        uncontended, _ = run(num_blocks=512)
        tight, tight_engine = run(num_blocks=40)
        assert tight_engine.preemption_count > 0, "workload must trigger preemption"
        _assert_streams_equal(want, uncontended)
        _assert_streams_equal(want, tight)

    def test_cancel_mid_batch_identical(
        self, tiny_model, tiny_config, million_factory, million_config,
        calibration_tokens,
    ):
        prompts = [calibration_tokens[s : s + 10 + s % 9] for s in (0, 12, 30, 60)]

        engine = self._build(
            tiny_model, tiny_config, million_factory, million_config,
            num_blocks=256,
        )
        ids = [engine.add_request(p, 12) for p in prompts]
        for _ in range(4):
            engine.step()
        assert engine.cancel(ids[1]) is True
        results = engine.run()
        want = solo(
            tiny_model, million_factory, prompts, 12, num_blocks=256,
            block_tokens=self.BLOCK_TOKENS,
        )
        for i, (request_id, stream) in enumerate(zip(ids, want)):
            got = results[request_id]
            if i == 1:
                # The cancelled stream stops early but matches until then.
                assert 0 < got.size < stream.size
                stream = stream[: got.size]
            np.testing.assert_array_equal(stream, got)


class _Twins:
    """The same sequences in two worlds, checked step by step.

    World 0 advances by :meth:`TransformerLM.fused_decode_step`; world 1 by
    per-sequence ``forward``, the per-sequence reference.  Edits go through
    :meth:`apply`, which performs them on both worlds alike.
    """

    def __init__(self, model, make_factory, prompts):
        self.model = model
        self.worlds = [[], []]
        for world in self.worlds:
            factory = make_factory()
            for prompt in prompts:
                context = model.fresh_context(factory)
                self.forward(context, prompt)
                world.append(context)

    def forward(self, context, tokens):
        saved = self.model.save_context()
        self.model.restore_context(context)
        try:
            logits = self.model.forward(np.asarray(tokens, dtype=np.int64))
            context.next_position = self.model.context_length
        finally:
            self.model.restore_context(saved)
        return logits

    def flush_due(self) -> bool:
        return any(
            cache.flushable_rows() for context in self.worlds[0]
            for cache in context.caches
        )

    def step(self, tokens):
        """One decode step; the fused logits, checked against world 1."""
        logits = self.model.fused_decode_step(
            np.asarray(tokens, dtype=np.int64), self.worlds[0]
        )
        for b, context in enumerate(self.worlds[1]):
            np.testing.assert_array_equal(
                logits[b], self.forward(context, [tokens[b]])[0]
            )
        return logits

    def apply(self, b, edit):
        """``edit(world, context)`` on sequence ``b`` of each world."""
        for world in self.worlds:
            edit(world, world[b])


class TestCodeEdits:
    """Stacked decode keeps no batch-wide state: whatever changed a batched
    cache's codes — a flush, a reset and refill, a prefix adoption, a
    preemption and restore — the next step reads the current codes."""

    BLOCK_TOKENS = 4

    def _pooled_factory(self, tiny_model, million_factory, blocks):
        return pooled(
            tiny_model, million_factory, num_blocks=blocks,
            block_tokens=self.BLOCK_TOKENS,
        )

    def test_code_edits_seen_next_step(
        self, tiny_model, million_factory, calibration_tokens,
    ):
        prompts = [calibration_tokens[s : s + n] for s, n in ((0, 21), (30, 9), (50, 14))]
        twins = _Twins(
            tiny_model,
            lambda: self._pooled_factory(tiny_model, million_factory, 256),
            prompts,
        )
        tokens = [int(p[-1]) for p in prompts]

        def step():
            nonlocal tokens
            due = twins.flush_due()
            logits = twins.step(tokens)
            tokens = [int(row.argmax()) for row in logits]
            return due

        # Flushes land every BLOCK_TOKENS steps; both kinds of step match.
        assert {step() for _ in range(9)} == {True, False}

        def quiet():
            while twins.flush_due():
                step()

        # A reset refilled to the same (stored, pending) split: same segment
        # lengths, different codes.
        def reset_and_refill(_world, context):
            stored, pending = context.caches[0].flush_state
            fresh = calibration_tokens[100 : 100 + stored + pending]
            for cache in context.caches:
                cache.reset()
            context.next_position = 0
            twins.forward(context, fresh[:stored])
            for cache in context.caches:
                cache.flush_all()
            twins.forward(context, fresh[stored:])
            assert context.caches[0].flush_state == (stored, pending)

        quiet()
        twins.apply(1, reset_and_refill)
        assert step() is False

        # Prefix adoption to the same split: sequence 2 drops its blocks and
        # adopts sequence 0's leading blocks of the same length.
        def adopt_from_first(world, context):
            stored, pending = context.caches[0].flush_state
            n_blocks = stored // self.BLOCK_TOKENS
            for layer, cache in enumerate(context.caches):
                shared = world[0].caches[layer].block_table[:n_blocks]
                assert len(shared) == n_blocks
                cache.reset()
                for block_id in shared:
                    cache.pool.incref(block_id)
                cache.adopt_shared_blocks(shared)
            context.next_position = stored
            twins.forward(context, calibration_tokens[200 : 200 + pending])
            assert context.caches[0].flush_state == (stored, pending)

        quiet()
        twins.apply(2, adopt_from_first)
        assert step() is False
        quiet()
        assert step() is False

    def test_preempt_and_restore_rejoin_identical(
        self, tiny_model, million_factory, calibration_tokens, monkeypatch,
    ):
        factory = self._pooled_factory(tiny_model, million_factory, 32)
        engine = BatchedMillionEngine(tiny_model, factory, max_batch_size=4)
        batches: list[tuple[str, ...]] = []
        traverse = tiny_model.forward_segments

        def recording(segments, prof, **hooks):
            owner = {
                id(state.context): state.request_id
                for state in engine.scheduler.running
            }
            rows = [s for s in segments if len(s.token_ids) == 1]
            batches.append(tuple(owner[id(s.context)] for s in rows))
            return traverse(segments, prof, **hooks)

        monkeypatch.setattr(tiny_model, "forward_segments", recording)
        prompts = [
            calibration_tokens[s : s + 13 + s % 7] for s in (0, 15, 40, 70, 90, 110)
        ]
        # Every sampled step's logits, across preemptions and restores, are
        # the ones each request computes alone.
        got = served_logits(engine, prompts, 14)
        monkeypatch.undo()
        want = solo(
            tiny_model, million_factory, prompts, 14, num_blocks=32,
            block_tokens=self.BLOCK_TOKENS, record_logits=True,
        )
        for want_logits, got_logits in zip(want, got):
            assert_logits_equal(want_logits, got_logits)
        assert engine.preemption_count > 0
        restored = 0
        for i in range(1, len(batches)):
            seen_before = {r for batch in batches[: i - 1] for r in batch}
            restored += len((set(batches[i]) - set(batches[i - 1])) & seen_before)
        assert restored > 0, "a preempted request must rejoin a fused batch"


class TestDecodeMemory:
    """Decode keeps no buffer that scales with batch x context x M."""

    def test_serving_shape_steps_keep_no_batch_state(self):
        """4 sequences of ~1,100 stored tokens, 4 kv heads, M = 32, K = 256.

        A kept ``(M, H * T)`` int64 gather index at this shape is 1.1 MB per
        cache and side; one transient reconstruction is ``T * kv * d * 4``
        = 1.1 MB.  Steps must retain neither kind of buffer, and peak no
        higher than a few reconstructions.
        """
        rng = np.random.default_rng(0)
        config = ModelConfig(
            vocab_size=64, d_model=256, n_layers=2, n_heads=4, max_seq_len=2048
        )
        model = build_model(config, seed=0)
        pq = ProductQuantizer(SubspaceCodebooks(rng.normal(size=(32, 256, 2))))
        factory = MillionCacheFactory(
            {layer: (pq, pq) for layer in range(config.n_layers)},
            MillionConfig(m_subspaces=32, nbits=8),
        )
        contexts = []
        for b in range(4):
            context = model.fresh_context(factory)
            n_tokens = 1100 + 3 * b
            for cache in context.caches:
                keys, values = rng.normal(size=(2, n_tokens, 4, 64)).astype(np.float32)
                for start in range(0, n_tokens, 128):
                    cache.append(keys[start : start + 128], values[start : start + 128])
                cache.flush_all()
            context.next_position = n_tokens
            contexts.append(context)
        tokens = np.arange(4)
        peaks = []
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
                model.fused_decode_step(tokens, contexts)
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - start)
        finally:
            tracemalloc.stop()
        assert current - base < 2**18
        assert max(peaks) < 4 * 2**20


class TestArenaAndTiming:
    def test_steady_decode_keeps_no_scratch_state(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory), max_batch_size=4
        )
        for s in (0, 11, 25, 50):
            engine.add_request(calibration_tokens[s : s + 8 + s % 6], 60)
        for _ in range(12):
            engine.step()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(10):
                engine.step()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Steady decode retains only the KV growth (4 sequences x 10 tokens)
        # and the per-request token lists: no scratch or index buffers.
        assert after - before < 2**16

    def test_step_timing_split_and_fused_batch_size(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory), max_batch_size=4
        )
        for s in (0, 20, 45):
            engine.add_request(calibration_tokens[s : s + 10], 8)
        engine.step()
        timing = engine.stats()["step_timing"]
        assert timing["steps"] == 1
        # The prompt step samples each first token; no row is stacked yet.
        assert timing["last_fused_batch_size"] == 0
        assert timing["last_prefill_seconds"] > 0.0
        assert timing["last_decode_seconds"] > 0.0
        engine.step()
        assert engine.stats()["step_timing"]["last_fused_batch_size"] == 3
        engine.run()
        timing = engine.stats()["step_timing"]
        assert timing["fused_decode_steps"] >= 1
        assert timing["decode_seconds_total"] >= timing["last_decode_seconds"]
        assert timing["prefill_seconds_total"] >= timing["last_prefill_seconds"]

    def test_metrics_expose_fused_timing(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, pooled(tiny_model, million_factory), max_batch_size=2
        )
        engine.add_request(calibration_tokens[:9], 4)
        engine.run()
        text = render_prometheus(GatewayMetrics(), [engine.stats()])
        assert "repro_engine_fused_decode_steps_total" in text
        assert "repro_engine_last_fused_batch_size" in text
        assert "repro_engine_decode_seconds_total" in text
