"""Fused cross-request batched decode: bit-identity, arena reuse, timing.

The hard correctness bar of the fused decode path is that it produces
*bit-identical* token streams to the sequential per-sequence loop
(``fused_decode=False``), for every batch composition: mixed lengths, mixed
samplers, preemption and restore, cancellation mid-batch, and pooled
prefix-shared caches.  These tests sweep both engines over the same
workloads and require exact equality, plus the row-invariance properties of
the underlying kernels that make the identity hold by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MillionConfig, calibrate_million
from repro.core.million_cache import MillionCacheFactory
from repro.core.pq import ProductQuantizer
from repro.gateway.metrics import GatewayMetrics, render_prometheus
from repro.models import TemperatureSampler
from repro.models.tensor_ops import paired_rows_matmul
from repro.serving import (
    BatchedMillionEngine,
    BlockPool,
    PooledMillionCacheFactory,
)


def _run_engine(
    model,
    factory,
    prompts,
    fused,
    max_new_tokens=12,
    max_batch_size=8,
    stop_token=None,
    sampler=None,
    seed=None,
):
    engine = BatchedMillionEngine(
        model, factory, max_batch_size=max_batch_size, fused_decode=fused
    )
    ids = [
        engine.add_request(
            p, max_new_tokens, stop_token=stop_token, sampler=sampler, seed=seed
        )
        for p in prompts
    ]
    results = engine.run()
    return [results[i] for i in ids], engine


def _window_factory(million_factory, million_config, window):
    """Same trained quantizers, different residual window — no recalibration."""
    return MillionCacheFactory(
        million_factory.quantizers, million_config.with_updates(recent_window=window)
    )


class TestKernelRowInvariance:
    """The properties that make fused == sequential hold by construction."""

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
        sequential, _ = _run_engine(tiny_model, million_factory, prompts, fused=False)
        fused, engine = _run_engine(tiny_model, million_factory, prompts, fused=True)
        for a, b in zip(sequential, fused):
            np.testing.assert_array_equal(a, b)
        if batch > 1:
            assert engine.fused_decode_steps > 0

    @pytest.mark.parametrize("window", [0, 3, 17])
    def test_residual_window_sweep(
        self, tiny_model, million_factory, million_config, calibration_tokens, window
    ):
        factory = _window_factory(million_factory, million_config, window)
        prompts = [calibration_tokens[s : s + 11 + s % 13] for s in (0, 17, 40, 80)]
        sequential, _ = _run_engine(tiny_model, factory, prompts, fused=False)
        fused, _ = _run_engine(tiny_model, factory, prompts, fused=True)
        for a, b in zip(sequential, fused):
            np.testing.assert_array_equal(a, b)

    def test_stop_token_and_varying_budgets(
        self, tiny_model, million_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[s : s + 9 + s % 5] for s in (0, 10, 30)]

        def run(fused):
            engine = BatchedMillionEngine(
                tiny_model, million_factory, max_batch_size=4, fused_decode=fused
            )
            ids = [
                engine.add_request(
                    p, max_new_tokens=5 + 4 * i, stop_token=int(p[0]) % 16
                )
                for i, p in enumerate(prompts)
            ]
            results = engine.run()
            return [results[i] for i in ids]

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_stochastic_samplers_identical(
        self, tiny_model, million_factory, calibration_tokens
    ):
        prompts = [calibration_tokens[s : s + 8] for s in (0, 16, 48, 90)]
        kwargs = dict(sampler=TemperatureSampler(0.8), seed=123, max_new_tokens=10)
        sequential, _ = _run_engine(
            tiny_model, million_factory, prompts, fused=False, **kwargs
        )
        fused, _ = _run_engine(
            tiny_model, million_factory, prompts, fused=True, **kwargs
        )
        for a, b in zip(sequential, fused):
            np.testing.assert_array_equal(a, b)

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
        sequential, _ = _run_engine(gqa_model, factory, prompts, fused=False)
        fused, _ = _run_engine(gqa_model, factory, prompts, fused=True)
        for a, b in zip(sequential, fused):
            np.testing.assert_array_equal(a, b)

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
            sequential, _ = _run_engine(
                tiny_model, factory, prompts, fused=False, max_new_tokens=budget,
                max_batch_size=int(rng.integers(2, 6)),
            )
            fused, _ = _run_engine(
                tiny_model, factory, prompts, fused=True, max_new_tokens=budget,
                max_batch_size=int(rng.integers(2, 6)),
            )
            for a, b in zip(sequential, fused):
                np.testing.assert_array_equal(a, b)


class TestFusedPooled:
    BLOCK_TOKENS = 4

    def _build(self, tiny_model, tiny_config, million_factory, million_config,
               num_blocks, fused, max_batch_size=4, budget=None):
        pool = BlockPool.for_model(
            tiny_config, million_config, num_blocks=num_blocks,
            block_tokens=self.BLOCK_TOKENS,
        )
        factory = PooledMillionCacheFactory.from_factory(million_factory, pool)
        return BatchedMillionEngine(
            tiny_model, factory, max_batch_size=max_batch_size,
            fused_decode=fused, prefill_token_budget=budget,
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

        def run(fused):
            # A chunk boundary at the shared prefix's end makes it adoptable.
            engine = self._build(
                tiny_model, tiny_config, million_factory, million_config,
                num_blocks=256, fused=fused, budget=shared.size,
            )
            ids = [engine.add_request(p, 10) for p in prompts]
            results = engine.run()
            assert engine.prefix_block_hits > 0  # sharing actually happened
            return [results[i] for i in ids]

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_preemption_and_restore_identical(
        self, tiny_model, tiny_config, million_factory, million_config,
        calibration_tokens,
    ):
        prompts = [calibration_tokens[s : s + 13 + s % 7] for s in (0, 15, 40, 70)]

        def run(fused, num_blocks):
            engine = self._build(
                tiny_model, tiny_config, million_factory, million_config,
                num_blocks=num_blocks, fused=fused,
            )
            ids = [engine.add_request(p, 14) for p in prompts]
            results = engine.run()
            return [results[i] for i in ids], engine

        uncontended, _ = run(fused=True, num_blocks=512)
        seq_tight, seq_engine = run(fused=False, num_blocks=40)
        fused_tight, fused_engine = run(fused=True, num_blocks=40)
        assert seq_engine.preemption_count > 0, "workload must trigger preemption"
        assert fused_engine.preemption_count > 0
        for a, b, c in zip(uncontended, seq_tight, fused_tight):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_cancel_mid_batch_identical(
        self, tiny_model, tiny_config, million_factory, million_config,
        calibration_tokens,
    ):
        prompts = [calibration_tokens[s : s + 10 + s % 9] for s in (0, 12, 30, 60)]

        def run(fused):
            engine = self._build(
                tiny_model, tiny_config, million_factory, million_config,
                num_blocks=256, fused=fused,
            )
            ids = [engine.add_request(p, 12) for p in prompts]
            for _ in range(4):
                engine.step()
            assert engine.cancel(ids[1]) is True
            results = engine.run()
            return ids, results

        ids_a, res_a = run(False)
        ids_b, res_b = run(True)
        for i_a, i_b in zip(ids_a, ids_b):
            np.testing.assert_array_equal(res_a[i_a], res_b[i_b])


class TestArenaAndTiming:
    def test_scratch_arena_stops_growing(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, million_factory, max_batch_size=4, fused_decode=True
        )
        for s in (0, 11, 25, 50):
            engine.add_request(calibration_tokens[s : s + 8 + s % 6], 60)
        for _ in range(12):
            engine.step()
        arena = engine._fused_attention.arena
        grows_after_warmup = arena.grow_count
        total_bytes = arena.total_bytes
        hits_before = arena.hit_count
        for _ in range(10):
            engine.step()
        # Steady-state decode must reuse every scratch buffer: no new
        # allocations, only hits (buffers are sized to the high-water mark).
        assert arena.grow_count == grows_after_warmup
        assert arena.total_bytes == total_bytes
        assert arena.hit_count > hits_before

    def test_step_timing_split_and_fused_batch_size(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, million_factory, max_batch_size=4, fused_decode=True
        )
        for s in (0, 20, 45):
            engine.add_request(calibration_tokens[s : s + 10], 8)
        engine.step()
        timing = engine.stats()["step_timing"]
        assert timing["steps"] == 1
        assert timing["fused_decode_enabled"] is True
        assert timing["last_fused_batch_size"] == 3
        assert timing["last_prefill_seconds"] > 0.0
        assert timing["last_decode_seconds"] > 0.0
        engine.run()
        timing = engine.stats()["step_timing"]
        assert timing["fused_decode_steps"] >= 1
        assert timing["decode_seconds_total"] >= timing["last_decode_seconds"]
        assert timing["prefill_seconds_total"] >= timing["last_prefill_seconds"]

    def test_sequential_engine_reports_zero_fused_batch(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, million_factory, max_batch_size=2, fused_decode=False
        )
        engine.add_request(calibration_tokens[:9], 3)
        engine.run()
        timing = engine.stats()["step_timing"]
        assert timing["fused_decode_steps"] == 0
        assert timing["last_fused_batch_size"] == 0

    def test_metrics_expose_fused_timing(
        self, tiny_model, million_factory, calibration_tokens
    ):
        engine = BatchedMillionEngine(
            tiny_model, million_factory, max_batch_size=2, fused_decode=True
        )
        engine.add_request(calibration_tokens[:9], 4)
        engine.run()
        text = render_prometheus(GatewayMetrics(), [engine.stats()])
        assert "repro_engine_fused_decode_steps_total" in text
        assert "repro_engine_last_fused_batch_size" in text
        assert "repro_engine_decode_seconds_total" in text
