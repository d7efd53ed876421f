"""Engine phase profiler: attribution accuracy and the null-profiler default.

The acceptance criterion lives here: the profiler's decode-rooted self
times must sum to within 10% of the engine's own measured decode wall
(``decode_seconds_total``).  The engine records the ``decode`` root from
the same wall split that feeds ``decode_seconds_total``, so in practice
the sums agree exactly; the 10% band keeps the test honest about what the
contract promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.obs.prof import NULL_PROFILER, PhaseProfiler, phase_table
from repro.serving import BatchedMillionEngine
from support.reference import pooled


def _run_batch(engine, calibration_tokens, n_requests=4, max_new_tokens=8):
    rng = np.random.default_rng(3)
    for i in range(n_requests):
        start = int(rng.integers(0, 64))
        engine.add_request(
            calibration_tokens[start:start + 8 + i], max_new_tokens=max_new_tokens
        )
    return engine.run()


def _engine(tiny_config, million_factory, **kwargs):
    model = build_model(tiny_config, seed=7)
    return BatchedMillionEngine(model, pooled(model, million_factory), **kwargs)


@pytest.fixture()
def profiled_engine(tiny_config, million_factory):
    return _engine(tiny_config, million_factory, prof=PhaseProfiler())


class TestPhaseAttribution:
    def test_decode_self_times_sum_to_decode_wall(
        self, profiled_engine, calibration_tokens
    ):
        results = _run_batch(profiled_engine, calibration_tokens)
        assert results  # the workload actually ran
        snap = profiled_engine.prof.snapshot()
        decode_self = sum(
            row["self_s"]
            for row in phase_table(snap)
            if row["phase"] == "decode" or row["phase"].startswith("decode/")
        )
        wall = profiled_engine.decode_seconds_total
        assert wall > 0.0
        assert decode_self == pytest.approx(wall, rel=0.10)

    def test_expected_phases_recorded(self, profiled_engine, calibration_tokens):
        _run_batch(profiled_engine, calibration_tokens)
        snap = profiled_engine.prof.snapshot()
        # Engine-level roots, the sampler, and the stacked forward's
        # per-sequence appends and attends; nothing else under decode.
        assert {"decode", "prefill", "decode/sample"} <= set(snap)
        decode_phases = {phase for phase in snap if phase.startswith("decode/")}
        assert decode_phases == {
            "decode/sample", "decode/flush_encode", "decode/attend"
        }, sorted(snap)
        # One record of each per layer per decode step, covering its rows.
        layers = profiled_engine.model.config.n_layers
        steps = profiled_engine.fused_decode_steps
        assert snap["decode/attend"]["count"] == layers * steps
        assert snap["decode/flush_encode"]["count"] == layers * steps
        assert snap["decode/attend"]["total_s"] > 0.0
        # Every phase carries real accumulation.
        for entry in snap.values():
            assert entry["count"] >= 1
            assert entry["total_s"] >= 0.0

    def test_stats_carries_phase_snapshot(self, profiled_engine, calibration_tokens):
        _run_batch(profiled_engine, calibration_tokens)
        phases = profiled_engine.stats()["phases"]
        assert phases == profiled_engine.prof.snapshot()


class TestChunkedPhases:
    @pytest.fixture()
    def chunked_profiled_engine(self, tiny_config, million_factory):
        return _engine(
            tiny_config, million_factory, prof=PhaseProfiler(), prefill_token_budget=8
        )

    def test_chunk_phases_recorded(self, chunked_profiled_engine, calibration_tokens):
        engine = chunked_profiled_engine
        engine.add_request(calibration_tokens[:40], max_new_tokens=4)
        engine.add_request(calibration_tokens[:40], max_new_tokens=4)  # adopts
        engine.run()
        snap = engine.prof.snapshot()
        # Chunk sub-steps and block adoption show up under the prefill root.
        assert {"prefill", "prefill/chunk", "prefill/adopt"} <= set(snap), sorted(snap)
        assert snap["prefill/chunk"]["count"] == engine.prefill_chunks_total
        assert snap["prefill/chunk"]["count"] >= 2  # 40 tokens on budget 8

    def test_decode_self_sum_contract_holds_under_chunking(
        self, chunked_profiled_engine, calibration_tokens
    ):
        """Interleaved chunk work must not leak into decode attribution."""
        engine = chunked_profiled_engine
        _run_batch(engine, calibration_tokens)
        snap = engine.prof.snapshot()
        decode_self = sum(
            row["self_s"]
            for row in phase_table(snap)
            if row["phase"] == "decode" or row["phase"].startswith("decode/")
        )
        wall = engine.decode_seconds_total
        assert wall > 0.0
        assert decode_self == pytest.approx(wall, rel=0.10)


class TestNullDefault:
    def test_engine_defaults_to_null_profiler(
        self, tiny_config, million_factory, calibration_tokens
    ):
        engine = _engine(tiny_config, million_factory)
        assert engine.prof is NULL_PROFILER
        _run_batch(engine, calibration_tokens, n_requests=2, max_new_tokens=4)
        assert engine.stats()["phases"] == {}
