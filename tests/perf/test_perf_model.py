"""Tests for the analytic GPU performance model."""

import numpy as np
import pytest

from repro.perf import (
    A40,
    A100_80GB,
    FP16_BASELINE,
    KIVI_4BIT,
    KVQUANT_4BIT,
    LLAMA_2_7B,
    MILLION_3BIT,
    MILLION_4BIT,
    MILLION_4BIT_SYNC,
    OpCost,
    breakdown_sweep,
    decode_step_latency_ms,
    decode_step_ops,
    estimate_tpot,
    get_device,
    get_scheme,
    is_oom,
    kv_cache_bytes,
    latency_breakdown,
    max_context_length,
    memory_footprint,
    op_time,
    schedule_step,
    weights_bytes,
)
from repro.perf.roofline import OpTiming


class TestDeviceAndSchemes:
    def test_device_lookup(self):
        assert get_device("a40").name == "A40"
        assert get_device("A100-80GB").memory_gb == 80.0
        with pytest.raises(Exception):
            get_device("h100")

    def test_scheme_lookup(self):
        assert get_scheme("million-4b").kv_bits == 4.0
        with pytest.raises(Exception):
            get_scheme("million-5b")

    def test_llama_weights_about_13gb(self):
        assert 12e9 < weights_bytes(LLAMA_2_7B) < 15e9


class TestKVCacheBytes:
    def test_fp16_per_token(self):
        one_token = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, 1)
        assert one_token == pytest.approx(2 * 4096 * 32 * 2.0, rel=1e-6)

    def test_4bit_is_quarter_of_fp16(self):
        fp16 = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, 4096)
        million = kv_cache_bytes(LLAMA_2_7B, MILLION_4BIT, 4096)
        assert million < fp16 / 3.5

    def test_grows_linearly(self):
        a = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, 1000)
        b = kv_cache_bytes(LLAMA_2_7B, FP16_BASELINE, 2000)
        assert b == pytest.approx(2 * a, rel=1e-6)


class TestRoofline:
    def test_memory_bound_op(self):
        cost = OpCost(name="x", bytes_read=1e9, memory_efficiency=1.0, n_kernels=0)
        timing = op_time(cost, A40)
        assert timing.time_s == pytest.approx(1e9 / A40.memory_bandwidth_bytes_per_s)

    def test_compute_bound_op(self):
        cost = OpCost(
            name="x", tensor_flops=1e13, bytes_read=1.0, compute_efficiency=1.0, n_kernels=0
        )
        timing = op_time(cost, A40)
        assert timing.time_s == pytest.approx(1e13 / A40.fp16_flops_per_s, rel=1e-3)

    def test_launch_overhead_added(self):
        cost = OpCost(name="x", n_kernels=10, bytes_read=0.0)
        assert op_time(cost, A40).time_s == pytest.approx(10 * A40.kernel_launch_s)

    def test_faster_device_is_faster(self):
        ops = decode_step_ops(LLAMA_2_7B, FP16_BASELINE, 4096)
        t_a40 = sum(op_time(o, A40).time_s for o in ops)
        t_a100 = sum(op_time(o, A100_80GB).time_s for o in ops)
        assert t_a100 < t_a40


class TestStreams:
    def test_async_hides_quant_time(self):
        timings = [
            OpTiming("main", 10e-3, 0, 0, 0, stream="main"),
            OpTiming("quant", 2e-3, 0, 0, 0, stream="quant"),
        ]
        async_step = schedule_step(timings, async_enabled=True)
        sync_step = schedule_step(timings, async_enabled=False)
        assert async_step.total_time_s == pytest.approx(10e-3)
        assert sync_step.total_time_s == pytest.approx(12e-3)

    def test_partial_overlap(self):
        timings = [
            OpTiming("main", 1e-3, 0, 0, 0, stream="main"),
            OpTiming("quant", 5e-3, 0, 0, 0, stream="quant"),
        ]
        step = schedule_step(timings, async_enabled=True, overlap_fraction=0.5)
        assert step.exposed_quant_time_s == pytest.approx(5e-3 - 0.5e-3)


class TestMemoryModel:
    def test_baseline_fits_at_32k_not_at_64k(self):
        assert not is_oom(LLAMA_2_7B, FP16_BASELINE, 32768, A40)
        assert is_oom(LLAMA_2_7B, FP16_BASELINE, 65536, A40)

    def test_kivi_oom_at_16k(self):
        assert not is_oom(LLAMA_2_7B, KIVI_4BIT, 8192, A40)
        assert is_oom(LLAMA_2_7B, KIVI_4BIT, 16384, A40)

    def test_million_runs_at_80k(self):
        assert not is_oom(LLAMA_2_7B, MILLION_4BIT, 80000, A40)

    def test_max_context_ordering(self):
        assert (
            max_context_length(LLAMA_2_7B, MILLION_4BIT, A40)
            > max_context_length(LLAMA_2_7B, FP16_BASELINE, A40)
            > 0
        )

    def test_footprint_components_positive(self):
        footprint = memory_footprint(LLAMA_2_7B, MILLION_4BIT, 4096)
        assert footprint.weights_bytes > 0
        assert footprint.kv_cache_bytes > 0
        assert footprint.total_gb == pytest.approx(footprint.total_bytes / 1024**3)


class TestTPOT:
    """Table IV shape checks."""

    def test_baseline_grows_with_context(self):
        short = estimate_tpot(LLAMA_2_7B, "baseline-fp16", 1024).tpot_ms
        long = estimate_tpot(LLAMA_2_7B, "baseline-fp16", 32768).tpot_ms
        assert long > 2.5 * short

    def test_million_beats_baseline_at_all_table_lengths(self):
        for prefill in (1024, 2048, 4096, 8192, 16384, 32768):
            baseline = estimate_tpot(LLAMA_2_7B, FP16_BASELINE, prefill)
            million = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, prefill)
            assert million.tpot_ms < baseline.tpot_ms

    def test_e2e_speedup_about_2x_at_32k(self):
        baseline = estimate_tpot(LLAMA_2_7B, FP16_BASELINE, 32768).tpot_ms
        million = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, 32768).tpot_ms
        assert 1.7 < baseline / million < 3.2

    def test_kvquant_slowest_at_short_context(self):
        results = {
            name: estimate_tpot(LLAMA_2_7B, name, 1024).tpot_ms
            for name in ("baseline-fp16", "kivi-4b", "kvquant-4b", "million-4b")
        }
        assert results["kvquant-4b"] == max(results.values())
        assert results["kivi-4b"] > results["baseline-fp16"]

    def test_kivi_crosses_baseline_around_8k(self):
        assert (
            estimate_tpot(LLAMA_2_7B, KIVI_4BIT, 2048).tpot_ms
            > estimate_tpot(LLAMA_2_7B, FP16_BASELINE, 2048).tpot_ms
        )
        assert (
            estimate_tpot(LLAMA_2_7B, KIVI_4BIT, 8192).tpot_ms
            < estimate_tpot(LLAMA_2_7B, FP16_BASELINE, 8192).tpot_ms * 1.05
        )

    def test_kivi_oom_reported(self):
        result = estimate_tpot(LLAMA_2_7B, KIVI_4BIT, 16384)
        assert result.oom and np.isnan(result.tpot_ms)

    def test_async_quantization_helps(self):
        sync = estimate_tpot(LLAMA_2_7B, MILLION_4BIT_SYNC, 8192).tpot_ms
        async_ = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, 8192).tpot_ms
        assert async_ < sync

    def test_lower_bits_cheaper_at_long_context(self):
        four = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, 32768).tpot_ms
        three = estimate_tpot(LLAMA_2_7B, MILLION_3BIT, 32768).tpot_ms
        assert three < four

    def test_breakdown_in_result(self):
        result = estimate_tpot(LLAMA_2_7B, MILLION_4BIT, 4096)
        assert "sdpa" in result.breakdown_ms and "ffn" in result.breakdown_ms


class TestBreakdown:
    """Fig. 7 shape checks."""

    def test_cat_and_sdpa_dominate_baseline_at_long_context(self):
        breakdown = latency_breakdown(LLAMA_2_7B, FP16_BASELINE, 32768)
        ops = breakdown.operator_ms
        assert ops["cat"] > ops["ffn"]
        assert ops["sdpa"] > ops["qkv_proj"]

    def test_million_reduces_cat_and_sdpa(self):
        baseline = latency_breakdown(LLAMA_2_7B, FP16_BASELINE, 32768)
        million = latency_breakdown(LLAMA_2_7B, MILLION_4BIT, 32768)
        assert million.operator_ms["cat"] < baseline.operator_ms["cat"] / 10
        assert million.operator_ms["sdpa"] < baseline.operator_ms["sdpa"]

    def test_speedup_increases_with_context(self):
        points = breakdown_sweep(LLAMA_2_7B, [1024, 8192, 32768])
        speedups = [p.e2e_speedup for p in points]
        assert speedups[0] < speedups[1] < speedups[2]
        assert speedups[2] > 1.8

    def test_sdpa_speedup_about_2x_at_32k(self):
        point = breakdown_sweep(LLAMA_2_7B, [32768])[0]
        assert 1.3 < point.sdpa_speedup < 3.0

    def test_baseline_oom_at_64k_million_not(self):
        points = breakdown_sweep(LLAMA_2_7B, [65536, 80000])
        assert all(p.baseline.oom for p in points)
        assert all(not p.million.oom for p in points)

    def test_attention_subset_smaller_than_total(self):
        breakdown = latency_breakdown(LLAMA_2_7B, FP16_BASELINE, 8192)
        assert 0 < breakdown.attention_ms < breakdown.total_ms

    def test_invalid_context(self):
        with pytest.raises(Exception):
            decode_step_ops(LLAMA_2_7B, FP16_BASELINE, 0)
