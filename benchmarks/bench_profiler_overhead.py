"""Continuous-profiler overhead: phase hooks must be ~free off, cheap on.

The serving engine and the fused attention kernel carry phase hooks
(``if prof.enabled:`` guards around ``PhaseProfiler.lap``/``record``
calls) that attribute decode step time to named phases for
``/debug/prof`` and ``repro_engine_phase_seconds``.  Mirrors the
``serving.observability_overhead`` methodology:

* **Modelled overhead** — microbenchmark the per-hook primitives (the
  ``NULL_PROFILER.enabled`` attribute check, a live
  ``PhaseProfiler.lap``, a live ``record``), count how many fire per
  decoded token in a real profiled run (read off the profiler's own
  snapshot), and express their product as a fraction of the measured
  per-token decode time.  Deterministic enough to gate in CI.
* **Measured throughput ratio** — interleaved A/B decode runs (null vs
  live profiler), recorded ungated as a cross-check.

Gates: profiler-disabled overhead < 1% of per-token decode time,
profiler-enabled < 5%.

Run standalone with
``PYTHONPATH=src python -m pytest benchmarks/bench_profiler_overhead.py -s``
or through ``PYTHONPATH=src python -m repro.bench run --suite serving``.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from _bench_shared import never_evicting_factory, run_registered
from repro.bench import HIGHER, LOWER, BenchContext, benchmark_case
from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.models import ModelConfig, build_model
from repro.obs.prof import NULL_PROFILER, PhaseProfiler
from repro.serving import BatchedMillionEngine

#: Acceptance bars, as fractions of per-token decode wall time.
MAX_DISABLED_OVERHEAD_PCT = 1.0
MAX_ENABLED_OVERHEAD_PCT = 5.0

BATCH = 8


@lru_cache(maxsize=None)
def profiler_setup(smoke: bool = False):
    config = ModelConfig(
        name="prof-overhead-bench-lm",
        vocab_size=256,
        d_model=128,
        n_layers=2,
        n_heads=4,
        max_seq_len=4096,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    model = build_model(config, seed=0)
    calibration = load_corpus("wikitext2-syn", "train", 768, seed=0) % config.vocab_size
    million = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=3 if smoke else 5,
        calibration_samples=1024,
    )
    factory = calibrate_million(model, calibration, million)
    rng = np.random.default_rng(7)
    prompts = [
        load_corpus("wikitext2-syn", "test", int(rng.integers(48, 96)), seed=i)
        % config.vocab_size
        for i in range(BATCH)
    ]
    return {"model": model, "factory": factory, "prompts": prompts}


def _decode_run(model, factory, prompts, prof, warmup_steps, steps):
    """Steady-state decode: (tokens/sec, tokens decoded, phase records)."""
    engine = BatchedMillionEngine(
        model,
        never_evicting_factory(model, factory, len(prompts)),
        max_batch_size=len(prompts),
        prof=prof,
    )
    for prompt in prompts:
        engine.add_request(prompt, max_new_tokens=10_000)
    for _ in range(warmup_steps):
        engine.step()
    if prof.enabled:
        prof.reset()
    start = time.perf_counter()
    decoded = 0
    for _ in range(steps):
        decoded += len(engine.step())
    wall = time.perf_counter() - start
    records = (
        sum(entry["count"] for entry in prof.snapshot().values())
        if prof.enabled
        else 0
    )
    return decoded / wall, decoded, records


def _per_call_seconds(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


@benchmark_case(
    "serving.profiler_overhead", suite="serving", budget_s=120.0,
    smoke_budget_s=60.0,
)
def bench_profiler_overhead(ctx: BenchContext) -> None:
    """Phase-hook cost as a fraction of per-token decode time."""
    setup = profiler_setup(ctx.smoke)
    model, factory, prompts = setup["model"], setup["factory"], setup["prompts"]
    steps = ctx.pick(full=32, smoke=12)
    warmup = ctx.pick(full=8, smoke=4)
    micro_calls = ctx.pick(full=200_000, smoke=50_000)
    ctx.set_params(
        batch=BATCH, steps=steps, warmup_steps=warmup, micro_calls=micro_calls,
        max_disabled_overhead_pct=MAX_DISABLED_OVERHEAD_PCT,
        max_enabled_overhead_pct=MAX_ENABLED_OVERHEAD_PCT,
    )

    # Interleaved A/B decode runs; the profiled run yields records/token.
    disabled_rates, enabled_rates = [], []
    records_per_token = 0.0
    for _ in range(2):
        off_rate, _, _ = _decode_run(
            model, factory, prompts, NULL_PROFILER, warmup, steps
        )
        on_rate, decoded, records = _decode_run(
            model, factory, prompts, PhaseProfiler(), warmup, steps
        )
        disabled_rates.append(off_rate)
        enabled_rates.append(on_rate)
        records_per_token = records / decoded
    off_rate = max(disabled_rates)
    on_rate = max(enabled_rates)
    token_seconds = 1.0 / off_rate

    # Per-primitive costs, measured on the real objects.  Every hook site
    # starts with an ``enabled`` attribute check; when on, it costs a
    # ``lap`` (clock read + locked accumulate) or a bare ``record``.
    null = NULL_PROFILER
    check_s = _per_call_seconds(lambda: null.enabled and None, micro_calls)
    live = PhaseProfiler()
    lap_s = _per_call_seconds(
        lambda: live.lap("decode/bench", live.now()), micro_calls // 4
    )
    record_s = _per_call_seconds(
        lambda: live.record("decode/bench", 1e-6), micro_calls // 4
    )

    disabled_per_token = records_per_token * check_s
    enabled_per_token = records_per_token * max(lap_s, record_s)
    disabled_pct = 100.0 * disabled_per_token / token_seconds
    enabled_pct = 100.0 * enabled_per_token / token_seconds
    measured_ratio = off_rate / on_rate

    ctx.record("tokens_per_s_profiler_disabled", off_rate, unit="tok/s",
               direction=HIGHER, gated=False)
    ctx.record("tokens_per_s_profiler_enabled", on_rate, unit="tok/s",
               direction=HIGHER, gated=False)
    ctx.record("records_per_token", records_per_token, unit="records",
               direction=LOWER, gated=False)
    ctx.record("measured_enabled_slowdown_x", measured_ratio, unit="x",
               direction=LOWER, gated=False)
    ctx.record("disabled_overhead_pct", disabled_pct, unit="%",
               direction=LOWER, tolerance_pct=400.0, gated=True)
    ctx.record("enabled_overhead_pct", enabled_pct, unit="%",
               direction=LOWER, tolerance_pct=400.0, gated=True)

    ctx.emit(
        f"per-token decode time      {token_seconds * 1e6:9.1f} us "
        f"({off_rate:.0f} tok/s, B={BATCH})",
        f"phase records per token    {records_per_token:9.2f}",
        f"enabled-guard check        {check_s * 1e9:9.1f} ns",
        f"profiler lap               {lap_s * 1e9:9.1f} ns",
        f"profiler record            {record_s * 1e9:9.1f} ns",
        "",
        f"profiler-disabled overhead {disabled_pct:9.4f} % "
        f"(bar: < {MAX_DISABLED_OVERHEAD_PCT}%)",
        f"profiler-enabled overhead  {enabled_pct:9.4f} % "
        f"(bar: < {MAX_ENABLED_OVERHEAD_PCT}%)",
        f"measured A/B slowdown      {measured_ratio:9.3f} x (ungated cross-check)",
    )


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_profiler_overhead_under_bars(results_writer):
    result = run_registered("serving.profiler_overhead")
    results_writer("serving_profiler_overhead", result.text)
    disabled_pct = result.metric("disabled_overhead_pct").value
    enabled_pct = result.metric("enabled_overhead_pct").value
    assert disabled_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"profiler-disabled hooks cost {disabled_pct:.3f}% of per-token decode "
        f"time (bar: < {MAX_DISABLED_OVERHEAD_PCT}%)"
    )
    assert enabled_pct < MAX_ENABLED_OVERHEAD_PCT, (
        f"profiler-enabled recording costs {enabled_pct:.3f}% of per-token "
        f"decode time (bar: < {MAX_ENABLED_OVERHEAD_PCT}%)"
    )
    # The wall-clock cross-check should not contradict the model wildly.
    assert result.metric("measured_enabled_slowdown_x").value < 1.25
