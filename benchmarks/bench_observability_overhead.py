"""Observability overhead: tracing must be ~free when off, cheap when on.

The serving engine carries trace hooks (``if trace.enabled:`` guards around
recorder calls) and always-on latency histograms.  This case bounds their
cost against the fused batched-decode path two ways:

* **Modelled overhead** — microbenchmark the exact per-hook primitives (the
  ``NULL_RECORDER.enabled`` attribute check, ``Histogram.observe``, a live
  ``TraceRecorder.complete``/``instant`` with args), count how many of each
  a real traced serving run executes per decoded token, and express their
  product as a fraction of the measured per-token decode time.  This is the
  number the gates act on: it is deterministic enough for CI, unlike a
  sub-1% wall-clock difference, which drowns in run-to-run noise.
* **Measured throughput ratio** — interleaved A/B decode runs (disabled vs
  enabled recorder), recorded ungated as a sanity cross-check that the
  model is not hiding a real slowdown.

Gates: tracing-disabled overhead < 1% of per-token decode time,
tracing-enabled < 5%.

Run standalone with
``PYTHONPATH=src python -m pytest benchmarks/bench_observability_overhead.py -s``
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
from repro.obs.hist import Histogram
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.serving import BatchedMillionEngine

#: Acceptance bars, as fractions of per-token decode wall time.
MAX_DISABLED_OVERHEAD_PCT = 1.0
MAX_ENABLED_OVERHEAD_PCT = 5.0

BATCH = 8


@lru_cache(maxsize=None)
def overhead_setup(smoke: bool = False):
    config = ModelConfig(
        name="obs-overhead-bench-lm",
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


def _decode_run(model, factory, prompts, trace, warmup_steps, steps):
    """Steady-state decode: (tokens/sec, tokens decoded, recorder events)."""
    engine = BatchedMillionEngine(
        model,
        never_evicting_factory(model, factory, len(prompts)),
        max_batch_size=len(prompts),
        trace=trace,
    )
    for prompt in prompts:
        engine.add_request(prompt, max_new_tokens=10_000)
    for _ in range(warmup_steps):
        engine.step()
    events_before = len(trace) if trace is not None else 0
    start = time.perf_counter()
    decoded = 0
    for _ in range(steps):
        decoded += len(engine.step())
    wall = time.perf_counter() - start
    events = (len(trace) - events_before) if trace is not None else 0
    return decoded / wall, decoded, events


def _per_call_seconds(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


@benchmark_case(
    "serving.observability_overhead", suite="serving", budget_s=120.0,
    smoke_budget_s=60.0,
)
def bench_observability_overhead(ctx: BenchContext) -> None:
    """Trace-hook and histogram cost as a fraction of per-token decode time."""
    setup = overhead_setup(ctx.smoke)
    model, factory, prompts = setup["model"], setup["factory"], setup["prompts"]
    steps = ctx.pick(full=32, smoke=12)
    warmup = ctx.pick(full=8, smoke=4)
    micro_calls = ctx.pick(full=200_000, smoke=50_000)
    ctx.set_params(
        batch=BATCH, steps=steps, warmup_steps=warmup, micro_calls=micro_calls,
        max_disabled_overhead_pct=MAX_DISABLED_OVERHEAD_PCT,
        max_enabled_overhead_pct=MAX_ENABLED_OVERHEAD_PCT,
    )

    # Interleaved A/B decode runs; the traced run also yields events/token.
    disabled_rates, enabled_rates = [], []
    events_per_token = 0.0
    for _ in range(2):
        off_rate, _, _ = _decode_run(
            model, factory, prompts, NULL_RECORDER, warmup, steps
        )
        recorder = TraceRecorder(capacity=1_000_000)
        on_rate, decoded, events = _decode_run(
            model, factory, prompts, recorder, warmup, steps
        )
        disabled_rates.append(off_rate)
        enabled_rates.append(on_rate)
        events_per_token = events / decoded
    off_rate = max(disabled_rates)
    on_rate = max(enabled_rates)
    token_seconds = 1.0 / off_rate

    # Per-primitive costs, measured on the real objects.
    null = NULL_RECORDER
    check_s = _per_call_seconds(lambda: null.enabled and None, micro_calls)
    hist = Histogram()
    observe_s = _per_call_seconds(lambda: hist.observe(0.01), micro_calls)
    live = TraceRecorder(capacity=4096)
    t0 = live.now()

    def _record_event():
        live.complete("decode_step", t0, t0 + 0.001, track="bench",
                      args={"batch": BATCH, "fused_batch": BATCH})

    record_s = _per_call_seconds(_record_event, micro_calls // 4)

    # Always-on per-token cost: the guard at every hook site plus the step
    # histograms (decode + fused batch size per step, amortised over the
    # batch).  Queue-wait/prefill hooks are per-request, negligible across a
    # long decode, but counted via events_per_token anyway when enabled.
    observes_per_token = 2.0 / BATCH
    disabled_per_token = events_per_token * check_s + observes_per_token * observe_s
    enabled_per_token = (
        events_per_token * record_s + observes_per_token * observe_s
    )
    disabled_pct = 100.0 * disabled_per_token / token_seconds
    enabled_pct = 100.0 * enabled_per_token / token_seconds
    measured_ratio = off_rate / on_rate

    ctx.record("tokens_per_s_tracing_disabled", off_rate, unit="tok/s",
               direction=HIGHER, gated=False)
    ctx.record("tokens_per_s_tracing_enabled", on_rate, unit="tok/s",
               direction=HIGHER, gated=False)
    ctx.record("events_per_token", events_per_token, unit="events",
               direction=LOWER, gated=False)
    ctx.record("measured_enabled_slowdown_x", measured_ratio, unit="x",
               direction=LOWER, gated=False)
    ctx.record("disabled_overhead_pct", disabled_pct, unit="%",
               direction=LOWER, tolerance_pct=400.0, gated=True)
    ctx.record("enabled_overhead_pct", enabled_pct, unit="%",
               direction=LOWER, tolerance_pct=400.0, gated=True)

    ctx.emit(
        f"per-token decode time     {token_seconds * 1e6:9.1f} us "
        f"({off_rate:.0f} tok/s, B={BATCH})",
        f"trace events per token    {events_per_token:9.2f}",
        f"enabled-guard check       {check_s * 1e9:9.1f} ns",
        f"histogram observe         {observe_s * 1e9:9.1f} ns",
        f"recorder event append     {record_s * 1e9:9.1f} ns",
        "",
        f"tracing-disabled overhead {disabled_pct:9.4f} % "
        f"(bar: < {MAX_DISABLED_OVERHEAD_PCT}%)",
        f"tracing-enabled overhead  {enabled_pct:9.4f} % "
        f"(bar: < {MAX_ENABLED_OVERHEAD_PCT}%)",
        f"measured A/B slowdown     {measured_ratio:9.3f} x (ungated cross-check)",
    )


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_observability_overhead_under_bars(results_writer):
    result = run_registered("serving.observability_overhead")
    results_writer("serving_observability_overhead", result.text)
    disabled_pct = result.metric("disabled_overhead_pct").value
    enabled_pct = result.metric("enabled_overhead_pct").value
    assert disabled_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"tracing-disabled hooks cost {disabled_pct:.3f}% of per-token decode "
        f"time (bar: < {MAX_DISABLED_OVERHEAD_PCT}%)"
    )
    assert enabled_pct < MAX_ENABLED_OVERHEAD_PCT, (
        f"tracing-enabled recording costs {enabled_pct:.3f}% of per-token "
        f"decode time (bar: < {MAX_ENABLED_OVERHEAD_PCT}%)"
    )
    # The wall-clock cross-check should not contradict the model wildly.
    assert result.metric("measured_enabled_slowdown_x").value < 1.25
