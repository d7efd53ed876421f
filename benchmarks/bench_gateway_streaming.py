#!/usr/bin/env python
"""Gateway streaming latency: TTFT and inter-token latency vs direct engine.

Measures what the asyncio HTTP front door costs on top of the raw engine:

* **TTFT** — submit-to-first-token, directly off ``engine.step()`` versus
  through ``POST /v1/completions`` with SSE streaming (one process, real
  localhost socket, stdlib client);
* **inter-token latency** — mean gap between consecutive streamed tokens
  for both paths.

The streamed tokens are asserted identical to the direct engine's output —
the gateway adds transport, never changes results.  Registered as
``serving.gateway_streaming``; run standalone with::

    PYTHONPATH=src python benchmarks/bench_gateway_streaming.py [--smoke]

or through ``python -m repro.bench run --suite serving``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

from _bench_shared import never_evicting_factory, run_registered
from repro.bench import HIGHER, LOWER, BenchContext, benchmark_case
from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import ModelConfig, build_model
from repro.serving import BatchedMillionEngine


@dataclass(frozen=True)
class Params:
    prompt_tokens: int = 256
    max_new_tokens: int = 64

    @classmethod
    def smoke(cls) -> "Params":
        return cls(prompt_tokens=64, max_new_tokens=16)


def _build(params: Params):
    config = ModelConfig(
        name="bench-gateway",
        vocab_size=256,
        d_model=64,
        n_layers=2,
        n_heads=2,
        max_seq_len=params.prompt_tokens + params.max_new_tokens + 64,
        positional="rope",
        norm="rmsnorm",
        activation="silu",
    )
    model = build_model(config, seed=0)
    vocab = config.vocab_size
    calibration = load_corpus("wikitext2-syn", "train", 768, seed=1) % vocab
    million = MillionConfig.for_equivalent_bits(
        config.head_dim, bits=4, kmeans_iters=4, calibration_samples=1024
    )
    factory = calibrate_million(model, calibration, million)
    prompt = load_corpus("wikitext2-syn", "test", params.prompt_tokens, seed=2) % vocab
    return config, factory, prompt


def _measure_direct(config, factory, prompt, params: Params):
    """Step the engine by hand, timestamping each token as it appears."""
    model = build_model(config, seed=0)
    engine = BatchedMillionEngine(model, never_evicting_factory(model, factory, 1))
    engine.add_request(prompt, max_new_tokens=params.max_new_tokens)
    tokens: list[int] = []
    stamps: list[float] = []
    start = time.perf_counter()
    while engine.scheduler.has_work:
        for output in engine.step():
            if output.token is not None:
                tokens.append(output.token)
                stamps.append(time.perf_counter())
    return tokens, start, stamps


async def _measure_gateway(config, factory, prompt, params: Params):
    """Stream the same request over HTTP; timestamp each SSE frame."""
    model = build_model(config, seed=0)
    engine = BatchedMillionEngine(model, never_evicting_factory(model, factory, 1))
    server = GatewayServer(ReplicaRouter([AsyncEngineRunner(engine)]))
    host, port = await server.start(port=0)
    try:
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps(
            {
                "prompt": prompt.tolist(),
                "max_tokens": params.max_new_tokens,
                "stream": True,
            }
        ).encode()
        writer.write(
            (
                f"POST /v1/completions HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        start = time.perf_counter()
        await writer.drain()
        tokens: list[int] = []
        stamps: list[float] = []
        buffered = b""
        while True:
            chunk = await reader.read(4096)
            if not chunk:
                break
            buffered += chunk
            while b"\n\n" in buffered:
                frame, buffered = buffered.split(b"\n\n", 1)
                for line in frame.split(b"\n"):
                    if not line.startswith(b"data: ") or line == b"data: [DONE]":
                        continue
                    token = json.loads(line[len(b"data: "):])["choices"][0]["token_id"]
                    if token is not None:
                        tokens.append(token)
                        stamps.append(time.perf_counter())
        writer.close()
        return tokens, start, stamps
    finally:
        await server.stop()


def _latencies(start: float, stamps: list[float]) -> tuple[float, float]:
    """(TTFT ms, mean inter-token ms)."""
    ttft_ms = (stamps[0] - start) * 1e3
    gaps = np.diff(np.asarray(stamps))
    itl_ms = float(gaps.mean() * 1e3) if gaps.size else 0.0
    return ttft_ms, itl_ms


def measure_gateway_streaming(ctx: BenchContext, params: Params) -> None:
    ctx.set_params(**vars(params))
    config, factory, prompt = _build(params)

    direct_tokens, direct_start, direct_stamps = _measure_direct(
        config, factory, prompt, params
    )
    gateway_tokens, gateway_start, gateway_stamps = asyncio.run(
        _measure_gateway(config, factory, prompt, params)
    )
    # Correctness invariant, not a claim: the transport must be transparent.
    assert gateway_tokens == direct_tokens, (
        "gateway streamed different tokens than the direct engine"
    )

    direct_ttft, direct_itl = _latencies(direct_start, direct_stamps)
    gateway_ttft, gateway_itl = _latencies(gateway_start, gateway_stamps)
    itl_overhead = gateway_itl / direct_itl if direct_itl > 0 else 1.0

    ctx.record("streamed_tokens", len(gateway_tokens), unit="tokens",
               direction=HIGHER, tolerance_pct=0.0)
    ctx.record("gateway_itl_overhead_x", itl_overhead, unit="x", direction=LOWER,
               tolerance_pct=150.0)
    ctx.record("direct_ttft_ms", direct_ttft, unit="ms", direction=LOWER, gated=False)
    ctx.record("gateway_ttft_ms", gateway_ttft, unit="ms", direction=LOWER, gated=False)
    ctx.record("direct_itl_ms", direct_itl, unit="ms", direction=LOWER, gated=False)
    ctx.record("gateway_itl_ms", gateway_itl, unit="ms", direction=LOWER, gated=False)

    ctx.emit(
        "path      ttft_ms  itl_ms  tokens",
        f"direct    {direct_ttft:7.1f}  {direct_itl:6.2f}  {len(direct_tokens):6d}",
        f"gateway   {gateway_ttft:7.1f}  {gateway_itl:6.2f}  {len(gateway_tokens):6d}",
        "",
        f"inter-token overhead through the gateway: {itl_overhead:.2f}x",
    )


@benchmark_case(
    "serving.gateway_streaming", suite="serving", budget_s=120.0, smoke_budget_s=45.0
)
def bench_gateway_streaming(ctx: BenchContext) -> None:
    measure_gateway_streaming(ctx, Params.smoke() if ctx.smoke else Params())


def _assert_claims(metrics: dict[str, float]) -> None:
    overhead = metrics["gateway_itl_overhead_x"]
    assert overhead < 5.0, (
        f"gateway must not dominate inter-token latency, got {overhead:.2f}x"
    )


def test_gateway_streaming(results_writer):
    result = run_registered("serving.gateway_streaming")
    results_writer("gateway_streaming", result.text)
    _assert_claims({m.name: m.value for m in result.metrics})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prompt-tokens", type=int, default=None)
    parser.add_argument("--max-new-tokens", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    params = Params.smoke() if args.smoke else Params()
    overrides = {
        field: getattr(args, field)
        for field in vars(params)
        if getattr(args, field) is not None
    }
    params = Params(**{**vars(params), **overrides})

    print("calibrating MILLION codebooks ...")
    ctx = BenchContext(smoke=args.smoke)
    measure_gateway_streaming(ctx, params)
    print(ctx.text)
    _assert_claims({m.name: m.value for m in ctx.metrics})
    print("OK")


if __name__ == "__main__":
    main()
