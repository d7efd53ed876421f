#!/usr/bin/env python
"""Serving-gateway demo: streaming completions over HTTP with prefix routing.

Starts a two-replica :class:`GatewayServer` in-process (each replica is a
:class:`BatchedMillionEngine` with its own paged block pool), then plays an
HTTP client against it with plain asyncio sockets:

1. streams one completion token by token (server-sent events, exactly what
   ``curl -N`` would show);
2. sends a burst of requests sharing one system prefix — the
   :class:`ReplicaRouter` sends them all to the same replica, so the prefix
   is prefilled once and every later request adopts the published pool
   blocks;
3. scrapes ``/metrics`` and prints the prefix-hit and routing counters that
   prove the reuse happened.

For the standalone server use ``python -m repro.gateway`` (see the README
quickstart).  Run this demo with::

    python examples/gateway_streaming.py [--requests 4] [--prefix-tokens 192]
"""

from __future__ import annotations

import argparse
import asyncio
import json

import numpy as np

from repro.core import MillionConfig, calibrate_million
from repro.data import load_corpus
from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import load_model
from repro.serving import BatchedMillionEngine, PooledPolicyCacheFactory


async def http_post(host: str, port: int, path: str, payload: dict) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: demo\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    return data.partition(b"\r\n\r\n")[2]


async def http_get(host: str, port: int, path: str) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    return data.partition(b"\r\n\r\n")[2].decode()


def sse_tokens(body: bytes) -> list[int]:
    tokens = []
    for line in body.decode().splitlines():
        if line.startswith("data: ") and line != "data: [DONE]":
            token = json.loads(line[len("data: "):])["choices"][0]["token_id"]
            if token is not None:
                tokens.append(token)
    return tokens


async def run_demo(args: argparse.Namespace) -> None:
    million = None
    engines = []
    print("calibrating MILLION codebooks once, building 2 replicas ...")
    base_factory = None
    for index in range(2):
        model = load_model("llama-2-7b-tiny", seed=0, max_seq_len=1024)
        if million is None:
            million = MillionConfig.for_equivalent_bits(
                model.config.head_dim, bits=4, kmeans_iters=4, calibration_samples=1024
            )
            calibration = load_corpus("wikitext2-syn", "train", 768) % model.config.vocab_size
            base_factory = calibrate_million(model, calibration, million)
        factory = PooledPolicyCacheFactory(
            model.config, {4: base_factory}, num_blocks=512, block_tokens=16
        )
        engines.append(BatchedMillionEngine(model, factory, max_batch_size=4))

    runners = [
        AsyncEngineRunner(engine, name=f"replica-{i}") for i, engine in enumerate(engines)
    ]
    server = GatewayServer(ReplicaRouter(runners))
    host, port = await server.start(port=0)
    print(f"gateway listening on http://{host}:{port}\n")
    try:
        vocab = engines[0].model.config.vocab_size
        prefix = (load_corpus("wikitext2-syn", "test", args.prefix_tokens, seed=42) % vocab)

        print("--- streaming one completion (what curl -N shows) ---")
        body = await http_post(
            host, port, "/v1/completions",
            {"prompt": prefix[:32].tolist(), "max_tokens": 12, "stream": True},
        )
        print(f"streamed tokens: {sse_tokens(body)}\n")

        print(f"--- {args.requests} concurrent requests sharing a "
              f"{args.prefix_tokens}-token system prefix ---")
        suffixes = [
            (load_corpus("wikitext2-syn", "test", 8, seed=100 + i) % vocab)
            for i in range(args.requests)
        ]
        responses = await asyncio.gather(
            *(
                http_post(
                    host, port, "/v1/completions",
                    {
                        "prompt": np.concatenate([prefix, suffix]).tolist(),
                        "max_tokens": 8,
                        "stream": True,
                    },
                )
                for suffix in suffixes
            )
        )
        for i, body in enumerate(responses):
            print(f"  request {i}: {sse_tokens(body)}")

        metrics = await http_get(host, port, "/metrics")
        print("\n--- /metrics excerpts (prefix reuse + routing) ---")
        for line in metrics.splitlines():
            if line.startswith(
                (
                    "repro_engine_prefill_tokens",
                    "repro_engine_prefix_block",
                    "repro_router_decisions",
                    "repro_pool_adoptions",
                    "repro_gateway_tokens_streamed",
                )
            ):
                print(f"  {line}")
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=4)
    parser.add_argument("--prefix-tokens", type=int, default=192)
    args = parser.parse_args()
    asyncio.run(run_demo(args))


if __name__ == "__main__":
    main()
