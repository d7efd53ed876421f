#!/usr/bin/env python
"""CI smoke test for the serving gateway, across a real process boundary.

Starts ``python -m repro.gateway`` as a subprocess on an ephemeral port,
then from this process:

1. waits for ``/healthz`` to come up;
2. streams one completion over HTTP (SSE) and asserts the tokens are
   **identical** to a direct :meth:`BatchedMillionEngine.run` on an engine
   built from the same :class:`GatewayConfig` — everything the demo gateway
   serves is synthesized from seeds, so both processes hold the same model;
3. exercises ``/metrics``: validates the whole scrape as Prometheus text
   exposition (:func:`repro.obs.promtext.parse_exposition`), checks the
   gateway/engine/pool counters moved, and that the TTFT/ITL histogram
   families exist with ``_count`` matching the requests served;
4. pulls ``/debug/trace`` and asserts it is a schema-valid Chrome trace
   containing at least one complete request span;
5. pulls ``/debug/prof`` and validates the profiler payload (phase table +
   collapsed stacks + speedscope document) with
   :func:`repro.obs.prof.validate_prof_payload`;
6. streams a long "whale" prompt concurrently with a short request and
   asserts the short one finishes first — chunked prefill (on for the
   whole smoke, reference engine included) must not let the whale starve
   running streams — and that ``repro_engine_prefill_chunks_total`` and
   ``repro_engine_step_budget_utilization`` are exported;
7. checks ``/readyz`` reports ready and renders one frame of the
   ``repro-obs top`` dashboard (``python -m repro.obs top --once``);
8. checks a malformed request is rejected with 400;
9. starts the gateway a second time against the same job-local
   ``--codebook-cache`` directory and asserts that this start logs a cache
   hit (the first logged a calibration) and streams the same tokens.

The reference engine calibrates without the cache, so the first gateway's
tokens also pin cached-vs-fresh identity across the process boundary.

Run from the repository root::

    PYTHONPATH=src python scripts/gateway_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data import load_corpus  # noqa: E402
from repro.gateway import GatewayConfig, build_engines  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.obs.prof import validate_prof_payload  # noqa: E402
from repro.obs.promtext import ExpositionError, parse_exposition  # noqa: E402

#: Histogram families the serving gate relies on; a scrape without them is
#: a failure even if the rest of the exposition parses.
GATED_FAMILIES = (
    "repro_gateway_ttft_seconds",
    "repro_gateway_itl_seconds",
    "repro_gateway_priority_ttft_seconds",
    "repro_gateway_priority_itl_seconds",
    "repro_engine_queue_wait_seconds",
    "repro_engine_step_seconds",
    "repro_engine_fused_batch_size",
)

CONFIG = GatewayConfig(
    max_seq_len=512,
    calibration_tokens=512,
    pool_blocks=256,
    replicas=1,
    # The prefill budget changes sampled tokens, so the same budget must be on
    # in BOTH processes for the token-identity check to compare like with
    # like.  The tight budget makes the whale scenario genuinely chunk.
    chunked_prefill=1,
    prefill_token_budget=32,
)
MAX_TOKENS = 12
WHALE_PROMPT_TOKENS = 384
WHALE_MAX_TOKENS = 16


def start_gateway(codebook_cache: str) -> tuple[subprocess.Popen, int, list[str]]:
    """Launch the gateway; returns the process, its port and its start-up lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.gateway", "--port", "0",
            "--max-seq-len", str(CONFIG.max_seq_len),
            "--calibration-tokens", str(CONFIG.calibration_tokens),
            "--pool-blocks", str(CONFIG.pool_blocks),
            "--replicas", str(CONFIG.replicas),
            "--chunked-prefill", str(CONFIG.chunked_prefill),
            "--prefill-token-budget", str(CONFIG.prefill_token_budget),
            "--codebook-cache", codebook_cache,
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 180
    assert process.stdout is not None
    lines = []
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(f"gateway exited early (rc={process.poll()})")
        print(f"  [gateway] {line.rstrip()}")
        lines.append(line)
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return process, int(match.group(1)), lines
    raise SystemExit("gateway did not start within 180s")


def stop_gateway(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


def logged(lines: list[str], needle: str) -> bool:
    return any(needle in line for line in lines)


def request(port: int, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    data = response.read()
    connection.close()
    return response.status, data


def stream_tokens(port: int, prompt: list[int]) -> list[int]:
    status, body = request(
        port, "POST", "/v1/completions",
        {"prompt": prompt, "max_tokens": MAX_TOKENS, "stream": True},
    )
    assert status == 200, (status, body)
    streamed = []
    for line in body.decode().splitlines():
        if line.startswith("data: ") and line != "data: [DONE]":
            token = json.loads(line[len("data: "):])["choices"][0]["token_id"]
            if token is not None:
                streamed.append(token)
    return streamed


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="gateway-smoke-codebooks-") as codebook_cache:
        prompt, streamed = check_gateway(codebook_cache)
        print("restarting the gateway against the same codebook cache ...")
        process, port, lines = start_gateway(codebook_cache)
        try:
            assert logged(lines, "codebook cache hit"), (
                "second start did not load its codebooks from the cache"
            )
            restarted = stream_tokens(port, prompt)
        finally:
            stop_gateway(process)
        assert restarted == streamed, (
            "warm-started gateway diverged from the calibrating one:\n"
            f"  warm: {restarted}\n  cold: {streamed}"
        )
        print("warm start ok (codebook cache hit, identical tokens)")
    print("gateway smoke PASS")


def check_gateway(codebook_cache: str) -> tuple[list[int], list[int]]:
    """Steps 1-8 against a gateway that calibrates into ``codebook_cache``;
    returns the prompt and the tokens streamed for it."""
    print("building reference engine (same seeds as the gateway subprocess) ...")
    reference_engine = build_engines(replace(CONFIG, codebook_cache=""))[0]
    vocab = reference_engine.model.config.vocab_size
    prompt = (load_corpus("wikitext2-syn", "test", 48, seed=11) % vocab).tolist()
    request_id = reference_engine.add_request(
        np.asarray(prompt), max_new_tokens=MAX_TOKENS
    )
    expected = reference_engine.run()[request_id].tolist()
    print(f"reference tokens: {expected}")

    print("starting gateway subprocess ...")
    process, port, lines = start_gateway(codebook_cache)
    try:
        assert logged(lines, "calibrated MILLION codebooks"), (
            "first start against an empty codebook cache did not calibrate"
        )
        status, body = request(port, "GET", "/healthz")
        assert status == 200, (status, body)
        assert json.loads(body)["status"] == "ok"
        print("healthz ok")

        streamed = stream_tokens(port, prompt)
        print(f"streamed tokens:  {streamed}")
        assert streamed == expected, (
            "gateway stream diverged from direct engine.run():\n"
            f"  gateway: {streamed}\n  direct:  {expected}"
        )
        print("token identity across the HTTP boundary ok")

        status, body = request(port, "GET", "/metrics")
        assert status == 200
        metrics = body.decode()
        for needle in (
            f"repro_gateway_tokens_streamed_total {len(expected)}",
            'repro_gateway_http_requests_total{path="/v1/completions",status="200"} 1',
            'repro_engine_finished{replica="0"} 1',
            "repro_pool_utilization",
            "repro_router_decisions_total",
            "repro_engine_prefill_chunks_total",
            "repro_engine_step_budget_utilization",
        ):
            assert needle in metrics, f"missing from /metrics: {needle}\n{metrics}"
        try:
            families = parse_exposition(metrics)
        except ExpositionError as error:
            raise SystemExit(
                "/metrics is not valid Prometheus text exposition:\n"
                + "\n".join(error.errors)
            )
        for family in GATED_FAMILIES:
            assert family in families, f"gated family missing from /metrics: {family}"
            assert families[family].type == "histogram", family
        ttft = families["repro_gateway_ttft_seconds"]
        assert ttft.value(tier="default", le="+Inf") == 1.0, (
            "TTFT _count should match the 1 request served"
        )
        itl = families["repro_gateway_itl_seconds"]
        assert itl.value(tier="default", le="+Inf") == float(len(expected) - 1), (
            "ITL _count should be tokens served minus the first"
        )
        priority_ttft = families["repro_gateway_priority_ttft_seconds"]
        assert priority_ttft.value(priority="interactive", le="+Inf") == 1.0, (
            "a request without an explicit priority is interactive"
        )
        print(f"metrics ok ({len(families)} families, exposition valid)")

        status, body = request(port, "GET", "/debug/trace")
        assert status == 200, (status, body)
        trace = json.loads(body)
        validate_chrome_trace(trace)
        request_spans = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "request"
        ]
        assert request_spans, "no complete request span in /debug/trace"
        engine_names = {e.get("name") for e in trace["traceEvents"]}
        assert {"queue_wait", "prefill", "first_token"} <= engine_names, (
            f"lifecycle spans missing from trace: {sorted(engine_names)}"
        )
        print(
            f"trace ok ({trace['otherData']['events']} events, "
            f"{len(request_spans)} request span(s))"
        )

        status, body = request(port, "GET", "/debug/prof")
        assert status == 200, (status, body)
        prof_payload = json.loads(body)
        validate_prof_payload(prof_payload)
        assert prof_payload["enabled"], "profiler should default on"
        prof_phases = {row["phase"] for row in prof_payload["phases"]}
        assert {"decode", "prefill"} <= prof_phases, (
            f"profiler missing top-level phases: {sorted(prof_phases)}"
        )
        assert "repro_engine_phase_seconds" in families, (
            "profiled gateway should export repro_engine_phase_seconds"
        )
        assert "repro_health_state" in families, (
            "gateway should export its health verdict"
        )
        print(f"prof ok ({len(prof_phases)} phases, payload valid)")

        assert "prefill/chunk" in prof_phases, (
            f"chunked prefill never profiled a chunk: {sorted(prof_phases)}"
        )

        # A whale prompt must stream to completion without starving a
        # concurrent short request: under chunked prefill the short one
        # keeps decoding between the whale's chunks and finishes first.
        whale_prompt = (
            load_corpus("wikitext2-syn", "test", WHALE_PROMPT_TOKENS, seed=5)
            % vocab
        ).tolist()
        short_prompt = prompt[:8]
        outcome: dict = {}

        def stream(key, req_prompt, max_tokens):
            status, body = request(
                port, "POST", "/v1/completions",
                {"prompt": req_prompt, "max_tokens": max_tokens, "stream": True},
            )
            tokens = sum(
                1
                for line in body.decode().splitlines()
                if line.startswith("data: ") and line != "data: [DONE]"
                and json.loads(line[len("data: "):])["choices"][0]["token_id"]
                is not None
            )
            outcome[key] = (status, tokens, time.perf_counter())

        whale_thread = threading.Thread(
            target=stream, args=("whale", whale_prompt, WHALE_MAX_TOKENS)
        )
        whale_thread.start()
        time.sleep(0.1)  # let the whale's first chunks land
        stream("short", short_prompt, 4)
        whale_thread.join(timeout=120)
        assert not whale_thread.is_alive(), "whale stream never completed"
        assert outcome["whale"][0] == 200 and outcome["short"][0] == 200, outcome
        assert outcome["whale"][1] == WHALE_MAX_TOKENS, outcome
        assert outcome["short"][1] == 4, outcome
        assert outcome["short"][2] < outcome["whale"][2], (
            "short request starved behind the whale prefill: "
            f"short finished at {outcome['short'][2]:.3f}, "
            f"whale at {outcome['whale'][2]:.3f}"
        )
        status, body = request(port, "GET", "/metrics")
        assert status == 200
        chunk_samples = parse_exposition(body.decode())[
            "repro_engine_prefill_chunks_total"
        ]
        chunks_total = chunk_samples.value(replica="0")
        assert chunks_total >= WHALE_PROMPT_TOKENS // CONFIG.prefill_token_budget, (
            f"whale prefill barely chunked: {chunks_total} sub-steps"
        )
        print(
            f"whale ok ({WHALE_PROMPT_TOKENS} tokens chunked into "
            f"{int(chunks_total)} sub-steps; concurrent short request "
            "finished first)"
        )

        status, body = request(port, "GET", "/readyz")
        assert status == 200, (status, body)
        assert json.loads(body)["ready"] is True
        print("readyz ok")

        top = subprocess.run(
            [
                sys.executable, "-m", "repro.obs", "top", "--once",
                "--no-color", "--target", f"127.0.0.1:{port}",
            ],
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src")
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert top.returncode == 0, (top.returncode, top.stdout, top.stderr)
        assert "repro-obs top" in top.stdout and "health=ok" in top.stdout, (
            top.stdout
        )
        print("repro-obs top --once ok")

        status, body = request(port, "POST", "/v1/completions", {"max_tokens": 4})
        assert status == 400, (status, body)
        print("validation ok")
    finally:
        stop_gateway(process)
    return prompt, streamed


if __name__ == "__main__":
    main()
