"""The ``http_stream`` workload: one connection against a gateway subprocess.

The gateway runs as ``perfbench/serve.py`` (the ``python -m repro.gateway``
CLI, plus layer spans in the traced run).  One client sends its requests in
order over one connection at a time and streams each reply over SSE; a
second concurrent connection would make batching depend on timing.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Optional

from perfbench.loop import LoopResult, Record
from perfbench.workloads import Request, Workload

READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0


class Gateway:
    """A gateway subprocess on an ephemeral localhost port."""

    def __init__(self, flags: list[str], log_path: str, spans_path: Optional[str] = None):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        argv = [sys.executable, os.path.join(root, "perfbench", "serve.py")]
        if spans_path is not None:
            argv += ["--spans", spans_path]
        argv += ["--host", "127.0.0.1", "--port", "0", *flags]
        self._log = open(log_path, "w", encoding="utf-8")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, text=True, cwd=root
        )
        self.port = self._await_ready()
        #: Launch to "listening": the engine is built and the port is open.
        self.setup_s = time.perf_counter() - self.launched

    def _await_ready(self) -> int:
        deadline = self.launched + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("gateway did not become ready; see its log")

    def stop(self) -> None:
        """SIGINT (the gateway's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def stream(self, request: Request, record: Record) -> None:
        """Send one completion and stream it into ``record``.

        ``record.accepted`` is when the response headers arrived.
        """
        body = json.dumps(
            {"prompt": list(request.prompt), "max_tokens": request.max_new_tokens,
             "stream": True}
        )
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            record.submitted = time.perf_counter()
            conn.request(
                "POST", "/v1/completions", body, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            record.accepted = time.perf_counter()
            if response.status != 200:
                record.error = f"HTTP {response.status}: {response.read()[:200]!r}"
                return
            while True:
                line = response.readline()
                if not line:
                    break
                if not line.startswith(b"data: "):
                    continue
                payload = line[6:].strip()
                if payload == b"[DONE]":
                    break
                choice = json.loads(payload)["choices"][0]
                if choice["token_id"] is not None:
                    record.token_times.append(time.perf_counter())
                    record.tokens.append(int(choice["token_id"]))
                if choice["finish_reason"] is not None:
                    record.finish_reason = choice["finish_reason"]
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            record.error = f"stream: {exc!r}"
        finally:
            conn.close()


def run_sequential(gateway: Gateway, workload: Workload) -> LoopResult:
    """The single client's closed loop: each request after the previous one."""
    (stream,) = workload.streams
    records = []
    started = time.perf_counter()
    for request in stream:
        record = Record(request)
        gateway.stream(request, record)
        records.append(record)
    return LoopResult(records, [], started, time.perf_counter())


def solo_mismatches(gateway: Gateway, records: list[Record]) -> list[str]:
    """Send each record again, alone; ids whose tokens differ from the first time."""
    bad = []
    for record in records:
        again = Record(record.request)
        gateway.stream(record.request, again)
        if again.tokens != record.tokens:
            bad.append(record.request.request_id)
    return bad


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def _series(text: str) -> list[tuple[str, dict, float]]:
    out = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and not line.startswith("#"):
            labels = dict(_LABEL.findall(match.group(2) or ""))
            out.append((match.group(1), labels, float(match.group(3))))
    return out


_COUNTERS = {
    "prefill_s": "repro_engine_prefill_seconds_total",
    "decode_s": "repro_engine_decode_seconds_total",
    "chunk_substeps": "repro_engine_prefill_chunks_total",
    "prefill_tokens_computed": "repro_engine_prefill_tokens_computed_total",
    "prefill_tokens_reused": "repro_engine_prefill_tokens_reused_total",
    "block_hits": "repro_engine_prefix_block_hits_total",
    "block_misses": "repro_engine_prefix_block_misses_total",
    "preemptions": "repro_engine_preemptions_total",
    "adoptions": "repro_pool_adoptions_total",
    "evictions": "repro_pool_evictions_total",
    "fused_batch_sum": "repro_engine_fused_batch_size_sum",
    "fused_batch_count": "repro_engine_fused_batch_size_count",
}


def metrics_counters(text: str) -> dict:
    """The counters of :func:`perfbench.inproc.engine_counters`, from ``/metrics``."""
    series = _series(text)
    counters: dict = {key: 0.0 for key in _COUNTERS}
    counters.update(decode_steps=0.0, phases={})
    by_name = {name: key for key, name in _COUNTERS.items()}
    for name, labels, value in series:
        if name in by_name:
            counters[by_name[name]] += value
        elif name == "repro_engine_step_seconds_count" and labels.get("kind") == "decode":
            counters["decode_steps"] += value
        elif name == "repro_engine_phase_seconds":
            phase = labels["phase"]
            counters["phases"][phase] = counters["phases"].get(phase, 0.0) + value
    return counters
