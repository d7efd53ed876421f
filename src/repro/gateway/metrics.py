"""Prometheus text-format rendering of gateway, router and engine state.

``GET /metrics`` renders three layers into the standard
`text exposition format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_:

* gateway HTTP counters (requests by path/status, streamed tokens, client
  disconnects, in-flight requests) and TTFT/ITL latency histograms, sliced
  by quality tier and by priority class;
* router decision counters (prefix vs sticky vs least-loaded placements);
* per-replica engine statistics straight from ``engine.stats()`` — scheduler
  queue depths (total and per priority class), prefill reuse, preemptions,
  SLO rejections, and block-pool occupancy/pressure — labelled
  ``{replica="<index>"}``.

Rendering is pull-based and stateless: every scrape reflects the live
counters, nothing is sampled or aggregated in between.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

from repro.obs.health import HealthEngine, state_value
from repro.obs.hist import Histogram, LATENCY_BUCKETS_S
from repro.serving.request import PRIORITIES

_GATEWAY_PREFIX = "repro_gateway"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_value(value) -> str:
    """Prometheus-valid sample value: canonical +Inf/-Inf/NaN, never Python's.

    ``repr(float("inf"))`` is ``'inf'``, which Prometheus rejects — a single
    non-finite counter would invalidate the whole scrape.
    """
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(int(value))


class GatewayMetrics:
    """Mutable counters + latency histograms the HTTP server updates as it serves.

    TTFT (time to first token) and ITL (inter-token latency) are recorded
    twice per observation: once per quality tier (``"default"`` for untiered
    requests) and once per priority class (``interactive`` /
    ``best_effort``), so an operator can slice latency by either dimension
    without a labels cross-product.  Families are pre-seeded so the very
    first ``/metrics`` scrape already exposes every gateway family with a 0
    sample — a collector that starts alongside the gateway must see the
    family exist, not a gap until the first request happens to arrive.
    Tenant tags are deliberately **not** a label: the tenant space is
    unbounded, and unbounded label cardinality is how scrapes die.
    """

    def __init__(self) -> None:
        self.http_requests: Counter = Counter()  # (path, status) -> count
        self.http_requests[("/v1/completions", "200")] = 0
        self.tokens_streamed = 0
        self.streams_started = 0
        self.streams_cancelled = 0
        self.in_flight = 0
        self.ttft_seconds: dict[str, Histogram] = {"default": Histogram()}
        self.itl_seconds: dict[str, Histogram] = {"default": Histogram()}
        self.priority_ttft_seconds: dict[str, Histogram] = {
            label: Histogram() for label in PRIORITIES
        }
        self.priority_itl_seconds: dict[str, Histogram] = {
            label: Histogram() for label in PRIORITIES
        }

    def observe_request(self, path: str, status: int) -> None:
        self.http_requests[(path, str(status))] += 1

    @staticmethod
    def _tier_hist(store: dict[str, Histogram], tier: Optional[str]) -> Histogram:
        hist = store.get(tier or "default")
        if hist is None:
            hist = store[tier or "default"] = Histogram(LATENCY_BUCKETS_S)
        return hist

    def observe_ttft(
        self,
        seconds: float,
        tier: Optional[str] = None,
        priority: str = "interactive",
    ) -> None:
        """Record one request's time from HTTP accept to its first token."""
        self._tier_hist(self.ttft_seconds, tier).observe(seconds)
        self.priority_ttft_seconds[priority].observe(seconds)

    def observe_itl(
        self,
        seconds: float,
        tier: Optional[str] = None,
        priority: str = "interactive",
    ) -> None:
        """Record one inter-token gap (first token excluded; see TTFT)."""
        self._tier_hist(self.itl_seconds, tier).observe(seconds)
        self.priority_itl_seconds[priority].observe(seconds)


class _Lines:
    """Accumulates exposition lines with one HELP/TYPE header per metric."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def _declare(self, name: str, help_text: str, metric_type: str) -> None:
        if name not in self._declared:
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} {metric_type}")
            self._declared.add(name)

    def _sample(self, name: str, labels: Optional[dict], value) -> None:
        label_str = ""
        if labels:
            inner = ",".join(
                f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
            )
            label_str = "{" + inner + "}"
        self._lines.append(f"{name}{label_str} {_render_value(value)}")

    def add(
        self,
        name: str,
        value,
        help_text: str,
        metric_type: str = "gauge",
        labels: Optional[dict] = None,
    ) -> None:
        self._declare(name, help_text, metric_type)
        self._sample(name, labels, value)

    def add_histogram(
        self,
        name: str,
        snapshot: dict,
        help_text: str,
        labels: Optional[dict] = None,
    ) -> None:
        """Render a :meth:`repro.obs.hist.Histogram.snapshot` as a proper
        Prometheus histogram family: cumulative ``_bucket`` samples with an
        explicit ``+Inf``, then ``_sum`` and ``_count``."""
        self._declare(name, help_text, "histogram")
        labels = labels or {}
        cumulative = 0
        for bound, count in zip(snapshot["buckets"], snapshot["counts"]):
            cumulative += count
            self._sample(
                f"{name}_bucket", {**labels, "le": repr(float(bound))}, cumulative
            )
        self._sample(f"{name}_bucket", {**labels, "le": "+Inf"}, snapshot["count"])
        self._sample(f"{name}_sum", labels, float(snapshot["sum"]))
        self._sample(f"{name}_count", labels, snapshot["count"])

    @property
    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(
    metrics: GatewayMetrics,
    replica_stats: Sequence[dict],
    router_stats: Optional[dict] = None,
    health: Optional[HealthEngine] = None,
) -> str:
    """Render one scrape; ``replica_stats`` is one ``engine.stats()`` each.

    ``health`` renders the health engine's *last* evaluation (the server
    evaluates before rendering) — the scrape never re-samples.
    """
    out = _Lines()

    for (path, status), count in sorted(metrics.http_requests.items()):
        out.add(
            f"{_GATEWAY_PREFIX}_http_requests_total",
            count,
            "HTTP requests served, by path and status.",
            "counter",
            {"path": path, "status": status},
        )
    out.add(
        f"{_GATEWAY_PREFIX}_tokens_streamed_total",
        metrics.tokens_streamed,
        "Completion tokens sent to clients (streaming and non-streaming).",
        "counter",
    )
    out.add(
        f"{_GATEWAY_PREFIX}_streams_started_total",
        metrics.streams_started,
        "SSE streams opened.",
        "counter",
    )
    out.add(
        f"{_GATEWAY_PREFIX}_streams_cancelled_total",
        metrics.streams_cancelled,
        "Streams cancelled by client disconnect.",
        "counter",
    )
    out.add(
        f"{_GATEWAY_PREFIX}_requests_in_flight",
        metrics.in_flight,
        "Completion requests currently being served.",
        "gauge",
    )
    for tier in sorted(metrics.ttft_seconds):
        out.add_histogram(
            f"{_GATEWAY_PREFIX}_ttft_seconds",
            metrics.ttft_seconds[tier].snapshot(),
            "Time from HTTP accept to first completion token, by tier.",
            {"tier": tier},
        )
    for tier in sorted(metrics.itl_seconds):
        out.add_histogram(
            f"{_GATEWAY_PREFIX}_itl_seconds",
            metrics.itl_seconds[tier].snapshot(),
            "Gap between consecutive completion tokens, by tier.",
            {"tier": tier},
        )
    for priority in PRIORITIES:
        out.add_histogram(
            f"{_GATEWAY_PREFIX}_priority_ttft_seconds",
            metrics.priority_ttft_seconds[priority].snapshot(),
            "Time from HTTP accept to first completion token, by priority class.",
            {"priority": priority},
        )
    for priority in PRIORITIES:
        out.add_histogram(
            f"{_GATEWAY_PREFIX}_priority_itl_seconds",
            metrics.priority_itl_seconds[priority].snapshot(),
            "Gap between consecutive completion tokens, by priority class.",
            {"priority": priority},
        )

    if router_stats is not None:
        for reason in ("prefix", "sticky", "load"):
            out.add(
                "repro_router_decisions_total",
                router_stats[f"{reason}_routed"],
                "Routing decisions by strategy.",
                "counter",
                {"strategy": reason},
            )
        out.add(
            "repro_router_rejected_total",
            router_stats["rejected"],
            "Requests rejected because every replica queue was full.",
            "counter",
        )
        out.add(
            "repro_router_health_avoided_total",
            router_stats.get("health_avoided", 0),
            "Routing decisions that excluded at least one degraded or "
            "unhealthy replica.",
            "counter",
        )

    if health is not None:
        out.add(
            "repro_health_state",
            state_value(health.state),
            "Gateway health verdict (0 ok, 1 degraded, 2 unhealthy).",
            "gauge",
        )
        for index, replica_state in enumerate(health.replica_states):
            out.add(
                "repro_health_replica_state",
                state_value(replica_state),
                "Per-replica health verdict (0 ok, 1 degraded, 2 unhealthy).",
                "gauge",
                {"replica": str(index)},
            )
        for priority in sorted(health.burn_rates):
            out.add(
                "repro_slo_burn_rate",
                float(health.burn_rates[priority]),
                "TTFT SLO burn rate over the health window, by priority "
                "class (1.0 spends the error budget exactly as it accrues).",
                "gauge",
                {"priority": priority},
            )

    engine_gauges = (
        ("running", "repro_engine_running", "Sequences currently decoding."),
        ("queued", "repro_engine_queued", "Requests waiting for admission."),
        ("finished", "repro_engine_finished", "Finished requests not yet evicted."),
    )
    engine_counters = (
        ("preemptions", "repro_engine_preemptions_total",
         "Sequences evicted under memory pressure."),
        ("prefill_tokens_computed", "repro_engine_prefill_tokens_computed_total",
         "Prompt tokens prefillled from scratch."),
        ("prefill_tokens_reused", "repro_engine_prefill_tokens_reused_total",
         "Prompt tokens adopted from published pool blocks."),
        ("prefix_block_hits", "repro_engine_prefix_block_hits_total",
         "Prefill block lookups that adopted a published group."),
        ("prefix_block_misses", "repro_engine_prefix_block_misses_total",
         "Prefill block lookups that had to compute."),
    )
    for index, stats in enumerate(replica_stats):
        labels = {"replica": str(index)}
        for key, name, help_text in engine_gauges:
            out.add(name, stats[key], help_text, "gauge", labels)
        for key, name, help_text in engine_counters:
            out.add(name, stats[key], help_text, "counter", labels)
        out.add(
            "repro_engine_active_cache_memory_bytes",
            float(stats["active_cache_memory_bytes"]),
            "Modelled KV bytes across running sequences (shared blocks once).",
            "gauge",
            labels,
        )
        timing = stats.get("step_timing")
        if timing is not None:
            out.add(
                "repro_engine_fused_decode_steps_total",
                timing["fused_decode_steps"],
                "Engine steps whose model traversal stacked single-token rows.",
                "counter",
                labels,
            )
            out.add(
                "repro_engine_last_fused_batch_size",
                timing["last_fused_batch_size"],
                "Single-token rows stacked in the last step's traversal (0 = none).",
                "gauge",
                labels,
            )
            out.add(
                "repro_engine_prefill_seconds_total",
                float(timing["prefill_seconds_total"]),
                "Wall seconds spent in admission + prefill across steps.",
                "counter",
                labels,
            )
            out.add(
                "repro_engine_decode_seconds_total",
                float(timing["decode_seconds_total"]),
                "Wall seconds spent decoding across steps.",
                "counter",
                labels,
            )
            out.add(
                "repro_engine_prefill_chunks_total",
                timing.get("prefill_chunks_total", 0),
                "Prefill segments run (aligned chunks and residual tails).",
                "counter",
                labels,
            )
            out.add(
                "repro_engine_step_budget_utilization",
                float(timing.get("last_budget_utilization", 0.0)),
                "Prefill tokens computed in the last step over the per-step "
                "token budget (0 when the step had no prefill work; may "
                "exceed 1.0 when a minimum chunk overshoots the budget).",
                "gauge",
                labels,
            )
        phases = stats.get("phases")
        if phases:
            for phase in sorted(phases):
                out.add(
                    "repro_engine_phase_seconds",
                    float(phases[phase]["total_s"]),
                    "Wall seconds attributed to a named engine phase "
                    "(see /debug/prof for self times and flamegraphs).",
                    "counter",
                    {**labels, "phase": phase},
                )
        histograms = stats.get("histograms")
        if histograms is not None:
            out.add_histogram(
                "repro_engine_queue_wait_seconds",
                histograms["queue_wait_seconds"],
                "Queue wait from submission to first admission.",
                labels,
            )
            out.add_histogram(
                "repro_engine_step_seconds",
                histograms["prefill_step_seconds"],
                "Wall seconds of one engine step's phase, by kind.",
                {**labels, "kind": "prefill"},
            )
            out.add_histogram(
                "repro_engine_step_seconds",
                histograms["decode_step_seconds"],
                "Wall seconds of one engine step's phase, by kind.",
                {**labels, "kind": "decode"},
            )
            out.add_histogram(
                "repro_engine_fused_batch_size",
                histograms["fused_batch_size"],
                "Single-token rows stacked per traversal.",
                labels,
            )
        tiers = stats.get("tiers")
        if tiers is not None:
            for tier_label, tier_stats in sorted(tiers.items()):
                tier_labels = {**labels, "tier": tier_label}
                out.add(
                    "repro_engine_tier_running",
                    tier_stats["running"],
                    "Sequences currently decoding, by quality tier.",
                    "gauge",
                    tier_labels,
                )
                out.add(
                    "repro_engine_tier_kv_bytes",
                    float(tier_stats["kv_bytes"]),
                    "Modelled KV bytes across running sequences, by quality tier.",
                    "gauge",
                    tier_labels,
                )
                out.add(
                    "repro_engine_tier_requests_total",
                    tier_stats["requests_total"],
                    "Requests submitted, by quality tier.",
                    "counter",
                    tier_labels,
                )
                out.add(
                    "repro_engine_tier_policy_bytes_per_token",
                    float(tier_stats["policy_bytes_per_token"]),
                    "Configured KV bytes per token of the tier's "
                    "quantization policy.",
                    "gauge",
                    tier_labels,
                )
        priority = stats.get("priority")
        if priority is not None:
            for class_label, class_stats in sorted(priority.items()):
                class_labels = {**labels, "priority": class_label}
                out.add(
                    "repro_engine_priority_queued",
                    class_stats["queued"],
                    "Requests waiting for admission, by priority class.",
                    "gauge",
                    class_labels,
                )
                out.add(
                    "repro_engine_priority_running",
                    class_stats["running"],
                    "Sequences currently decoding, by priority class.",
                    "gauge",
                    class_labels,
                )
                out.add(
                    "repro_engine_priority_preemptions_total",
                    class_stats["preemptions"],
                    "Sequences evicted under memory pressure, by the "
                    "victim's priority class.",
                    "counter",
                    class_labels,
                )
                out.add(
                    "repro_engine_slo_rejections_total",
                    class_stats["slo_rejections"],
                    "Submissions refused by the SLO admission gate, by "
                    "priority class.",
                    "counter",
                    class_labels,
                )
        pool = stats["pool"]
        out.add("repro_pool_pressure", float(pool["pressure"]),
                "Fraction of pool blocks an allocation burst could not "
                "obtain (pinned by running sequences).", "gauge", labels)
        out.add("repro_pool_utilization", float(pool["utilization"]),
                "Fraction of pool blocks holding content.", "gauge", labels)
        out.add("repro_pool_used_blocks", pool["used_blocks"],
                "Pool blocks holding content.", "gauge", labels)
        out.add("repro_pool_num_blocks", pool["num_blocks"],
                "Total pool blocks.", "gauge", labels)
        out.add("repro_pool_cached_groups", pool["cached_groups"],
                "Published block groups available for prefix reuse.", "gauge", labels)
        out.add("repro_pool_adoptions_total", pool["adoptions"],
                "Published groups adopted by later sequences.", "counter", labels)
        out.add("repro_pool_evictions_total", pool["evictions"],
                "Cached groups evicted to satisfy allocations.", "counter", labels)

    return out.text


__all__ = ["GatewayMetrics", "render_prometheus"]
