"""Prometheus text-format rendering of gateway, router and engine state.

Every ``GET /metrics`` family is defined once, in :data:`FAMILIES`: one
frozen :class:`MetricFamily` per family, holding its name, type, declared
label keys, help text and a sample reader over the scrape inputs.
:func:`render_prometheus` walks that table family by family into the
`text exposition format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_,
so all lines of one family form one contiguous group, and
:func:`catalogue_markdown` renders the same table as the metric catalogue
of ``docs/OPERATIONS.md``.  The families read the gateway's HTTP counters
and TTFT/ITL histograms (by quality tier and by priority class), the
router's decision counters, the health engine's last verdicts, and each
replica's ``engine.stats()`` (labelled ``{replica="<index>"}``).

Rendering is pull-based and stateless: every scrape reflects the live
counters, nothing is sampled or aggregated in between.  A family without
samples (no router, no health engine, no profiled phase yet) is left out.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from operator import getitem
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.obs.health import HealthEngine, state_value
from repro.obs.hist import Histogram, LATENCY_BUCKETS_S
from repro.serving.request import PRIORITIES


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


#: A reader yields ``(label values in declared-key order, value)`` pairs;
#: a histogram's value is a :meth:`repro.obs.hist.Histogram.snapshot`.
Reader = Callable[[Any], Iterable[tuple[tuple, Any]]]


@dataclass(frozen=True)
class MetricFamily:
    """One ``/metrics`` family, defined once.

    ``source`` names the scrape input ``read`` takes: ``"gateway"`` (the
    :class:`GatewayMetrics`), ``"router"`` (router stats), ``"health"`` (the
    :class:`HealthEngine`) or ``"replica"`` (one ``engine.stats()`` dict, read
    once per replica; the renderer prepends the ``replica`` label).  A family
    whose input is absent from the scrape is not rendered.
    """

    name: str
    type: str
    help: str
    labels: tuple[str, ...]
    read: Reader
    source: str

    @property
    def label_keys(self) -> tuple[str, ...]:
        """Every label key of the family's samples, ``le`` excluded."""
        return ("replica", *self.labels) if self.source == "replica" else self.labels


_gateway = partial(MetricFamily, source="gateway")
_router = partial(MetricFamily, source="router")
_health = partial(MetricFamily, source="health")
_replica = partial(MetricFamily, source="replica")


def _at(*path: str, cast: Callable = lambda value: value) -> Reader:
    """Reader of one unlabelled per-replica value at ``stats[path[0]][path[1]]...``."""
    return lambda stats: [((), cast(reduce(getitem, path, stats)))]


def _by(section: str, key: str, cast: Callable = lambda value: value) -> Reader:
    """Reader of ``stats[section][label][key]`` for every label, in sorted order."""
    return lambda stats: [
        ((label,), cast(entry[key])) for label, entry in sorted(stats[section].items())
    ]


def _hist(store: str) -> Reader:
    """Reader of a :class:`GatewayMetrics` histogram dict, one series per label."""
    return lambda m: [
        ((label,), hist.snapshot()) for label, hist in sorted(getattr(m, store).items())
    ]


FAMILIES: tuple[MetricFamily, ...] = (
    # Gateway (HTTP front door) -------------------------------------------
    _gateway("repro_gateway_http_requests_total", "counter",
             "HTTP requests served, by path and status.", ("path", "status"),
             lambda m: sorted(m.http_requests.items())),
    _gateway("repro_gateway_tokens_streamed_total", "counter",
             "Completion tokens sent to clients (streaming and non-streaming).", (),
             lambda m: [((), m.tokens_streamed)]),
    _gateway("repro_gateway_streams_started_total", "counter",
             "SSE streams opened.", (), lambda m: [((), m.streams_started)]),
    _gateway("repro_gateway_streams_cancelled_total", "counter",
             "Streams cancelled by client disconnect.", (),
             lambda m: [((), m.streams_cancelled)]),
    _gateway("repro_gateway_requests_in_flight", "gauge",
             "Completion requests currently being served.", (),
             lambda m: [((), m.in_flight)]),
    _gateway("repro_gateway_ttft_seconds", "histogram",
             "Time from HTTP accept to first completion token, by tier.", ("tier",),
             _hist("ttft_seconds")),
    _gateway("repro_gateway_itl_seconds", "histogram",
             "Gap between consecutive completion tokens, by tier.", ("tier",),
             _hist("itl_seconds")),
    _gateway("repro_gateway_priority_ttft_seconds", "histogram",
             "Time from HTTP accept to first completion token, by priority class.",
             ("priority",), _hist("priority_ttft_seconds")),
    _gateway("repro_gateway_priority_itl_seconds", "histogram",
             "Gap between consecutive completion tokens, by priority class.",
             ("priority",), _hist("priority_itl_seconds")),
    # Router --------------------------------------------------------------
    _router("repro_router_decisions_total", "counter",
            "Routing decisions by strategy: prefix (pool-hash hit), sticky (recent "
            "same-prefix placement) or load (least-loaded fallback).", ("strategy",),
            lambda r: [((key,), r[f"{key}_routed"]) for key in ("prefix", "sticky", "load")]),
    _router("repro_router_rejected_total", "counter",
            "Requests rejected because every replica queue was full.", (),
            lambda r: [((), r["rejected"])]),
    _router("repro_router_health_avoided_total", "counter",
            "Routing decisions that excluded at least one degraded or unhealthy replica.",
            (), lambda r: [((), r["health_avoided"])]),
    # Health engine (its last evaluation; the scrape never re-samples) -------
    _health("repro_health_state", "gauge",
            "Gateway health verdict (0 ok, 1 degraded, 2 unhealthy).", (),
            lambda h: [((), state_value(h.state))]),
    _health("repro_health_replica_state", "gauge",
            "Per-replica health verdict (0 ok, 1 degraded, 2 unhealthy).", ("replica",),
            lambda h: [((str(index),), state_value(state))
                       for index, state in enumerate(h.replica_states)]),
    _health("repro_slo_burn_rate", "gauge",
            "TTFT SLO burn rate over the health window, by priority class (1.0 spends "
            "the error budget exactly as it accrues); only classes with a configured SLO.",
            ("priority",),
            lambda h: [((p,), float(h.burn_rates[p])) for p in sorted(h.burn_rates)]),
    # Engine (per replica) ------------------------------------------------
    _replica("repro_engine_running", "gauge",
             "Sequences currently decoding.", (), _at("running")),
    _replica("repro_engine_queued", "gauge",
             "Requests waiting for admission.", (), _at("queued")),
    _replica("repro_engine_finished", "gauge",
             "Finished requests not yet evicted.", (), _at("finished")),
    _replica("repro_engine_preemptions_total", "counter",
             "Sequences evicted under memory pressure.", (), _at("preemptions")),
    _replica("repro_engine_prefill_tokens_computed_total", "counter",
             "Prompt tokens prefilled from scratch.", (), _at("prefill_tokens_computed")),
    _replica("repro_engine_prefill_tokens_reused_total", "counter",
             "Prompt tokens adopted from published pool blocks.", (),
             _at("prefill_tokens_reused")),
    _replica("repro_engine_prefix_block_hits_total", "counter",
             "Prefill block lookups that adopted a published group.", (),
             _at("prefix_block_hits")),
    _replica("repro_engine_prefix_block_misses_total", "counter",
             "Prefill block lookups that had to compute.", (), _at("prefix_block_misses")),
    _replica("repro_engine_active_cache_memory_bytes", "gauge",
             "Modelled KV bytes across running sequences (shared blocks once).", (),
             _at("active_cache_memory_bytes", cast=float)),
    _replica("repro_engine_fused_decode_steps_total", "counter",
             "Engine steps whose one model traversal stacked at least one single-token "
             "row (decode rows, restore-replay rows, one-token tails).", (),
             _at("step_timing", "fused_decode_steps")),
    _replica("repro_engine_last_fused_batch_size", "gauge",
             "Single-token rows stacked in the last step's traversal (decode and replay "
             "rows plus one-token tails; 0 = none).", (),
             _at("step_timing", "last_fused_batch_size")),
    _replica("repro_engine_prefill_seconds_total", "counter",
             "Wall seconds spent in admission + prefill across steps.", (),
             _at("step_timing", "prefill_seconds_total", cast=float)),
    _replica("repro_engine_decode_seconds_total", "counter",
             "Wall seconds spent decoding across steps.", (),
             _at("step_timing", "decode_seconds_total", cast=float)),
    _replica("repro_engine_prefill_chunks_total", "counter",
             "Prefill segments run: aligned chunks and residual tails (restore-replay "
             "rows are rows, not segments); with --chunked-prefill 0 a fresh prompt "
             "takes one or two (aligned prefix, tail).", (),
             _at("step_timing", "prefill_chunks_total")),
    _replica("repro_engine_step_budget_utilization", "gauge",
             "Prefill tokens computed in the last step over --prefill-token-budget; 0 "
             "when the step had no prefill work or with --chunked-prefill 0 (no budget), "
             "above 1.0 when the minimum one-block chunk overshoots a tiny budget.", (),
             _at("step_timing", "last_budget_utilization", cast=float)),
    _replica("repro_engine_phase_seconds", "counter",
             "Wall seconds the continuous profiler attributed to a named engine phase "
             "(decode/attend, prefill/chunk, ...; self times and flamegraphs at "
             "/debug/prof); absent with --profiler 0.", ("phase",),
             _by("phases", "total_s", cast=float)),
    _replica("repro_engine_queue_wait_seconds", "histogram",
             "Queue wait from submission to first admission.", (),
             _at("histograms", "queue_wait_seconds")),
    _replica("repro_engine_step_seconds", "histogram",
             "Wall seconds of one engine step, split by kind: prefill (admission, chunk "
             "planning and the multi-token segments' block time; observed on steps that "
             "admitted or ran a chunk or tail) and decode (the rest of the step; observed "
             "on steps that emitted a token or stacked a row); the two kinds of one step "
             "sum to its wall.", ("kind",),
             lambda stats: [((kind,), stats["histograms"][f"{kind}_step_seconds"])
                            for kind in ("prefill", "decode")]),
    _replica("repro_engine_fused_batch_size", "histogram",
             "Single-token rows stacked per traversal (steps without rows are not "
             "observed).", (), _at("histograms", "fused_batch_size")),
    _replica("repro_engine_tier_running", "gauge",
             "Sequences currently decoding, by quality tier.", ("tier",),
             _by("tiers", "running")),
    _replica("repro_engine_tier_kv_bytes", "gauge",
             "Modelled KV bytes across running sequences, by quality tier.", ("tier",),
             _by("tiers", "kv_bytes", cast=float)),
    _replica("repro_engine_tier_requests_total", "counter",
             "Requests submitted, by quality tier.", ("tier",),
             _by("tiers", "requests_total")),
    _replica("repro_engine_tier_policy_bytes_per_token", "gauge",
             "Configured KV bytes per token of the tier's quantization policy.", ("tier",),
             _by("tiers", "policy_bytes_per_token", cast=float)),
    _replica("repro_engine_priority_queued", "gauge",
             "Requests waiting for admission, by priority class.", ("priority",),
             _by("priority", "queued")),
    _replica("repro_engine_priority_running", "gauge",
             "Sequences currently decoding, by priority class.", ("priority",),
             _by("priority", "running")),
    _replica("repro_engine_priority_preemptions_total", "counter",
             "Sequences evicted under memory pressure, by the victim's priority class.",
             ("priority",), _by("priority", "preemptions")),
    _replica("repro_engine_slo_rejections_total", "counter",
             "Submissions refused by the SLO admission gate, by priority class.",
             ("priority",), _by("priority", "slo_rejections")),
    # Block pool (per replica; one pool serves every tier) -----------------
    _replica("repro_pool_pressure", "gauge",
             "Fraction of pool blocks an allocation burst could not obtain (pinned by "
             "running sequences; reclaimable cached blocks exert no pressure).", (),
             _at("pool", "pressure", cast=float)),
    _replica("repro_pool_utilization", "gauge",
             "Fraction of pool blocks holding content (pinned or reclaimable cache).", (),
             _at("pool", "utilization", cast=float)),
    _replica("repro_pool_used_blocks", "gauge",
             "Pool blocks holding content.", (), _at("pool", "used_blocks")),
    _replica("repro_pool_num_blocks", "gauge",
             "Total pool blocks (the --pool-blocks budget).", (), _at("pool", "num_blocks")),
    _replica("repro_pool_cached_groups", "gauge",
             "Published block groups available for prefix reuse.", (),
             _at("pool", "cached_groups")),
    _replica("repro_pool_adoptions_total", "counter",
             "Published groups adopted by later sequences.", (), _at("pool", "adoptions")),
    _replica("repro_pool_evictions_total", "counter",
             "Cached groups evicted to satisfy allocations.", (), _at("pool", "evictions")),
    _replica("repro_pool_reconstructed_rows_total", "counter",
             "K/V rows the pool's caches reconstructed for attention (one per token per "
             "side per cache), by kind: gathered from codes, or shared (taken from a "
             "leading run of blocks several sequences hold, gathered once per layer; "
             "decode rows, prompt chunks and tails alike).",
             ("kind",),
             lambda stats: [((kind,), stats["pool"]["reconstructed_rows"][kind])
                            for kind in ("gathered", "shared")]),
)


def _sample(name: str, labels: dict, value) -> str:
    inner = ",".join(f'{key}="{_escape_label(str(val))}"' for key, val in labels.items())
    label_str = "{" + inner + "}" if inner else ""
    return f"{name}{label_str} {_render_value(value)}"


def _histogram_lines(name: str, labels: dict, snapshot: dict) -> list[str]:
    """A :meth:`repro.obs.hist.Histogram.snapshot` as one histogram series:
    cumulative ``_bucket`` samples with an explicit ``+Inf``, then ``_sum``
    and ``_count``."""
    lines, cumulative = [], 0
    for bound, count in zip(snapshot["buckets"], snapshot["counts"]):
        cumulative += count
        lines.append(_sample(f"{name}_bucket", {**labels, "le": repr(float(bound))}, cumulative))
    lines.append(_sample(f"{name}_bucket", {**labels, "le": "+Inf"}, snapshot["count"]))
    lines.append(_sample(f"{name}_sum", labels, float(snapshot["sum"])))
    lines.append(_sample(f"{name}_count", labels, snapshot["count"]))
    return lines


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
    inputs = {"gateway": metrics, "router": router_stats, "health": health}
    lines: list[str] = []
    for family in FAMILIES:
        if family.source == "replica":
            samples = [
                ((str(index), *values), value)
                for index, stats in enumerate(replica_stats)
                for values, value in family.read(stats)
            ]
        else:
            source = inputs[family.source]
            samples = list(family.read(source)) if source is not None else []
        if not samples:
            continue
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for values, value in samples:
            labels = dict(zip(family.label_keys, values))
            if family.type == "histogram":
                lines.extend(_histogram_lines(family.name, labels, value))
            else:
                lines.append(_sample(family.name, labels, value))
    return "\n".join(lines) + "\n"


def catalogue_markdown() -> str:
    """:data:`FAMILIES` as the markdown table of ``docs/OPERATIONS.md``."""
    rows = ["| Family | Type | Labels | Meaning |", "| --- | --- | --- | --- |"]
    for family in FAMILIES:
        labels = ", ".join(f"`{key}`" for key in family.label_keys) or "—"
        rows.append(f"| `{family.name}` | {family.type} | {labels} | {family.help} |")
    return "\n".join(rows) + "\n"


_CATALOGUE_BLOCK = re.compile(
    r"(<!-- metric-families:begin[^>]*-->\n).*?(<!-- metric-families:end -->)", re.S
)


def splice_catalogue(doc: str) -> str:
    """``doc`` with the text between its catalogue markers regenerated."""
    return _CATALOGUE_BLOCK.sub(lambda m: m[1] + catalogue_markdown() + m[2], doc, count=1)


__all__ = [
    "FAMILIES",
    "GatewayMetrics",
    "MetricFamily",
    "catalogue_markdown",
    "render_prometheus",
    "splice_catalogue",
]
