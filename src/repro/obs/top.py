"""`repro-obs top`: a live terminal dashboard over /metrics and /healthz.

The gateway already exports everything an operator needs — the problem is
that raw exposition text and health JSON are unreadable at a glance.  This
module polls both endpoints and renders one ANSI frame per interval:
gateway throughput, per-replica queue depth and health state, windowed
TTFT quantiles per priority class, and the fused-decode phase breakdown
from the continuous profiler (``repro_engine_phase_seconds``).

Everything here is stdlib-only (``urllib`` + ANSI escapes, no curses) and
split so it stays testable without a terminal or a server:

* :func:`poll` does the two HTTP GETs and returns a :class:`TopSample`;
* :func:`render_frame` is a **pure function** from two samples (current +
  previous, for rate deltas) to the frame string;
* :func:`run_top` owns the loop, the screen clearing and the clock.

Rates and quantiles are *windowed*: each frame diffs the cumulative
counters and histogram buckets against the previous poll
(:func:`repro.obs.hist.delta_snapshots`), so the numbers describe the
last interval, not the process lifetime.  ``--once`` renders a single
frame without clearing the screen — that is what CI runs.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.hist import delta_snapshots, snapshot_quantile
from repro.obs.promtext import parse_exposition

#: ANSI SGR codes by role; :func:`_paint` no-ops when color is off.
_COLORS = {
    "ok": "\x1b[32m",
    "degraded": "\x1b[33m",
    "unhealthy": "\x1b[31m",
    "dim": "\x1b[2m",
    "bold": "\x1b[1m",
}
_RESET = "\x1b[0m"
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def _paint(text: str, role: str, color: bool) -> str:
    if not color or role not in _COLORS:
        return text
    return f"{_COLORS[role]}{text}{_RESET}"


@dataclass
class TopSample:
    """One poll: parsed /metrics families + /healthz JSON, timestamped."""

    ts: float
    families: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)


def fetch(url: str, timeout: float = 5.0) -> str:
    """GET ``url`` and return the decoded body (raises on HTTP errors)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def poll(target: str, ts: float, timeout: float = 5.0) -> TopSample:
    """Scrape ``host:port`` once; the caller supplies the timestamp."""
    base = f"http://{target}"
    families = parse_exposition(fetch(f"{base}/metrics", timeout=timeout))
    health = json.loads(fetch(f"{base}/healthz", timeout=timeout))
    return TopSample(ts=ts, families=families, health=health)


# Reading parsed families ---------------------------------------------------


def family_value(
    families: dict, name: str, default: float = 0.0, **labels
) -> float:
    """One sample's value, or ``default`` when the family/series is absent."""
    family = families.get(name)
    if family is None:
        return default
    try:
        return family.value(**labels)
    except KeyError:
        return default


def histogram_snapshot(
    families: dict, name: str, **labels
) -> Optional[dict]:
    """Rebuild a :meth:`repro.obs.hist.Histogram.snapshot` from a scrape.

    Inverts the renderer: cumulative ``_bucket`` samples (matched on
    ``labels`` ignoring ``le``) become per-bucket counts, ``+Inf`` becomes
    the total ``count``.  Returns ``None`` when the series is absent, so
    callers can distinguish "no such histogram" from "empty histogram".
    """
    family = families.get(name)
    if family is None:
        return None
    bounds: list[float] = []
    cumulative: list[float] = []
    inf_count = None
    total_sum = None
    for sample in family.samples:
        series = {k: v for k, v in sample.labels.items() if k != "le"}
        if series != labels:
            continue
        if sample.name == f"{name}_bucket":
            le = sample.labels["le"]
            if le == "+Inf":
                inf_count = sample.value
            else:
                bounds.append(float(le))
                cumulative.append(sample.value)
        elif sample.name == f"{name}_sum":
            total_sum = sample.value
    if inf_count is None:
        return None
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    bounds = [bounds[i] for i in order]
    cumulative = [cumulative[i] for i in order]
    counts = [
        int(b - a) for a, b in zip([0.0] + cumulative[:-1], cumulative)
    ]
    return {
        "buckets": bounds,
        "counts": counts,
        "sum": float(total_sum or 0.0),
        "count": int(inf_count),
    }


def _windowed_snapshot(
    current: TopSample, previous: Optional[TopSample], name: str, **labels
) -> Optional[dict]:
    """Histogram delta over the poll interval; lifetime on the first frame."""
    now = histogram_snapshot(current.families, name, **labels)
    if now is None:
        return None
    if previous is None:
        return now
    then = histogram_snapshot(previous.families, name, **labels)
    if then is None:
        return now
    try:
        return delta_snapshots(now, then)
    except ValueError:
        return now  # server restarted between polls; fall back to lifetime


def _rate(
    current: TopSample, previous: Optional[TopSample], name: str, **labels
) -> float:
    """Per-second rate of a cumulative counter over the poll interval."""
    if previous is None:
        return 0.0
    dt = current.ts - previous.ts
    if dt <= 0:
        return 0.0
    delta = family_value(current.families, name, **labels) - family_value(
        previous.families, name, **labels
    )
    return max(0.0, delta) / dt


# Rendering -----------------------------------------------------------------


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1000.0:.1f}ms"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _replica_indices(families: dict) -> list[int]:
    indices: set[int] = set()
    family = families.get("repro_engine_running")
    if family is not None:
        for sample in family.samples:
            try:
                indices.add(int(sample.labels.get("replica", "")))
            except ValueError:
                continue
    return sorted(indices)


def _phase_rows(
    current: TopSample, previous: Optional[TopSample]
) -> list[tuple[str, float]]:
    """Per-phase seconds over the window, summed across replicas."""
    family = current.families.get("repro_engine_phase_seconds")
    if family is None:
        return []
    totals: dict[str, float] = {}
    for sample in family.samples:
        phase = sample.labels.get("phase", "?")
        totals[phase] = totals.get(phase, 0.0) + sample.value
    if previous is not None:
        prev_family = previous.families.get("repro_engine_phase_seconds")
        if prev_family is not None:
            for sample in prev_family.samples:
                phase = sample.labels.get("phase", "?")
                totals[phase] = totals.get(phase, 0.0) - sample.value
    rows = [(p, max(0.0, s)) for p, s in totals.items() if s > 1e-12]
    rows.sort(key=lambda pair: (-pair[1], pair[0]))
    return rows


def render_frame(
    current: TopSample,
    previous: Optional[TopSample] = None,
    color: bool = True,
    max_phases: int = 12,
) -> str:
    """Render one dashboard frame (pure: samples in, string out)."""
    fam = current.families
    health = current.health
    status = str(health.get("status", "?"))
    lines: list[str] = []

    tok_rate = _rate(
        current, previous, "repro_gateway_tokens_streamed_total"
    )
    in_flight = family_value(fam, "repro_gateway_requests_in_flight")
    window = "lifetime" if previous is None else (
        f"last {current.ts - previous.ts:.1f}s"
    )
    lines.append(
        _paint(f"repro-obs top — {health.get('model', '?')}", "bold", color)
        + f"  health={_paint(status, status, color)}"
        + f"  tok/s={tok_rate:.1f}  in_flight={int(in_flight)}"
        + f"  ({window})"
    )

    burn = health.get("burn_rates", {})
    if burn:
        parts = []
        for priority in sorted(burn):
            value = float(burn[priority])
            role = "unhealthy" if value >= 6.0 else (
                "degraded" if value >= 1.0 else "ok"
            )
            parts.append(f"{priority}={_paint(f'{value:.2f}x', role, color)}")
        lines.append("slo burn: " + "  ".join(parts))

    # Per-replica table -----------------------------------------------------
    # /healthz reports one {replica, state, reasons} entry per replica.
    replica_states = {
        int(entry.get("replica", index)): str(entry.get("state", "ok"))
        for index, entry in enumerate(health.get("replica_health", []))
        if isinstance(entry, dict)
    }
    lines.append(
        _paint(
            f"{'replica':<9} {'state':<10} {'run':>4} {'queue':>5} "
            f"{'steps/s':>8} {'pool':>5}  pressure",
            "dim",
            color,
        )
    )
    for index in _replica_indices(fam):
        labels = {"replica": str(index)}
        state = replica_states.get(index, "ok")
        steps = _rate(
            current, previous, "repro_engine_fused_decode_steps_total",
            **labels,
        )
        utilization = family_value(fam, "repro_pool_utilization", **labels)
        pressure = family_value(fam, "repro_pool_pressure", **labels)
        lines.append(
            f"{index:<9} {_paint(f'{state:<10}', state, color)} "
            f"{int(family_value(fam, 'repro_engine_running', **labels)):>4} "
            f"{int(family_value(fam, 'repro_engine_queued', **labels)):>5} "
            f"{steps:>8.1f} {utilization:>5.0%}  {_bar(pressure)}"
        )

    # TTFT quantiles by priority class --------------------------------------
    lines.append(
        _paint(
            f"{'class':<14} {'reqs':>5} {'ttft p50':>9} {'ttft p99':>9}",
            "dim",
            color,
        )
    )
    for priority in ("interactive", "best_effort"):
        snap = _windowed_snapshot(
            current, previous, "repro_gateway_priority_ttft_seconds",
            priority=priority,
        )
        if snap is None:
            continue
        lines.append(
            f"{priority:<14} {snap['count']:>5} "
            f"{_fmt_ms(snapshot_quantile(snap, 0.5)):>9} "
            f"{_fmt_ms(snapshot_quantile(snap, 0.99)):>9}"
        )

    # Phase breakdown from the continuous profiler --------------------------
    phases = _phase_rows(current, previous)
    if phases:
        total = sum(seconds for _, seconds in phases)
        lines.append(_paint("engine phases (window):", "dim", color))
        for phase, seconds in phases[:max_phases]:
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"  {phase:<24} {seconds * 1000.0:>9.1f}ms "
                f"{share:>5.0%} {_bar(share, width=24)}"
            )
        if len(phases) > max_phases:
            lines.append(
                _paint(f"  ... {len(phases) - max_phases} more phases", "dim", color)
            )

    # Active health checks --------------------------------------------------
    checks = [
        check for check in health.get("checks", [])
        if check.get("state") != "ok"
    ]
    if checks:
        lines.append(_paint("active checks:", "dim", color))
        for check in checks:
            lines.append(
                f"  {_paint(str(check.get('state')), str(check.get('state')), color)}"
                f" {check.get('reason', check.get('rule', '?'))}"
            )
    return "\n".join(lines)


def run_top(
    target: str,
    interval_s: float = 2.0,
    once: bool = False,
    color: bool = True,
    timeout: float = 5.0,
    out=None,
) -> int:
    """Poll-and-render loop; returns a process exit code."""
    import sys
    import time

    out = out if out is not None else sys.stdout
    previous: Optional[TopSample] = None
    while True:
        try:
            current = poll(target, ts=time.perf_counter(), timeout=timeout)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro-obs top: cannot scrape {target}: {exc}", file=sys.stderr)
            return 1
        frame = render_frame(current, previous, color=color)
        if once:
            print(frame, file=out)
            return 0
        print(CLEAR_SCREEN + frame, file=out, flush=True)
        previous = current
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


__all__ = [
    "CLEAR_SCREEN",
    "TopSample",
    "family_value",
    "fetch",
    "histogram_snapshot",
    "poll",
    "render_frame",
    "run_top",
]
