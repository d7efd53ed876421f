"""Phase profiler: attribute fused-decode step time to named kernels.

The request-lifecycle trace (:mod:`repro.obs.trace`) answers *when* a
request queued, prefilled and decoded; it cannot answer *where inside a
decode step the time went* — recording one trace event per kernel per
layer per step would swamp the ring buffer and the hot path alike.
:class:`PhaseProfiler` is the aggregation-first counterpart: hot paths
accumulate ``(count, seconds)`` per named phase and nothing else, so the
enabled cost is two clock reads and a dict update per hook, and the
disabled cost is one attribute check (the same contract as tracing; the
``serving.profiler_overhead`` benchmark gates both).

Phases are ``/``-separated paths forming a static call tree:
``decode/attend`` is time inside the per-sequence attention of the stacked
rows of a step's traversal, attributed under the engine's ``decode`` span.
The engine records the *parent* phases (``decode``, ``prefill``) from the
same wall split it already exports as ``decode_seconds_total``, so per-phase
**self time** — a phase's total minus its direct children — sums exactly
to the measured step wall time, with the un-instrumented remainder
(norms, MLPs, logit projections, Python glue) showing up as the parent's
own self time rather than silently vanishing.

Exports (all derived from one :meth:`PhaseProfiler.snapshot`):

* :func:`phase_table` — per-phase count/total/self rows for ``/metrics``
  and the ``repro-obs top`` dashboard;
* :func:`to_collapsed` — Brendan-Gregg collapsed stacks
  (``a;b self_us``), pipe into any flamegraph tool;
* :func:`to_speedscope` — a `speedscope <https://www.speedscope.app>`_
  evented profile laying the aggregated tree out sequentially, loadable
  directly in the browser UI.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro.utils.validation import require

#: Sentinel speedscope schema URL (also how importers sniff the format).
_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


class PhaseProfiler:
    """Thread-safe per-phase time accumulator.

    ``record(phase, seconds)`` adds one timed occurrence of ``phase`` (a
    ``/``-separated path such as ``"decode/attend"``).  Engine stepper
    threads record while scrape handlers snapshot; one lock serializes
    both.  There is deliberately no per-event storage — memory is
    O(distinct phases) no matter how long the server runs.
    """

    #: Hot paths check this before taking any timestamps.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # phase -> [count, total_seconds]
        self._phases: dict[str, list] = {}

    # Clock ------------------------------------------------------------------

    @staticmethod
    def now() -> float:
        """The profiler's clock (monotonic, cross-thread, seconds)."""
        return time.perf_counter()

    # Recording --------------------------------------------------------------

    def record(self, phase: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` of wall time into ``phase``."""
        with self._lock:
            entry = self._phases.get(phase)
            if entry is None:
                entry = self._phases[phase] = [0, 0.0]
            entry[0] += count
            entry[1] += seconds

    def lap(self, phase: str, start: float) -> float:
        """Record ``start``..now as one ``phase`` occurrence; returns now.

        The idiom for instrumenting a straight-line pipeline::

            if prof.enabled:
                t = prof.now()
            stage_one()
            if prof.enabled:
                t = prof.lap("decode/stage_one", t)
        """
        now = time.perf_counter()
        self.record(phase, now - start)
        return now

    # Reading ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """``{phase: {"count": int, "total_s": float}}``, a consistent copy."""
        with self._lock:
            return {
                phase: {"count": entry[0], "total_s": entry[1]}
                for phase, entry in self._phases.items()
            }

    def reset(self) -> None:
        with self._lock:
            self._phases.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._phases)


class NullProfiler(PhaseProfiler):
    """The disabled profiler: recording is a no-op, snapshots are empty."""

    enabled = False

    def record(self, phase, seconds, count=1) -> None:  # pragma: no cover
        pass

    def lap(self, phase: str, start: float) -> float:  # pragma: no cover
        return start


#: Shared no-op profiler; identity-comparable (``prof is NULL_PROFILER``).
NULL_PROFILER = NullProfiler()


# Snapshot algebra -----------------------------------------------------------


def merge_phase_snapshots(snapshots: Sequence[dict]) -> dict:
    """Sum per-phase counts/totals across snapshots (e.g. replicas)."""
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for phase, entry in snap.items():
            slot = merged.setdefault(phase, {"count": 0, "total_s": 0.0})
            slot["count"] += int(entry["count"])
            slot["total_s"] += float(entry["total_s"])
    return merged


def _children(snapshot: dict, phase: str) -> list[str]:
    prefix = phase + "/"
    return [
        other
        for other in snapshot
        if other.startswith(prefix) and "/" not in other[len(prefix):]
    ]


def phase_table(snapshot: dict) -> list[dict]:
    """Per-phase rows with **self time** (total minus direct children).

    Rows are sorted by self time, largest first.  Because the engine
    records parent phases from its own wall split, the sum of every
    row's ``self_s`` under a root equals that root's measured wall time.
    """
    rows = []
    for phase, entry in snapshot.items():
        child_total = sum(
            snapshot[child]["total_s"] for child in _children(snapshot, phase)
        )
        total = float(entry["total_s"])
        rows.append(
            {
                "phase": phase,
                "count": int(entry["count"]),
                "total_s": total,
                "self_s": max(0.0, total - child_total),
            }
        )
    rows.sort(key=lambda row: (-row["self_s"], row["phase"]))
    return rows


def to_collapsed(snapshot: dict) -> list[str]:
    """Collapsed-stack lines (``a;b self_microseconds``), self-time weighted."""
    lines = []
    for row in phase_table(snapshot):
        stack = row["phase"].replace("/", ";")
        lines.append(f"{stack} {max(0, round(row['self_s'] * 1e6))}")
    return sorted(lines)


def to_speedscope(snapshot: dict, name: str = "repro fused-decode phases") -> dict:
    """An evented speedscope profile of the aggregated phase tree.

    The tree is laid out sequentially — siblings one after another inside
    their parent's span, the parent's self time as the trailing gap — so
    the flamegraph's widths are the aggregate totals.  Children whose
    totals overrun their parent (clock jitter on very short spans) are
    clamped to the parent's remaining width rather than breaking event
    nesting, which speedscope rejects.
    """
    frames: list[dict] = []
    frame_index: dict[str, int] = {}

    def frame(phase: str) -> int:
        if phase not in frame_index:
            frame_index[phase] = len(frames)
            frames.append({"name": phase})
        return frame_index[phase]

    events: list[dict] = []

    def place(phase: str, start: float, limit: float) -> float:
        total = min(float(snapshot[phase]["total_s"]), limit)
        events.append({"type": "O", "frame": frame(phase), "at": start})
        cursor = start
        for child in sorted(_children(snapshot, phase)):
            cursor = place(child, cursor, max(0.0, start + total - cursor))
        end = max(cursor, start + total)
        events.append({"type": "C", "frame": frame(phase), "at": end})
        return end

    roots = sorted(phase for phase in snapshot if "/" not in phase)
    cursor = 0.0
    for root in roots:
        cursor = place(root, cursor, float("inf"))
    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": cursor,
                "events": events,
            }
        ],
        "name": name,
    }


def validate_prof_payload(payload: dict) -> None:
    """Schema-check a ``/debug/prof`` response (tests and CI smoke share this).

    Raises ``ValueError`` listing every violation rather than stopping at
    the first, mirroring :func:`repro.obs.export.validate_chrome_trace`.
    """
    errors: list[str] = []
    for key in ("enabled", "phases", "collapsed", "speedscope"):
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    for row in payload.get("phases", []):
        for key in ("phase", "count", "total_s", "self_s"):
            if key not in row:
                errors.append(f"phase row {row!r} missing {key!r}")
                break
    speedscope = payload.get("speedscope")
    if isinstance(speedscope, dict):
        if speedscope.get("$schema") != _SPEEDSCOPE_SCHEMA:
            errors.append("speedscope $schema is wrong or missing")
        profiles = speedscope.get("profiles")
        if not isinstance(profiles, list) or not profiles:
            errors.append("speedscope profiles must be a non-empty list")
        else:
            profile = profiles[0]
            open_depth = 0
            last_at = -1.0
            for event in profile.get("events", []):
                if event["at"] < last_at:
                    errors.append("speedscope events are not time-ordered")
                    break
                last_at = event["at"]
                open_depth += 1 if event["type"] == "O" else -1
                if open_depth < 0:
                    errors.append("speedscope close event without a matching open")
                    break
            else:
                if open_depth != 0:
                    errors.append(f"{open_depth} speedscope frame(s) left open")
            n_frames = len(speedscope.get("shared", {}).get("frames", []))
            if any(
                event["frame"] >= n_frames for event in profile.get("events", [])
            ):
                errors.append("speedscope event references a missing frame")
    elif speedscope is not None:
        errors.append("speedscope must be an object")
    require(not errors, "invalid /debug/prof payload:\n" + "\n".join(errors))


__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "merge_phase_snapshots",
    "phase_table",
    "to_collapsed",
    "to_speedscope",
    "validate_prof_payload",
]
