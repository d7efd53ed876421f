"""Fixed-bucket histograms for latency and batch-size distributions.

Every distributional gate on the roadmap ("p99 ITL under load") needs more
than counters and gauges: :class:`Histogram` is the zero-dependency
primitive behind the gateway's TTFT/ITL families and the engine's
queue-wait / step-time / fused-batch-size metrics.  It is deliberately
shaped like a Prometheus *histogram* metric — fixed upper bounds chosen at
construction, cumulative rendering left to the exposition layer — so
:func:`repro.gateway.metrics.render_prometheus` can emit proper
``_bucket``/``_sum``/``_count`` families and any Prometheus server can
compute quantiles with ``histogram_quantile()``.

Observation is O(log buckets) (a bisect) plus three scalar updates, under
a lock so engine stepper threads and the event loop can share one
instance.  :meth:`quantile` gives in-process p50/p99 estimates (linear
interpolation within a bucket, the same estimate PromQL makes) for
benchmarks and tests that do not want to round-trip through text format.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional, Sequence

from repro.utils.validation import require

#: Latency buckets (seconds): ~0.1 ms to 60 s, roughly log-spaced.  Shared
#: by TTFT, ITL, queue-wait and step-time histograms so the families are
#: directly comparable in dashboards.
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Batch-size buckets (sequences per fused decode step).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Histogram:
    """A thread-safe fixed-bucket histogram.

    ``buckets`` are the finite upper bounds, strictly increasing; every
    observation beyond the last bound lands in the implicit ``+Inf``
    bucket (tracked by ``count`` minus the finite buckets).
    """

    __slots__ = ("buckets", "_counts", "_inf", "_sum", "_count", "_lock")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        require(len(bounds) >= 1, "histogram needs at least one bucket bound")
        require(
            all(lo < hi for lo, hi in zip(bounds, bounds[1:])),
            "histogram bucket bounds must be strictly increasing",
        )
        require(
            all(b == b and b != float("inf") for b in bounds),
            "histogram bucket bounds must be finite (+Inf is implicit)",
        )
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._inf = 0
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (Prometheus ``le`` semantics: ``v <= bound``)."""
        value = float(value)
        with self._lock:
            index = bisect_left(self.buckets, value)
            if index < len(self.buckets):
                self._counts[index] += 1
            else:
                self._inf += 1
            self._sum += value
            self._count += 1

    # Reading ----------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """A consistent, JSON-serializable copy of the histogram state.

        ``counts`` are per-bucket (non-cumulative) observation counts for
        the finite bounds in ``buckets``; ``count`` additionally includes
        the implicit ``+Inf`` bucket.  This is the shape
        ``engine.stats()`` carries and the Prometheus renderer consumes.
        """
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (0..1), interpolated within its bucket.

        Mirrors PromQL's ``histogram_quantile``: linear interpolation
        inside the bucket the quantile falls in, the lower bound of the
        first bucket treated as 0.  Observations in ``+Inf`` clamp to the
        largest finite bound.  ``None`` when the histogram is empty.
        """
        return snapshot_quantile(self.snapshot(), q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self._count}, sum={self._sum:.6g}, "
            f"buckets={len(self.buckets)})"
        )


def snapshot_quantile(snapshot: dict, q: float) -> Optional[float]:
    """:meth:`Histogram.quantile` on a detached snapshot dict.

    Shared by the live histograms, the health engine (which quantiles
    window *deltas* rather than lifetime state) and the ``repro-obs top``
    dashboard (which reconstructs snapshots from a parsed ``/metrics``
    scrape).  ``None`` when the snapshot holds no observations.
    """
    require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
    count = int(snapshot["count"])
    if count == 0:
        return None
    buckets = snapshot["buckets"]
    rank = q * count
    cumulative = 0
    for index, bucket_count in enumerate(snapshot["counts"]):
        cumulative += bucket_count
        if cumulative >= rank and bucket_count > 0:
            hi = buckets[index]
            lo = buckets[index - 1] if index > 0 else 0.0
            within = (rank - (cumulative - bucket_count)) / bucket_count
            return lo + (hi - lo) * min(1.0, max(0.0, within))
    return buckets[-1]


def snapshot_fraction_over(snapshot: dict, threshold: float) -> Optional[float]:
    """Estimated fraction of observations strictly above ``threshold``.

    The burn-rate primitive: observations are spread uniformly within
    their bucket (the same assumption :func:`snapshot_quantile` makes),
    the ``+Inf`` bucket counts entirely as over.  ``None`` when empty.
    """
    count = int(snapshot["count"])
    if count == 0:
        return None
    buckets = snapshot["buckets"]
    over = count - sum(snapshot["counts"])  # the +Inf bucket
    for index in range(len(buckets) - 1, -1, -1):
        hi = buckets[index]
        if hi <= threshold:
            break
        lo = buckets[index - 1] if index > 0 else 0.0
        bucket_count = snapshot["counts"][index]
        if threshold <= lo:
            over += bucket_count
        else:
            over += bucket_count * (hi - threshold) / (hi - lo)
    return min(1.0, max(0.0, over / count))


def delta_snapshots(new: dict, old: dict) -> dict:
    """``new - old`` for snapshots of the *same* histogram over time.

    The window primitive behind SLO burn rates: two scrapes of a
    cumulative histogram family differ by exactly the observations made
    between them.  Bucket bounds must match; counts going backwards mean
    the histograms are unrelated and raise rather than mis-subtract.
    """
    require(
        list(new["buckets"]) == list(old["buckets"]),
        "cannot diff histograms with different bucket bounds",
    )
    counts = [a - b for a, b in zip(new["counts"], old["counts"])]
    count = int(new["count"]) - int(old["count"])
    require(
        count >= 0 and all(c >= 0 for c in counts),
        "histogram delta went backwards (snapshots are not from one series)",
    )
    return {
        "buckets": list(new["buckets"]),
        "counts": counts,
        "sum": float(new["sum"]) - float(old["sum"]),
        "count": count,
    }


__all__ = [
    "BATCH_BUCKETS",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "delta_snapshots",
    "snapshot_fraction_over",
    "snapshot_quantile",
]
