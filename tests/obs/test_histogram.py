"""Histogram: bucket semantics, quantiles, thread safety, merging."""

import threading

import pytest

from repro.obs.hist import (
    BATCH_BUCKETS,
    Histogram,
    LATENCY_BUCKETS_S,
    delta_snapshots,
    snapshot_fraction_over,
    snapshot_quantile,
)
from repro.utils.validation import ValidationError


class TestObserve:
    def test_le_semantics_value_on_bound_lands_in_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)  # Prometheus: v <= le
        h.observe(1.5)
        h.observe(2.5)  # beyond the last bound -> +Inf
        snap = h.snapshot()
        assert snap["counts"] == [1, 1]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.0)

    def test_snapshot_counts_are_non_cumulative(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.snapshot()["counts"] == [1, 2, 1]

    def test_bounds_must_increase(self):
        with pytest.raises(ValidationError):
            Histogram(buckets=(1.0, 1.0))

    def test_bounds_must_be_finite(self):
        with pytest.raises(ValidationError):
            Histogram(buckets=(1.0, float("inf")))

    def test_default_buckets_cover_latency_range(self):
        assert LATENCY_BUCKETS_S[0] <= 0.001
        assert LATENCY_BUCKETS_S[-1] >= 10.0
        assert BATCH_BUCKETS[0] == 1.0


class TestQuantile:
    def test_empty_returns_none(self):
        assert Histogram().quantile(0.5) is None

    def test_interpolates_within_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(1.5)  # all in the (1.0, 2.0] bucket
        # p50 = halfway through the bucket's mass: lo + 0.5 * (hi - lo)
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_inf_observations_clamp_to_largest_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_p50_p99_ordering(self):
        h = Histogram()
        for i in range(100):
            h.observe(0.001 * (i + 1))  # 1ms .. 100ms
        p50, p99 = h.quantile(0.5), h.quantile(0.99)
        assert p50 is not None and p99 is not None
        assert p50 < p99
        assert 0.025 <= p50 <= 0.1
        assert p99 <= 0.25

    def test_quantile_range_validated(self):
        with pytest.raises(ValidationError):
            Histogram().quantile(1.5)


class TestThreadSafety:
    def test_concurrent_observes_lose_nothing(self):
        h = Histogram()
        per_thread = 2000

        def observe():
            for _ in range(per_thread):
                h.observe(0.01)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4 * per_thread
        assert h.sum == pytest.approx(4 * per_thread * 0.01)


class TestSnapshotEdges:
    """Edge cases for the detached-snapshot helpers the health engine and
    dashboard lean on: empty windows, exact quantile bounds, deltas."""

    def test_quantile_empty_histogram_is_none(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert h.quantile(0.5) is None
        assert snapshot_quantile(h.snapshot(), 0.99) is None

    def test_quantile_boundaries_q0_and_q1(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        # q=0 sits at the lower edge of the first occupied bucket; q=1 at
        # the upper bound of the last occupied one.
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_rejects_out_of_range(self):
        snap = Histogram(buckets=(1.0,)).snapshot()
        with pytest.raises(ValidationError):
            snapshot_quantile(snap, -0.01)
        with pytest.raises(ValidationError):
            snapshot_quantile(snap, 1.01)

    def test_inf_observations_clamp_to_largest_finite_bound(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_fraction_over_empty_is_none(self):
        assert snapshot_fraction_over(Histogram().snapshot(), 0.5) is None

    def test_fraction_over_interpolates_and_counts_inf(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)   # fully under any threshold >= 1.0
        h.observe(1.5)   # spread uniformly over (1.0, 2.0]
        h.observe(99.0)  # +Inf bucket: entirely over
        frac = snapshot_fraction_over(h.snapshot(), 1.5)
        # 0 + 0.5 (half of the middle bucket) + 1 out of 3 observations.
        assert frac == pytest.approx(1.5 / 3)
        assert snapshot_fraction_over(h.snapshot(), 0.0) == pytest.approx(1.0)

    def test_delta_subtracts_window(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        old = h.snapshot()
        h.observe(1.5)
        h.observe(9.0)
        delta = delta_snapshots(h.snapshot(), old)
        assert delta["counts"] == [0, 1]
        assert delta["count"] == 2
        assert delta["sum"] == pytest.approx(10.5)

    def test_delta_rejects_mismatched_bounds(self):
        a = Histogram(buckets=(1.0,)).snapshot()
        b = Histogram(buckets=(2.0,)).snapshot()
        with pytest.raises(ValidationError):
            delta_snapshots(a, b)

    def test_delta_rejects_backwards_counts(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.5)
        grown = h.snapshot()
        fresh = Histogram(buckets=(1.0,)).snapshot()
        with pytest.raises(ValidationError):
            delta_snapshots(fresh, grown)
