"""The percentile helper follows the ten-beyond rule and reports counts."""

from __future__ import annotations

import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize("q, n", [(99, 1000), (90, 100), (75, 40), (50, 20)])
def test_min_samples_leave_ten_beyond(q, n):
    assert stats.min_samples(q) == n
    assert stats.supported(q, n)
    assert not stats.supported(q, n - 1)


def test_percentile_reports_value_and_counts():
    values = list(range(1, 1001))  # 1..1000
    est = stats.percentile(values[::-1], 99)
    assert est.value == 990
    assert (est.n, est.beyond) == (1000, 10)
    assert stats.percentile(values, 50).value == 500


def test_unsupported_percentile_raises():
    with pytest.raises(ValueError, match="at least 1000 samples"):
        stats.percentile(list(range(999)), 99)


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
