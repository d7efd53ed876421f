"""Prometheus text-exposition parser/validator behavior."""

import math

import pytest

from repro.obs.promtext import ExpositionError, parse_exposition

VALID = """\
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{path="/v1/completions",status="200"} 3
app_requests_total{path="/metrics",status="200"} 1
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{tier="default",le="0.1"} 2
app_latency_seconds_bucket{tier="default",le="1.0"} 3
app_latency_seconds_bucket{tier="default",le="+Inf"} 4
app_latency_seconds_sum{tier="default"} 5.25
app_latency_seconds_count{tier="default"} 4
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 21.5
"""


class TestParsing:
    def test_valid_scrape_parses(self):
        families = parse_exposition(VALID)
        assert set(families) == {
            "app_requests_total", "app_latency_seconds", "app_temperature"
        }
        counter = families["app_requests_total"]
        assert counter.type == "counter"
        assert counter.value(path="/v1/completions", status="200") == 3.0
        hist = families["app_latency_seconds"]
        assert hist.type == "histogram"
        assert hist.value(tier="default", le="+Inf") == 4.0
        assert families["app_temperature"].value() == 21.5

    def test_label_escaping_round_trip(self):
        tricky = 'a"b\\c\nd'
        text = (
            "# HELP m help\n# TYPE m gauge\n"
            'm{k="a\\"b\\\\c\\nd"} 1\n'
        )
        families = parse_exposition(text)
        assert families["m"].samples[0].labels == {"k": tricky}

    def test_non_finite_canonical_spellings_accepted(self):
        text = (
            "# HELP m help\n# TYPE m gauge\n"
            'm{k="a"} +Inf\nm{k="b"} -Inf\nm{k="c"} NaN\n'
        )
        families = parse_exposition(text)
        assert families["m"].value(k="a") == math.inf
        assert families["m"].value(k="b") == -math.inf
        assert math.isnan(families["m"].value(k="c"))


class TestValidation:
    def _errors(self, text):
        with pytest.raises(ExpositionError) as excinfo:
            parse_exposition(text)
        return "\n".join(excinfo.value.errors)

    def test_python_float_inf_rejected(self):
        # repr(float("inf")) — the renderer bug this parser exists to catch.
        errors = self._errors("# HELP m help\n# TYPE m gauge\nm inf\n")
        assert "must be rendered as" in errors

    def test_missing_type_header(self):
        assert "missing TYPE" in self._errors("# HELP m help\nm 1\n")

    def test_missing_help_header(self):
        assert "missing HELP" in self._errors("# TYPE m gauge\nm 1\n")

    def test_duplicate_sample(self):
        text = "# HELP m help\n# TYPE m gauge\nm 1\nm 2\n"
        assert "duplicate sample" in self._errors(text)

    def test_negative_counter(self):
        text = "# HELP m help\n# TYPE m counter\nm -1\n"
        assert "negative or NaN" in self._errors(text)

    def test_histogram_non_monotonic_buckets(self):
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        assert "cumulative and monotonic" in self._errors(text)

    def test_histogram_missing_inf_bucket(self):
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n'
        )
        assert "missing '+Inf'" in self._errors(text)

    def test_histogram_count_bucket_mismatch(self):
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\nh_sum 1\nh_count 2\n'
        )
        assert "_count" in self._errors(text)

    def test_histogram_missing_sum(self):
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\nh_count 1\n'
        )
        assert "missing _sum" in self._errors(text)

    def test_histogram_series_validated_per_label_set(self):
        # One tier healthy, the other broken: the error names the broken one.
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{tier="good",le="+Inf"} 1\n'
            'h_sum{tier="good"} 0.5\nh_count{tier="good"} 1\n'
            'h_bucket{tier="bad",le="+Inf"} 1\n'
            'h_sum{tier="bad"} 0.5\nh_count{tier="bad"} 9\n'
        )
        errors = self._errors(text)
        assert "bad" in errors and "good" not in errors

    def test_timestamps_rejected(self):
        text = "# HELP m help\n# TYPE m gauge\nm 1 1700000000\n"
        assert "trailing fields" in self._errors(text)

    def test_family_split_by_another_family_rejected(self):
        # A replica-major render: m's second sample comes after n's group.
        text = (
            "# HELP m help\n# TYPE m gauge\nm{replica=\"0\"} 1\n"
            "# HELP n help\n# TYPE n gauge\nn{replica=\"0\"} 1\n"
            "m{replica=\"1\"} 1\n"
        )
        assert "m resumes after its group ended" in self._errors(text)

    def test_histogram_series_after_another_family_rejected(self):
        text = (
            "# HELP h help\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\nh_sum 1\n'
            "# HELP m help\n# TYPE m gauge\nm 1\nh_count 1\n"
        )
        assert "h resumes after its group ended" in self._errors(text)

    def test_contiguous_families_in_any_order_accepted(self):
        text = (
            "# HELP n help\n# TYPE n gauge\nn 1\n"
            "# HELP m help\n# TYPE m gauge\nm{k=\"a\"} 1\n"
            "# a free-form comment does not end a group\n"
            "m{k=\"b\"} 2\n"
        )
        assert parse_exposition(text)["m"].value(k="b") == 2.0
