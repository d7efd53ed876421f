"""`repro-obs top` rendering tests — pure, no server or terminal needed."""

from __future__ import annotations

import pytest

from repro.obs.promtext import parse_exposition
from repro.obs.top import (
    TopSample,
    family_value,
    histogram_snapshot,
    render_frame,
)

SCRAPE = """\
# HELP repro_gateway_tokens_streamed_total Completion tokens sent.
# TYPE repro_gateway_tokens_streamed_total counter
repro_gateway_tokens_streamed_total 100
# HELP repro_gateway_requests_in_flight Requests being served.
# TYPE repro_gateway_requests_in_flight gauge
repro_gateway_requests_in_flight 2
# HELP repro_gateway_priority_ttft_seconds TTFT by priority class.
# TYPE repro_gateway_priority_ttft_seconds histogram
repro_gateway_priority_ttft_seconds_bucket{priority="interactive",le="0.1"} 8
repro_gateway_priority_ttft_seconds_bucket{priority="interactive",le="1.0"} 10
repro_gateway_priority_ttft_seconds_bucket{priority="interactive",le="+Inf"} 10
repro_gateway_priority_ttft_seconds_sum{priority="interactive"} 1.5
repro_gateway_priority_ttft_seconds_count{priority="interactive"} 10
# HELP repro_engine_running Sequences currently decoding.
# TYPE repro_engine_running gauge
repro_engine_running{replica="0"} 3
repro_engine_running{replica="1"} 1
# HELP repro_engine_queued Requests waiting for admission.
# TYPE repro_engine_queued gauge
repro_engine_queued{replica="0"} 5
repro_engine_queued{replica="1"} 0
# HELP repro_engine_fused_decode_steps_total Fused decode steps.
# TYPE repro_engine_fused_decode_steps_total counter
repro_engine_fused_decode_steps_total{replica="0"} 40
repro_engine_fused_decode_steps_total{replica="1"} 20
# HELP repro_pool_utilization Fraction of pool blocks holding content.
# TYPE repro_pool_utilization gauge
repro_pool_utilization{replica="0"} 0.5
repro_pool_utilization{replica="1"} 0.25
# HELP repro_pool_pressure Pool pressure.
# TYPE repro_pool_pressure gauge
repro_pool_pressure{replica="0"} 0.9
repro_pool_pressure{replica="1"} 0.0
# HELP repro_engine_phase_seconds Wall seconds per engine phase.
# TYPE repro_engine_phase_seconds counter
repro_engine_phase_seconds{replica="0",phase="decode"} 2.0
repro_engine_phase_seconds{replica="0",phase="decode/adc_gather"} 0.8
repro_engine_phase_seconds{replica="1",phase="decode"} 1.0
"""

HEALTH = {
    "status": "degraded",
    "model": "test-model",
    "burn_rates": {"interactive": 2.0},
    "checks": [
        {
            "rule": "slo_burn",
            "state": "degraded",
            "scope": "gateway",
            "reason": "slo_burn:interactive burning 2.00x the error budget",
        }
    ],
    "replica_health": [
        {"replica": 0, "state": "degraded", "reasons": ["pool pressure"]},
        {"replica": 1, "state": "ok", "reasons": []},
    ],
}


@pytest.fixture()
def current():
    return TopSample(
        ts=10.0, families=parse_exposition(SCRAPE), health=dict(HEALTH)
    )


class TestReadingFamilies:
    def test_family_value_with_and_without_labels(self, current):
        fam = current.families
        assert family_value(fam, "repro_gateway_tokens_streamed_total") == 100
        assert family_value(fam, "repro_engine_running", replica="1") == 1
        assert family_value(fam, "no_such_family", default=7.0) == 7.0
        assert family_value(fam, "repro_engine_running", replica="9") == 0.0

    def test_histogram_snapshot_inverts_the_renderer(self, current):
        snap = histogram_snapshot(
            current.families,
            "repro_gateway_priority_ttft_seconds",
            priority="interactive",
        )
        assert snap == {
            "buckets": [0.1, 1.0],
            "counts": [8, 2],
            "sum": 1.5,
            "count": 10,
        }

    def test_histogram_snapshot_absent_series_is_none(self, current):
        assert (
            histogram_snapshot(
                current.families,
                "repro_gateway_priority_ttft_seconds",
                priority="best_effort",
            )
            is None
        )


class TestRenderFrame:
    def test_first_frame_shows_lifetime_values(self, current):
        frame = render_frame(current, previous=None, color=False)
        assert "repro-obs top — test-model" in frame
        assert "health=degraded" in frame
        assert "(lifetime)" in frame
        # Per-replica rows with health states from /healthz.
        assert "degraded" in frame
        # Windowed TTFT table (lifetime on first frame).
        assert "interactive" in frame and "10" in frame
        # Phase breakdown, sorted by window seconds.
        assert "decode" in frame and "decode/adc_gather" in frame
        # Active checks surface their reason verbatim.
        assert "burning 2.00x" in frame

    def test_rates_are_windowed_between_polls(self, current):
        previous = TopSample(
            ts=0.0,
            families=parse_exposition(
                SCRAPE.replace(
                    "repro_gateway_tokens_streamed_total 100",
                    "repro_gateway_tokens_streamed_total 50",
                )
            ),
            health=dict(HEALTH),
        )
        frame = render_frame(current, previous, color=False)
        # (100-50) tokens over 10s = 5 tok/s.
        assert "tok/s=5.0" in frame
        assert "last 10.0s" in frame

    def test_phase_breakdown_diffs_against_previous(self, current):
        previous = TopSample(
            ts=0.0,
            families=parse_exposition(
                SCRAPE.replace(
                    'repro_engine_phase_seconds{replica="0",phase="decode/adc_gather"} 0.8',
                    'repro_engine_phase_seconds{replica="0",phase="decode/adc_gather"} 0.8'
                    "",
                ).replace(
                    'repro_engine_phase_seconds{replica="0",phase="decode"} 2.0',
                    'repro_engine_phase_seconds{replica="0",phase="decode"} 1.0',
                )
            ),
            health=dict(HEALTH),
        )
        frame = render_frame(current, previous, color=False)
        # decode grew by 1.0s in the window; adc_gather did not move, so it
        # drops out of the windowed breakdown entirely.
        lines = [l for l in frame.splitlines() if "adc_gather" in l]
        assert not lines

    def test_color_codes_present_only_when_enabled(self, current):
        assert "\x1b[" in render_frame(current, color=True)
        assert "\x1b[" not in render_frame(current, color=False)

    def test_frame_handles_empty_health_and_families(self):
        empty = TopSample(ts=0.0, families={}, health={})
        frame = render_frame(empty, color=False)
        assert "repro-obs top" in frame  # degrades gracefully, no crash
