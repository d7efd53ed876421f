"""Observability: tracing, histograms, profiling, health, exposition.

``repro.obs`` is the measurement substrate for the serving stack — one
shared :class:`TraceRecorder` for gateway + replicas (Perfetto-loadable
Chrome trace export), fixed-bucket :class:`Histogram` instances behind
the TTFT/ITL/queue-wait/step-time Prometheus families, a
:class:`PhaseProfiler` attributing fused-decode step time to named
kernels, a :class:`HealthEngine` turning those signals into SLO burn
rates and ok/degraded/unhealthy verdicts, a request-id contextvar
correlating logs with spans, and a text-exposition parser the tests and
smoke script use to hold ``/metrics`` to its contract.
"""

from repro.obs.context import (
    bind_request_id,
    current_request_id,
    reset_request_id,
)
from repro.obs.export import (
    chrome_trace_events,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.health import (
    HEALTH_STATES,
    HealthCheck,
    HealthEngine,
    HealthPolicy,
    HealthSample,
    state_value,
)
from repro.obs.hist import (
    BATCH_BUCKETS,
    Histogram,
    LATENCY_BUCKETS_S,
    delta_snapshots,
    snapshot_fraction_over,
    snapshot_quantile,
)
from repro.obs.prof import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    merge_phase_snapshots,
    phase_table,
    to_collapsed,
    to_speedscope,
    validate_prof_payload,
)
from repro.obs.promtext import ExpositionError, Family, Sample, parse_exposition
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    PHASE_COMPLETE,
    PHASE_INSTANT,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "BATCH_BUCKETS",
    "ExpositionError",
    "Family",
    "HEALTH_STATES",
    "HealthCheck",
    "HealthEngine",
    "HealthPolicy",
    "HealthSample",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "NULL_PROFILER",
    "NULL_RECORDER",
    "NullProfiler",
    "NullRecorder",
    "PHASE_COMPLETE",
    "PHASE_INSTANT",
    "PhaseProfiler",
    "Sample",
    "TraceEvent",
    "TraceRecorder",
    "bind_request_id",
    "chrome_trace_events",
    "current_request_id",
    "delta_snapshots",
    "merge_phase_snapshots",
    "parse_exposition",
    "phase_table",
    "reset_request_id",
    "snapshot_fraction_over",
    "snapshot_quantile",
    "state_value",
    "to_chrome_trace",
    "to_collapsed",
    "to_speedscope",
    "validate_chrome_trace",
    "validate_prof_payload",
]
