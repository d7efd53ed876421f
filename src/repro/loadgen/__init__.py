"""Trace-driven load harness for the serving gateway.

Synthesizes bursty, prefix-sharing, mixed-tenant workloads and replays them
open-loop over real HTTP against a :class:`~repro.gateway.server.GatewayServer`,
measuring TTFT/ITL per priority class with the same bucketed histograms the
gateway itself exports:

* :mod:`~repro.loadgen.workload` — seeded schedule synthesis
  (:class:`WorkloadSpec` → :func:`synthesize`): Poisson arrivals with burst
  episodes, Zipf-shared prefixes, per-class length mixes, tenant tags;
* :mod:`~repro.loadgen.client` — minimal asyncio HTTP/SSE client and the
  open-loop :func:`replay` driver;
* :mod:`~repro.loadgen.report` — :class:`LoadReport`: p50/p99 TTFT/ITL and
  completion/429 accounting per class and per tenant;
* ``python -m repro.loadgen`` — the CLI (``--target`` an existing gateway,
  ``--self-host`` a demo one, ``--smoke`` for CI).

The ``serving.slo_load`` benchmark replays one schedule against FIFO and
SLO-aware gateways and gates on the interactive p99 TTFT ratio.
"""

from repro.loadgen.client import RequestOutcome, replay, run_one
from repro.loadgen.report import ClassReport, LoadReport
from repro.loadgen.workload import ScheduledRequest, WorkloadSpec, synthesize

__all__ = [
    "ClassReport",
    "LoadReport",
    "RequestOutcome",
    "ScheduledRequest",
    "WorkloadSpec",
    "replay",
    "run_one",
    "synthesize",
]
