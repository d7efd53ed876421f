"""Drive a gateway with a synthetic bursty multi-tenant workload.

Against a gateway you already started (see ``python -m repro.gateway``)::

    PYTHONPATH=src python -m repro.loadgen --target 127.0.0.1:8707 \\
        --requests 128 --base-rate 8 --burst-rate 32

or fully self-contained (boots a tiny demo gateway in-process, loads it,
prints the per-class/per-tenant latency table)::

    PYTHONPATH=src python -m repro.loadgen --self-host

``--smoke`` is the CI mode: a small self-hosted run that exits non-zero
unless every priority class completed requests and the report is coherent.
``--json PATH`` writes the machine-readable summary next to the table.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Optional

from repro.loadgen.client import replay
from repro.loadgen.report import LoadReport
from repro.loadgen.workload import WorkloadSpec, synthesize

#: Self-hosted demo gateway shape: small enough to calibrate in seconds,
#: pool small enough that a burst actually contends for blocks.  Chunked
#: prefill is on so the CI smoke exercises budgeted chunk scheduling under
#: a real bursty load, not just one chunk per prompt.
_SELF_HOST_KWARGS = dict(
    max_seq_len=512,
    calibration_tokens=512,
    pool_blocks=192,
    max_batch_size=4,
    replicas=1,
    chunked_prefill=1,
)

_SMOKE_SPEC = WorkloadSpec(
    requests=12,
    base_rate_rps=6.0,
    burst_rate_rps=24.0,
    burst_every_s=1.0,
    burst_duration_s=0.4,
    prefix_groups=3,
    prefix_tokens=32,
    tenants=4,
    seed=7,
)


def _parser() -> argparse.ArgumentParser:
    spec = WorkloadSpec()
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadgen", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument(
        "--target", metavar="HOST:PORT",
        help="drive an already-running gateway",
    )
    target.add_argument(
        "--self-host", action="store_true",
        help="boot a tiny demo gateway in-process and drive that",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: small self-hosted run with pass/fail checks",
    )
    parser.add_argument("--requests", type=int, default=spec.requests)
    parser.add_argument("--base-rate", type=float, default=spec.base_rate_rps,
                        help="baseline arrival rate (req/s)")
    parser.add_argument("--burst-rate", type=float, default=spec.burst_rate_rps,
                        help="arrival rate inside burst episodes (req/s)")
    parser.add_argument("--burst-every", type=float, default=spec.burst_every_s,
                        help="seconds between burst episode starts")
    parser.add_argument("--burst-duration", type=float,
                        default=spec.burst_duration_s,
                        help="seconds each burst episode lasts")
    parser.add_argument("--prefix-groups", type=int, default=spec.prefix_groups)
    parser.add_argument("--prefix-tokens", type=int, default=spec.prefix_tokens)
    parser.add_argument("--zipf-alpha", type=float, default=spec.zipf_alpha)
    parser.add_argument("--best-effort-fraction", type=float,
                        default=spec.best_effort_fraction)
    parser.add_argument("--tenants", type=int, default=spec.tenants)
    parser.add_argument("--seed", type=int, default=spec.seed)
    parser.add_argument(
        "--vocab-size", type=int, default=512,
        help="token-id space for synthesized prompts (zoo models use 512)",
    )
    parser.add_argument(
        "--max-seq-len", type=int, default=512,
        help="clip prompt+output to this window (match the serving model)",
    )
    parser.add_argument(
        "--interactive-slo-ms", type=float, default=0.0,
        help="grade interactive TTFT against this SLO (adds a burn column; "
             "0 = no SLO)",
    )
    parser.add_argument(
        "--best-effort-slo-ms", type=float, default=0.0,
        help="grade best_effort TTFT against this SLO (0 = no SLO)",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary as JSON")
    return parser


def _slos_from_args(args: argparse.Namespace) -> dict[str, float]:
    slos: dict[str, float] = {}
    if args.interactive_slo_ms > 0:
        slos["interactive"] = args.interactive_slo_ms / 1000.0
    if args.best_effort_slo_ms > 0:
        slos["best_effort"] = args.best_effort_slo_ms / 1000.0
    return slos


def _spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        requests=args.requests,
        base_rate_rps=args.base_rate,
        burst_rate_rps=args.burst_rate,
        burst_every_s=args.burst_every,
        burst_duration_s=args.burst_duration,
        prefix_groups=args.prefix_groups,
        prefix_tokens=args.prefix_tokens,
        zipf_alpha=args.zipf_alpha,
        best_effort_fraction=args.best_effort_fraction,
        tenants=args.tenants,
        seed=args.seed,
    )


async def _run_self_hosted(
    spec: WorkloadSpec, slos: Optional[dict] = None
) -> LoadReport:
    # Imported lazily: the target path must not pay gateway build imports.
    from repro.gateway.bootstrap import GatewayConfig, build_gateway

    config = GatewayConfig(**_SELF_HOST_KWARGS)
    print(
        "self-hosting demo gateway (calibrating MILLION codebooks ...)",
        flush=True,
    )
    server = build_gateway(config)
    host, port = await server.start(port=0)
    try:
        engine = server.router.runners[0].engine
        schedule = synthesize(
            spec,
            vocab_size=engine.model.config.vocab_size,
            max_seq_len=config.max_seq_len,
        )
        print(f"replaying {len(schedule)} requests against {host}:{port}")
        started = time.perf_counter()
        outcomes = await replay(host, port, schedule)
        return LoadReport.from_outcomes(
            outcomes,
            duration_s=time.perf_counter() - started,
            ttft_slo_s=slos,
        )
    finally:
        await server.stop()


async def _run_target(args: argparse.Namespace, spec: WorkloadSpec) -> LoadReport:
    host, _, port = args.target.rpartition(":")
    schedule = synthesize(
        spec, vocab_size=args.vocab_size, max_seq_len=args.max_seq_len
    )
    print(f"replaying {len(schedule)} requests against {args.target}")
    started = time.perf_counter()
    outcomes = await replay(host or "127.0.0.1", int(port), schedule)
    return LoadReport.from_outcomes(
        outcomes,
        duration_s=time.perf_counter() - started,
        ttft_slo_s=_slos_from_args(args),
    )


def _smoke_check(report: LoadReport) -> Optional[str]:
    """Pass/fail verdict for ``--smoke``; None means pass."""
    summary = report.summary()
    if summary["completed"] == 0:
        return "no request completed"
    for label, stats in summary["classes"].items():
        if stats["sent"] == 0:
            return f"workload synthesized no {label} requests"
        if stats["completed"] == 0 and stats["rejected"] == 0:
            return f"every {label} request errored"
        if stats["completed"] and stats["ttft_p50_s"] is None:
            return f"{label} completed requests but recorded no TTFT"
    return None


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.smoke:
        spec = _SMOKE_SPEC
        report = asyncio.run(_run_self_hosted(spec, _slos_from_args(args)))
    elif args.target:
        spec = _spec_from_args(args)
        report = asyncio.run(_run_target(args, spec))
    elif args.self_host:
        spec = _spec_from_args(args)
        report = asyncio.run(_run_self_hosted(spec, _slos_from_args(args)))
    else:
        _parser().error("one of --target, --self-host or --smoke is required")
        return 2  # unreachable; parser.error raises SystemExit
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.summary(), handle, indent=2)
        print(f"summary written to {args.json}")
    if args.smoke:
        verdict = _smoke_check(report)
        if verdict is not None:
            print(f"loadgen smoke FAIL: {verdict}", file=sys.stderr)
            return 1
        print("loadgen smoke PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
