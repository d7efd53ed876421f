"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload longdoc_decode --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload longdoc_decode --seed 1 --seconds 24 --trace 1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (see ``catalogue.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result (sample counts, host probe, closure, checks) is written to
``.perfbench/`` and the spans of a traced run beside it.  The exit code is
non-zero when any correctness check fails or the program is missing.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Replace this script's directory on the path: its module names must not
# shadow the standard library for the program.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(ROOT, ".perfbench")

from perfbench import catalogue, host, inproc, layers, workloads  # noqa: E402
from perfbench.loop import LoopResult, Record, run_closed_loop  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.stats import percentile  # noqa: E402

#: Requests re-generated solo after the window, per workload, and generated
#: tokens scored against the full-precision model (whole requests, at least
#: this many tokens).  Both samples are fixed by the seed.
SOLO_SAMPLE = {"longdoc_decode": 1, "http_stream": 3}
AGREE_TOKENS = 1536
UNTRACED_TIMEOUT_S = 120.0


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _sample(records: list[Record], seed: int, k: int, salt: int) -> list[Record]:
    ok = [r for r in records if r.ok]
    return [ok[i] for i in workloads.sample_indices(seed, len(ok), k, salt)]


class Run:
    """One workload run: the timed pass, the checks, and the metrics."""

    def __init__(self, workload: workloads.Workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.checks: dict = {}
        self.info: dict = {}

    # In-process ----------------------------------------------------------------

    def inproc_pass(self, traced: bool):
        """Build, prime, serve; returns ``(engine, result, c0, c1, ready)``.

        ``ready`` is the clock reading when the engine was built.
        """
        build_start = time.perf_counter()
        engine = inproc.build_engine(traced)
        ready = time.perf_counter()
        primer_s = inproc.prime(engine, self.workload)
        c0 = inproc.engine_counters(engine)
        result = run_closed_loop(engine, self.workload)
        c1 = inproc.engine_counters(engine)
        self.info["primer_s"] = primer_s
        self.info["build_s"] = ready - build_start
        return engine, result, c0, c1, ready

    def run_inproc(self) -> tuple[LoopResult, dict]:
        if not self.traced:
            engine, result, _, _, ready = self.inproc_pass(traced=False)
            extra = {
                "setup_s": ready - PROCESS_START,
                "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            }
            self.inproc_checks(engine, result)
            return result, extra
        plain_wall_s = self.untraced_wall_s()
        tracer = Tracer()
        layers.install(tracer)
        try:
            engine, result, c0, c1, _ = self.inproc_pass(traced=True)
        finally:
            tracer.restore()
        tracer.write(self.path("spans.jsonl"))
        self.inproc_checks(engine, result)
        extra = self.layer_extra(
            tracer.spans, tracer.samples, result, plain_wall_s, c0, c1, self.info["build_s"]
        )
        return result, extra

    def untraced_wall_s(self) -> float:
        """Wall time of the same run untraced, in a fresh process like this one.

        Both passes then start from a fresh process, so the first pass's
        one-off costs (page faults as the heap grows) weigh on both alike.
        """
        result_path = self.path("result.json", traced=False)
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = [
            sys.executable, os.path.abspath(__file__),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--trace", "0",
        ]
        child = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=UNTRACED_TIMEOUT_S,
        )
        self.checks["untraced_pass_ok"] = child.returncode == 0
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)["wall_s"]

    def inproc_checks(self, engine, result: LoopResult) -> None:
        solo = _sample(result.records, self.seed, SOLO_SAMPLE[self.workload.name], 1)
        self.checks["solo_mismatches"] = inproc.solo_mismatches(engine, solo)
        self.checks["solo_checked"] = [r.request.request_id for r in solo]

    # HTTP ------------------------------------------------------------------------

    def gateway_pass(self, spans_path=None):
        from perfbench.gateway_client import Gateway, run_sequential, solo_mismatches

        log = self.path("spans-gateway.log" if spans_path else "gateway.log")
        gateway = Gateway(inproc.gateway_flags(spans_path is not None), log, spans_path)
        try:
            m0 = gateway.get("/metrics")
            result = run_sequential(gateway, self.workload)
            m1 = gateway.get("/metrics")
            solo = _sample(result.records, self.seed, SOLO_SAMPLE[self.workload.name], 1)
            self.checks["solo_mismatches"] = solo_mismatches(gateway, solo)
            self.checks["solo_checked"] = [r.request.request_id for r in solo]
        finally:
            gateway.stop()
        return result, m0, m1, gateway.setup_s

    def run_http(self) -> tuple[LoopResult, dict]:
        from perfbench.gateway_client import metrics_counters
        from perfbench.spans import read

        if not self.traced:
            result, _, _, setup_s = self.gateway_pass()
            extra = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
            return result, extra
        plain_wall_s = self.untraced_wall_s()
        spans_path = self.path("spans.jsonl")
        result, m0, m1, setup_s = self.gateway_pass(spans_path)
        spans, samples = read(spans_path)
        extra = self.layer_extra(
            spans, samples, result, plain_wall_s,
            metrics_counters(m0), metrics_counters(m1), setup_s,
        )
        return result, extra

    # Metrics ---------------------------------------------------------------------

    def layer_extra(self, spans, samples, result, plain_wall_s, c0, c1, build_s) -> dict:
        ok = [r for r in result.records if r.ok]
        client = {
            "wall_s": result.wall_s,
            "gaps": [g for r in ok for g in r.gaps],
            "tokens": sum(len(r.tokens) for r in ok),
            "accept_s": [r.accepted - r.submitted for r in result.records if r.error is None],
            "refused": sum(1 for r in result.records if r.error and r.accepted == 0.0),
        }
        metrics, closure = layers.layer_metrics(
            spans, samples, (result.started, result.ended), c0, c1, client
        )
        calibrate_s = layers.calibration_seconds(spans)
        metrics["calib.calibrate_s"] = calibrate_s
        metrics["calib.other_setup_s"] = build_s - calibrate_s
        metrics["obs.trace_overhead_share"] = (result.wall_s - plain_wall_s) / plain_wall_s
        self.info["closure"] = closure
        self.info["untraced_wall_s"] = plain_wall_s
        self.checks.update(design_checks(self.workload.name, metrics))
        return metrics

    def path(self, suffix: str, traced: Optional[bool] = None) -> str:
        traced = self.traced if traced is None else traced
        return os.path.join(
            OUT_DIR, f"{self.workload.name}-seed{self.seed}-trace{int(traced)}-{suffix}"
        )


def design_checks(name: str, m: dict) -> dict:
    """Closure holds, and the workload does the work it was designed to do."""
    checks = {
        "closure_unattributed_ok": -0.02 <= m["closure.unattributed_share"] <= 0.10,
    }
    if name == "longdoc_decode":
        checks["mostly_decode"] = m["split.decode_share"] > 0.5
        checks["mostly_reused_prompt"] = m["memory.prefix_reuse_share"] > 0.5
    elif name == "http_stream":
        checks["no_prefix_reuse"] = m["memory.prefix_reuse_share"] == 0.0
    return checks


def end_to_end(result: LoopResult, extra: dict, agreement) -> dict:
    ok = [r for r in result.records if r.ok]
    gaps = [g for r in ok for g in r.gaps]
    ttft = [r.ttft for r in ok]
    itl99 = percentile(gaps, 99.0)
    return {
        "setup_s": extra["setup_s"],
        "ttft_p50_ms": 1e3 * statistics.median(ttft),
        "itl_p50_ms": 1e3 * statistics.median(gaps),
        "itl_p99_ms": 1e3 * itl99.value,
        "output_tok_s": sum(len(r.tokens) for r in ok) / result.wall_s,
        "req_s": len(ok) / result.wall_s,
        "peak_rss_mb": extra["peak_rss_mb"],
        "fp16_top1_agree": agreement.share,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="write BENCHMARK.json from catalogue.py and exit",
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as out:
            out.write(catalogue.manifest_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"program sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.seconds)
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    if workload.transport == "http":
        result, extra = run.run_http()
    else:
        result, extra = run.run_inproc()

    probe = host.describe(ROOT)
    ok = [r for r in result.records if r.ok]
    failed_ids = {r.request.request_id for r in result.records if not r.ok}
    failed_ids.update(run.checks.get("solo_mismatches", []))
    design_ok = all(v for k, v in run.checks.items() if isinstance(v, bool))
    correct = not failed_ids and design_ok
    e2e: dict = {}
    if args.trace:
        values = {k: extra[k] for k in catalogue.PER_LAYER}
        units = {k: catalogue.PER_LAYER[k][0] for k in values}
    else:
        if ok:
            mean_tokens = statistics.fmean(r.max_new_tokens for r in workload.requests())
            scored = _sample(result.records, args.seed, math.ceil(AGREE_TOKENS / mean_tokens), 2)
            agreement = inproc.fp_top1_agreement(scored, workload.shared_prefixes)
            e2e = end_to_end(result, extra, agreement)
            run.info["agreement"] = {"agree": agreement.agree, "total": agreement.total}
        values = e2e
        units = {k: catalogue.END_TO_END[k][0] for k in values}

    gaps = sum(len(r.gaps) for r in ok)
    full = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(result.records),
        "failed": sorted(failed_ids),
        "samples": {"requests": len(ok), "gaps": gaps, "steps": len(result.steps)},
        "wall_s": result.wall_s,
        "checks": run.checks,
        "errors": [r.error for r in result.records if r.error][:5],
        "host": probe,
        "end_to_end": e2e,
        "per_layer": {k: extra[k] for k in catalogue.PER_LAYER if k in extra},
        **run.info,
    }
    with open(run.path("result.json"), "w", encoding="utf-8") as out:
        json.dump(full, out, indent=1, default=str)
    print(
        f"# {workload.name} seed={args.seed} requests={len(ok)}/{len(result.records)} "
        f"gaps={gaps} wall={result.wall_s:.2f}s probe={probe['probe_s']:.3f}s "
        f"nproc={probe['nproc']} blas={probe['blas']!r} src={probe['source_sha256'][:12]}"
    )
    counts = {"ttft": len(ok), "itl": gaps}
    for name, value in values.items():
        n = next((f" (n={v})" for k, v in counts.items() if name.startswith(k)), "")
        print(f"# {name} = {value:.6g} {units[name]}{n}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(result.records),
                "failed": len(failed_ids),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
