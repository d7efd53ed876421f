"""Check the benchmark is steady: run workloads over several seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --seeds 1-10 [--workloads longdoc_decode,http_stream]
    python3 perfbench/steady.py --repeat 7

The first form prints, for each workload and end-to-end metric, the median
over the seeds and the spread (inter-quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) against the
metric's bound.  The second runs each workload's traced run twice on one
seed and checks that the work counters repeat exactly.  Runs one benchmark
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from perfbench import catalogue, workloads  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(catalogue.RUN_SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


#: Per-layer counts that must repeat exactly across runs of one seed.
WORK_COUNTERS = (
    "engine.prefill_tokens",
    "engine.chunk_substeps",
    "engine.steps",
    "memory.prefix_reuse_share",
    "scheduler.admissions",
    "client.gaps",
)


def check_repeat(names: list[str], seed: int) -> bool:
    same = True
    for workload in names:
        first, second = (run_once(workload, seed, trace=1)["metrics"] for _ in range(2))
        for name in WORK_COUNTERS:
            a, b = first[name]["value"], second[name]["value"]
            same &= a == b
            print(f"  {workload:15s} {name:26s} {a} {b} {'same' if a == b else 'DIFFERENT'}",
                  flush=True)
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--repeat", type=int, help="check work counters repeat on this seed")
    args = parser.parse_args()
    names = args.workloads.split(",")
    if args.repeat is not None:
        sys.exit(0 if check_repeat(names, args.repeat) else 1)
    seeds = seeds_from(args.seeds)
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        for name, series in values.items():
            bound = catalogue.END_TO_END[name][2]
            s = spread(series) if len(series) >= 2 else float("nan")
            flag = "ok" if s < bound / 3 else ("wide" if s < bound else "OVER")
            print(
                f"  {workload:15s} {name:16s} median={statistics.median(series):10.4g} "
                f"spread={s:.4f} bound={bound} {flag}",
                flush=True,
            )


if __name__ == "__main__":
    main()
