"""Host speed probe and build facts recorded next to every run.

The probe is a diagnostic, not a gated metric: a fixed NumPy loop (a GEMM
plus an ``np.add.at`` scatter, the two kinds of work the engine does) timed
before the workload.  When a run is slow and the probe is slow too, the
host was slow; when only the run is slow, the program was.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time

import numpy as np

PROBE_REPEATS = 3


def probe_seconds() -> list[float]:
    """Wall seconds of the fixed probe loop, ``PROBE_REPEATS`` times."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    index = rng.integers(0, 4096, 200_000)
    values = rng.standard_normal(200_000).astype(np.float32)
    out = np.zeros(4096, dtype=np.float32)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(100):
            a @ a
        for _ in range(10):
            np.add.at(out, index, values)
        times.append(time.perf_counter() - start)
    return times


def source_digest(root: str) -> str:
    """SHA-256 over the program and benchmark sources: the code that ran.

    The benchmark's checkout is not a git repository, so this stands in for
    the commit.
    """
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def describe(root: str) -> dict:
    times = probe_seconds()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "probe_s": statistics.median(times),
        "probe_runs_s": times,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_text,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "source_sha256": source_digest(root),
    }
