"""Run ``python -m repro.gateway`` for the ``http_stream`` workload.

Usage: ``python3 perfbench/serve.py [--spans PATH] <gateway CLI flags>``.

Without ``--spans`` this is exactly the gateway CLI.  With it, the layer
spans of :mod:`perfbench.layers` are installed before the gateway is built
(so calibration is timed too) and written to ``PATH`` after the gateway
stops on SIGINT.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Replace this script's directory on the path: its module names must not
# shadow the standard library for the program.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def main(argv: list[str]) -> None:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from repro.gateway.__main__ import main as gateway_main

    tracer = None
    if spans_path is not None:
        from perfbench import layers
        from perfbench.spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        gateway_main(argv)  # returns after SIGINT stops the server
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
