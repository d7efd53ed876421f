"""Run the serving gateway from the command line.

::

    PYTHONPATH=src python -m repro.gateway --port 8707 --replicas 2

then stream a completion with any HTTP client::

    curl -N http://127.0.0.1:8707/v1/completions \\
      -H 'Content-Type: application/json' \\
      -d '{"prompt": "the quick brown fox", "max_tokens": 16, "stream": true}'

``--port 0`` binds an ephemeral port; the chosen one is printed on the
``listening on`` line (machine-readable, used by the CI smoke script).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
from dataclasses import fields

from repro.gateway.bootstrap import GatewayConfig, build_gateway
from repro.utils.logging import enable_console_logging


def _parser() -> argparse.ArgumentParser:
    defaults = GatewayConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8707, help="0 = ephemeral")
    for field in fields(GatewayConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.name == "model":
            parser.add_argument(flag, default=defaults.model, help="zoo model name")
        elif field.name == "codebook_cache":
            parser.add_argument(
                flag, default=None, metavar="DIR",
                help="codebook cache directory (default $REPRO_CACHE_DIR, else "
                "$XDG_CACHE_HOME/repro, else ~/.cache/repro); '' disables it",
            )
        else:
            parser.add_argument(
                flag, type=int, default=getattr(defaults, field.name),
                help=f"(default {getattr(defaults, field.name)})",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> GatewayConfig:
    return GatewayConfig(
        **{field.name: getattr(args, field.name) for field in fields(GatewayConfig)}
    )


async def serve(config: GatewayConfig, host: str, port: int) -> None:
    print(
        f"building gateway: model={config.model} replicas={config.replicas} "
        f"pool_blocks={config.pool_blocks} (loading or calibrating MILLION "
        "codebooks ...)",
        flush=True,
    )
    server = build_gateway(config)
    bound_host, bound_port = await server.start(host, port)
    print(f"listening on http://{bound_host}:{bound_port}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    # Library log lines (the codebook cache's hit/calibration line, health
    # alerts) go to stderr.
    enable_console_logging()
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve(config_from_args(args), args.host, args.port))


if __name__ == "__main__":
    main()
