"""`docs/OPERATIONS.md` must document every exported `/metrics` family.

The operator's guide carries a catalogue of metric families; this test
scrapes a live in-process gateway (pooled engine, one served request so the
dynamic families render too), parses the exposition, and diffs the family
names against the doc. A new family added to the renderer without a row in
the catalogue fails here — documentation drift is a test failure, not a
review nit.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.promtext import parse_exposition
from repro.serving import BatchedMillionEngine, PooledPolicyCacheFactory

OPERATIONS_MD = Path(__file__).resolve().parents[2] / "docs" / "OPERATIONS.md"


def _scrape_families(config, million_config, factory, gw):
    model = build_model(config, seed=7)
    pooled = PooledPolicyCacheFactory(
        config, {4: factory}, num_blocks=64, block_tokens=32
    )
    engine = BatchedMillionEngine(model, pooled)
    server = GatewayServer(
        ReplicaRouter([AsyncEngineRunner(engine)]), tokenizer=ByteTokenizer()
    )

    async def scenario():
        host, port = await server.start(port=0)
        try:
            status, _, _ = await gw.raw_request(
                host, port, "POST", "/v1/completions",
                {"prompt": [1, 2, 3, 4], "max_tokens": 3},
            )
            assert status == 200
            status, _, body = await gw.raw_request(host, port, "GET", "/metrics")
            assert status == 200
            return parse_exposition(body.decode())
        finally:
            await server.stop()

    return asyncio.run(scenario())


def test_every_exported_family_is_documented(
    tiny_config, million_config, million_factory, gw
):
    families = _scrape_families(tiny_config, million_config, million_factory, gw)
    assert len(families) > 20  # the scrape itself must be substantive
    doc = OPERATIONS_MD.read_text()
    missing = sorted(name for name in families if name not in doc)
    assert not missing, (
        "docs/OPERATIONS.md is missing exported /metrics families: "
        f"{missing} — add a catalogue row for each"
    )


def test_documented_families_exist_in_the_renderer():
    """The reverse direction: the catalogue must not document families the
    renderer no longer exports (tolerating histogram suffixes)."""
    import repro.gateway.metrics as metrics_module
    import inspect

    source = inspect.getsource(metrics_module)
    doc = OPERATIONS_MD.read_text()
    documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", doc))
    assert documented, "catalogue lost its family names"
    base_names = {
        name.removesuffix("_bucket").removesuffix("_sum").removesuffix("_count")
        for name in documented
    }
    stale = sorted(
        name for name in base_names
        # Histogram families render as name_bucket/_sum/_count from a common
        # stem; gateway families are built as f"{_GATEWAY_PREFIX}_<suffix>",
        # so accept the suffix alone for those.
        if name not in source
        and name.removeprefix("repro_gateway") not in source
    )
    assert not stale, (
        f"docs/OPERATIONS.md documents families the renderer lacks: {stale}"
    )
