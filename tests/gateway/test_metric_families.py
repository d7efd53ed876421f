"""The ``/metrics`` family table is the one definition of every family.

:data:`repro.gateway.metrics.FAMILIES` renders the scrape and generates the
catalogue in ``docs/OPERATIONS.md``; these tests check the table against
itself, against a render with every optional input present, against a live
gateway scrape, and against every consumer that names a family in text (the
dashboard, the CI smoke script, the benchmark's HTTP client, the examples
and the docs), so a rename fails here instead of reading zeros downstream.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

import pytest

from repro.gateway import AsyncEngineRunner, GatewayServer, ReplicaRouter
from repro.gateway.metrics import (
    FAMILIES,
    GatewayMetrics,
    catalogue_markdown,
    render_prometheus,
    splice_catalogue,
)
from repro.models import build_model
from repro.models.tokenizer import ByteTokenizer
from repro.obs.health import HealthEngine, HealthPolicy, HealthSample
from repro.obs.prof import PhaseProfiler
from repro.obs.promtext import parse_exposition
from repro.quant.policy import QuantPolicy
from repro.serving import BatchedMillionEngine
from support.reference import pooled

REPO_ROOT = Path(__file__).resolve().parents[2]
OPERATIONS_MD = REPO_ROOT / "docs" / "OPERATIONS.md"
REGENERATE = (
    "PYTHONPATH=src python -c \"from pathlib import Path; "
    "from repro.gateway.metrics import splice_catalogue as s; "
    "p = Path('docs/OPERATIONS.md'); p.write_text(s(p.read_text()))\""
)
REGISTERED = {family.name: family for family in FAMILIES}
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _registered_family(name: str):
    """The family ``name`` belongs to, tolerating histogram sample suffixes."""
    if name in REGISTERED:
        return REGISTERED[name]
    for suffix in HISTOGRAM_SUFFIXES:
        base = REGISTERED.get(name.removesuffix(suffix))
        if name.endswith(suffix) and base is not None and base.type == "histogram":
            return base
    return None


@pytest.fixture(scope="module")
def full_scrape(tiny_config, million_factory, calibration_tokens):
    """Two tiered, profiled replicas that served work, router stats and an
    SLO health engine: every optional input of the renderer present."""
    engines = []
    for replica in range(2):
        model = build_model(tiny_config, seed=7)
        tiers = {"quality": QuantPolicy.uniform(tiny_config, "million", 4)}
        engine = BatchedMillionEngine(
            model, pooled(model, million_factory, tiers=tiers), prof=PhaseProfiler()
        )
        engine.add_request(calibration_tokens[: 10 + replica], max_new_tokens=4)
        engine.add_request(calibration_tokens[20:30], max_new_tokens=3, tier="quality")
        engine.run()
        engines.append(engine)
    router = ReplicaRouter([AsyncEngineRunner(engine) for engine in engines])
    metrics = GatewayMetrics()
    metrics.observe_request("/v1/completions", 200)
    metrics.observe_ttft(0.01, tier="quality", priority="best_effort")
    metrics.observe_itl(0.002)
    health = HealthEngine(HealthPolicy(ttft_slo_s={"interactive": 0.05, "best_effort": 0.5}))
    replicas = [{"queued": 0, "running": 0, "pool_pressure": 0.0, "failed": False}] * 2
    ttft = {label: hist.snapshot() for label, hist in metrics.priority_ttft_seconds.items()}
    health.observe(HealthSample(ts=0.0, replicas=replicas))
    health.observe(HealthSample(ts=1.0, ttft=ttft, http_total=1, replicas=replicas))
    return render_prometheus(
        metrics, [engine.stats() for engine in engines], router.stats(), health=health
    )


class TestTable:
    def test_names_unique_and_help_texts_single_line(self):
        assert len(REGISTERED) == len(FAMILIES)
        for family in FAMILIES:
            assert family.type in ("counter", "gauge", "histogram"), family.name
            assert family.help and family.help == family.help.strip(), family.name
            # HELP lines are unescaped and the catalogue is a markdown table.
            for forbidden in ("\n", "\\", "|"):
                assert forbidden not in family.help, (family.name, forbidden)

    def test_operations_catalogue_is_generated_from_the_table(self):
        doc = OPERATIONS_MD.read_text()
        assert catalogue_markdown() in doc, "catalogue markers missing from OPERATIONS.md"
        assert splice_catalogue(doc) == doc, (
            "docs/OPERATIONS.md's metric catalogue is stale; regenerate it with:\n"
            + REGENERATE
        )


class TestFullRender:
    def test_exactly_the_registered_families_each_one_contiguous_group(self, full_scrape):
        # parse_exposition rejects a family whose lines another family splits.
        families = parse_exposition(full_scrape)
        assert list(families) == list(REGISTERED)
        for name, family in families.items():
            assert family.type == REGISTERED[name].type, name
            assert family.help == REGISTERED[name].help, name

    def test_sample_labels_are_the_declared_keys(self, full_scrape):
        for name, family in parse_exposition(full_scrape).items():
            keys = REGISTERED[name].label_keys
            replicas = set()
            for sample in family.samples:
                assert tuple(k for k in sample.labels if k != "le") == keys, sample
                replicas.add(sample.labels.get("replica"))
            if REGISTERED[name].source == "replica":
                assert replicas == {"0", "1"}, name


class TestConsumers:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/obs/top.py",
            "scripts/gateway_smoke.py",
            "perfbench/gateway_client.py",
            "docs/OPERATIONS.md",
            "README.md",
        ],
    )
    def test_every_named_family_is_registered(self, path):
        names = set(re.findall(r"\brepro_[a-z0-9_]+\*?", (REPO_ROOT / path).read_text()))
        assert names, f"{path} names no family"
        unknown = sorted(
            name for name in names
            if not (
                any(f.startswith(name[:-1]) for f in REGISTERED)
                if name.endswith("*")
                else _registered_family(name)
            )
        )
        assert not unknown, f"{path} names unregistered /metrics families: {unknown}"

    def test_example_prefixes_each_match_a_family(self):
        text = (REPO_ROOT / "examples" / "gateway_streaming.py").read_text()
        prefixes = set(re.findall(r'"(repro_[a-z0-9_]+)"', text))
        assert prefixes
        unmatched = sorted(p for p in prefixes if not any(f.startswith(p) for f in REGISTERED))
        assert not unmatched, f"examples/gateway_streaming.py filters on {unmatched}"


def test_live_gateway_scrape_families_are_registered(
    tiny_config, million_factory, calibration_tokens, gw
):
    model = build_model(tiny_config, seed=7)
    engine = BatchedMillionEngine(model, pooled(model, million_factory))
    server = GatewayServer(
        ReplicaRouter([AsyncEngineRunner(engine)]), tokenizer=ByteTokenizer()
    )

    async def scenario():
        host, port = await server.start(port=0)
        try:
            status, _, _ = await gw.raw_request(
                host, port, "POST", "/v1/completions",
                {"prompt": calibration_tokens[:4].tolist(), "max_tokens": 3},
            )
            assert status == 200
            status, _, body = await gw.raw_request(host, port, "GET", "/metrics")
            assert status == 200
            return parse_exposition(body.decode())
        finally:
            await server.stop()

    families = asyncio.run(scenario())
    assert len(families) > 20  # the scrape itself must be substantive
    unknown = sorted(set(families) - set(REGISTERED))
    assert not unknown, f"/metrics exports unregistered families: {unknown}"
    for name, family in families.items():
        assert (family.type, family.help) == (REGISTERED[name].type, REGISTERED[name].help)
