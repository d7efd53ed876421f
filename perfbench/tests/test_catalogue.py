"""BENCHMARK.json is generated from the catalogue and meets the contract."""

from __future__ import annotations

import json
import os
import re

from perfbench import catalogue, workloads
from perfbench.gateway_client import metrics_counters

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_file_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == catalogue.manifest()


def test_manifest_shape():
    m = catalogue.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in m["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["name"] in workloads.WORKLOADS
    for x in m["end_to_end"]:
        assert set(x) == {"name", "unit", "better", "bound"}
        assert UNIT.match(x["unit"]) and x["better"] in ("lower", "higher")
        assert 0 < x["bound"] <= 0.25
    for x in m["per_layer"]:
        assert set(x) == {"name", "unit", "better"} and UNIT.match(x["unit"])
    setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(x["bound"] for x in m["end_to_end"])


def test_metrics_counters_parse_exposition():
    text = "\n".join([
        "# HELP repro_engine_decode_seconds_total x",
        "# TYPE repro_engine_decode_seconds_total counter",
        'repro_engine_decode_seconds_total{replica="replica-0"} 2.5',
        'repro_engine_prefill_tokens_computed_total{replica="replica-0"} 40',
        'repro_engine_step_seconds_count{replica="replica-0",kind="decode"} 7',
        'repro_engine_step_seconds_count{replica="replica-0",kind="prefill"} 3',
        'repro_engine_phase_seconds{replica="replica-0",phase="decode/lut_build"} 0.25',
        'repro_pool_adoptions_total{replica="replica-0"} 5',
    ])
    c = metrics_counters(text)
    assert c["decode_s"] == 2.5 and c["prefill_tokens_computed"] == 40
    assert c["decode_steps"] == 7 and c["adoptions"] == 5
    assert c["phases"] == {"decode/lut_build": 0.25}
    assert c["prefill_s"] == 0.0
