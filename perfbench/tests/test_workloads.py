"""Workload generation is deterministic per seed and program-independent."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from perfbench import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_workload(name):
    assert workloads.build(name, 3, 24) == workloads.build(name, 3, 24)
    assert workloads.build(name, 3, 24) != workloads.build(name, 4, 24)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_run_supports_the_p99_gap(name):
    for seed in range(5):
        w = workloads.build(name, seed, 24)
        requests = w.requests()
        assert sum(r.max_new_tokens - 1 for r in requests) >= workloads.MIN_GAPS
        assert len(requests) % w.clients == 0
        assert [r.index for r in requests] == list(range(len(requests)))
        assert all(0 <= t < workloads.VOCAB_SIZE for r in requests for t in r.prompt)


def test_streams_are_round_robin_and_ordered():
    w = workloads.build("longdoc_decode", 1, 24)
    for client, stream in enumerate(w.streams):
        assert [r.client for r in stream] == [client] * len(stream)
        assert [r.index for r in stream] == sorted(r.index for r in stream)


def test_shared_prefix_is_whole_chunks_and_prefixes_every_prompt():
    w = workloads.build("longdoc_decode", 2, 24)
    assert w.shared_prefixes
    for prefix in w.shared_prefixes:
        assert len(prefix) % workloads.CHUNK_TOKENS == 0
    for r in w.requests():
        assert any(r.prompt[: len(p)] == p for p in w.shared_prefixes)


def test_http_prompts_are_unshared():
    w = workloads.build("http_stream", 2, 24)
    firsts = {r.prompt[: workloads.BLOCK_TOKENS] for r in w.requests()}
    assert not w.primers
    assert len(firsts) == len(w.requests())


def test_generator_never_imports_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import perfbench.workloads; "
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, ROOT], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_sample_indices_fixed_by_seed():
    a = workloads.sample_indices(5, 24, 3, salt=1)
    assert a == workloads.sample_indices(5, 24, 3, salt=1)
    assert len(set(a)) == 3 and all(0 <= i < 24 for i in a)
    assert workloads.sample_indices(5, 2, 3, salt=1) == [0, 1]
