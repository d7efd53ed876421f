"""The benchmark's traced run wraps program entry points by name.

``perfbench.layers.install`` looks every ``(owner, attr)`` pair up with
``getattr`` and replaces it with a timing wrapper.  A renamed or deleted
entry point breaks only traced runs, which the suite does not start, so
this test records the pairs ``install`` asks for and checks that each
still resolves to a callable.
"""

from __future__ import annotations

import numpy as np
from support.reference import pooled

from perfbench import layers
from perfbench.spans import Tracer
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import BatchedMillionEngine
from repro.utils.bitpack import code_dtype


def test_every_wrapped_entry_point_resolves(monkeypatch):
    wrapped: list[tuple[object, str, str]] = []

    def record(self, owner, attr, name, request_id=None, after=None):
        wrapped.append((owner, attr, name))

    monkeypatch.setattr(Tracer, "wrap", record)
    layers.install(Tracer())
    assert wrapped
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name in wrapped
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
    # Every layer but ``attn`` (profiler phases, not wrapped calls) has a span.
    assert {name.split(".", 1)[0] for _, _, name in wrapped} >= {
        "engine", "scheduler", "memory", "model", "pq", "calib"
    }


def test_traced_code_size_accessors_match_the_code_rows(tiny_model, million_factory):
    """``--trace 1`` samples ``memory.kv_bytes_per_token`` from the pool's
    block size and ``attn.code_bytes_per_token`` from the quantizers; both
    must equal kv heads x (key + value subspaces) x code itemsize x layers."""
    config = tiny_model.config
    key_pq, value_pq = million_factory.quantizers[0]
    itemsize = np.dtype(code_dtype(key_pq.nbits)).itemsize
    expected = (
        config.kv_heads
        * (key_pq.m_subspaces + value_pq.m_subspaces)
        * itemsize
        * config.n_layers
    )
    try:
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        assert layers.kv_bytes_per_token(engine) == expected
        assert layers.code_bytes_per_token(engine) == expected
    finally:
        tiny_model.reset_cache(FullPrecisionCacheFactory())
