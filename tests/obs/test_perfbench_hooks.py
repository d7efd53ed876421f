"""The benchmark's traced run wraps program entry points by name.

``perfbench.layers.install`` looks every ``(owner, attr)`` pair up with
``getattr`` and replaces it with a timing wrapper.  A renamed or deleted
entry point breaks only traced runs, which the suite does not start, so
this test records the pairs ``install`` asks for, checks that each still
resolves to a callable, and then runs the real ``install`` and
``Tracer.restore`` over them.
"""

from __future__ import annotations

import numpy as np
from support.reference import pooled

from perfbench import layers
from perfbench.spans import Tracer
from repro.core.million_cache import MillionKVCacheLayer
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.serving import BatchedMillionEngine
from repro.utils.bitpack import code_dtype


def test_every_wrapped_entry_point_resolves(monkeypatch):
    wrapped: list[tuple[object, str, str]] = []

    def record(self, owner, attr, name, request_id=None, after=None):
        wrapped.append((owner, attr, name))

    with monkeypatch.context() as patch:
        patch.setattr(Tracer, "wrap", record)
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
    # The real install wraps each one, and restore puts the original back.
    originals = [getattr(owner, attr) for owner, attr, _ in wrapped]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for (owner, attr, _), original in zip(wrapped, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr, _ in wrapped] == originals


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


def test_traced_encode_is_one_span_per_flush_side(
    monkeypatch, tiny_model, million_factory, calibration_tokens
):
    """``pq.encode_s`` sums ``ProductQuantizer.encode`` spans: one per call,
    so one per flushed side, however many row tiles the call encodes."""
    flushed_rows = []
    encode_dense = MillionKVCacheLayer._encode_dense

    def counted(self, keys, values):
        flushed_rows.append(keys.shape[0] * keys.shape[1])
        return encode_dense(self, keys, values)

    monkeypatch.setattr(MillionKVCacheLayer, "_encode_dense", counted)
    tracer = Tracer()
    layers.install(tracer)
    try:
        engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, million_factory))
        for start in (0, 100):
            engine.add_request(calibration_tokens[start : start + 90], max_new_tokens=12)
        engine.run()
    finally:
        tracer.restore()
        tiny_model.reset_cache(FullPrecisionCacheFactory())
    spans = [span for span in tracer.spans if span.name == "pq.encode"]
    assert len(spans) == 2 * len(flushed_rows)
    key_pq, _ = million_factory.quantizers[0]
    assert max(flushed_rows) > 2 * key_pq.encode_tile_rows()
