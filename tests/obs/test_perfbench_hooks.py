"""The benchmark's traced run wraps program entry points by name.

``perfbench.layers.install`` looks every ``(owner, attr)`` pair up with
``getattr`` and replaces it with a timing wrapper.  A renamed or deleted
entry point breaks only traced runs, which the suite does not start, so
this test records the pairs ``install`` asks for and checks that each
still resolves to a callable.
"""

from __future__ import annotations

from perfbench import layers
from perfbench.spans import Tracer


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
