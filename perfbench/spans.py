"""In-memory spans recorded around calls into each layer's public functions.

:meth:`Tracer.wrap` replaces an attribute with a timing wrapper.  Install it
on the attribute the caller resolves at call time: a method on its class, or
a function imported by name in the *importing* module (wrapping the defining
module would miss callers that already hold the function).  Nothing is
hooked inside the program; :meth:`Tracer.restore` undoes every wrap.

A span is ``(name, start, end, parent, request_id)``; ``parent`` is the
index of the enclosing span on the same thread, or -1.  A sample is
``(time, name, value)``, e.g. pool occupancy after a step.  Both stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request_id: Optional[str]


class Tracer:
    """Records nested spans per thread; one list for the whole process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.samples: list[tuple[float, str, float]] = []
        #: Keys of one-time samples already taken (see ``layers``).
        self.once: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: Optional[str] = None) -> int:
        stack = self._stack()
        span = Span(name, self.clock(), float("nan"), stack[-1] if stack else -1, request_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, request_id: Optional[str] = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if request_id is not None:
            span.request_id = request_id
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.append((self.clock(), name, float(value)))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        request_id: Optional[Callable[[tuple, object], Optional[str]]] = None,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``request_id(args, result)`` names the request a call served, when
        the call serves exactly one.  ``after(tracer, args, result)`` runs
        once the span has closed, to take samples outside it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = tracer.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(index, request_id(args, result) if request_id else None)
                if after is not None:
                    after(tracer, args, result)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrap first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """JSON lines: ``{"span": [name, start, end, parent, request_id]}``
        and ``{"sample": [time, name, value]}``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                fields = [span.name, span.start, span.end, span.parent, span.request_id]
                out.write(json.dumps({"span": fields}) + "\n")
            for sample in self.samples:
                out.write(json.dumps({"sample": list(sample)}) + "\n")


def read(path: str) -> tuple[list[Span], list[tuple[float, str, float]]]:
    """The spans and samples :meth:`Tracer.write` wrote."""
    spans, samples = [], []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if "span" in record:
                spans.append(Span(*record["span"]))
            else:
                samples.append(tuple(record["sample"]))
    return spans, samples


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def descendants_of(spans: list[Span], root_name: str, lo: float, hi: float) -> list[bool]:
    """Mask of spans inside a ``root_name`` span that lies within ``[lo, hi]``."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0 and inside[s.parent]:
            inside[i] = True
        elif s.name == root_name and s.start >= lo and s.end <= hi:
            inside[i] = True
    return inside
