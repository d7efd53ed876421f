"""Seeded workload generators for the serving benchmark.

Every workload is a closed loop: a fixed set of clients, each holding an
ordered stream of requests and sending the next one only after the previous
one has finished.  The streams are a pure function of ``(name, seed,
seconds)``; the program under test receives nothing but the token ids made
here.  This module deliberately imports nothing from the program, so a
workload cannot depend on the state of the engine it is about to load.

``seconds`` sets the amount of work, never a deadline: the request count is
the workload's rate times ``seconds``, in whole rounds of clients, with
rates chosen so one run lasts about ``seconds`` on a 2-core x86 VM.  Rounds
are added until the run holds :data:`MIN_GAPS` inter-token gaps, so the p99
gap always has at least ten samples beyond it.  A faster program finishes
the same work sooner; it never does more of it, so the work counters of two
runs of one seed are identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Vocabulary of ``llama-2-7b-tiny``, the model every workload targets.
VOCAB_SIZE = 512

#: Block-pool block and prefill-chunk sizes of the benchmark's engine
#: configuration.  Shared prefixes are chunk multiples because a prefix hit
#: is only adoptable up to a chunk boundary.
BLOCK_TOKENS = 16
CHUNK_TOKENS = 128

LONGDOC_TOKENS = 1024

#: Inter-token gaps every run carries: the p99 gap has fifteen beyond it
#: (the ten-beyond rule needs 1000).
MIN_GAPS = 1500


@dataclass(frozen=True)
class Request:
    """One request of one client: prompt token ids and an exact token budget."""

    client: int
    index: int
    prompt: tuple[int, ...]
    max_new_tokens: int

    @property
    def request_id(self) -> str:
        return f"w{self.index:05d}"


@dataclass(frozen=True)
class Workload:
    """A closed-loop traffic mix.

    ``streams[c]`` is client ``c``'s requests in sending order.  ``primers``
    are prompts served to completion before timing starts: the standing
    shared prefixes of the service, each followed by one token so that the
    whole prefix is published to the block pool.
    """

    name: str
    transport: str
    streams: tuple[tuple[Request, ...], ...]
    primers: tuple[tuple[int, ...], ...] = ()

    @property
    def shared_prefixes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(primer[:-1] for primer in self.primers)

    @property
    def clients(self) -> int:
        return len(self.streams)

    def requests(self) -> list[Request]:
        """Every request, ordered by index."""
        return sorted((r for s in self.streams for r in s), key=lambda r: r.index)


#: name -> (transport, clients, requests per second of ``seconds``, why).
WORKLOADS: dict[str, tuple[str, int, float, str]] = {
    "longdoc_decode": (
        "inproc", 4, 0.5,
        "4 clients asking about one primed 1024-token document, 128 output "
        "tokens each: decode attention over long PQ history (pool reads)",
    ),
    "http_stream": (
        "http", 1, 4.5,
        "1 connection streaming short unshared prompts over SSE at batch 1: "
        "gateway parse/route/runner/SSE overhead is visible",
    ),
}


def request_count(name: str, seconds: float) -> int:
    """Requests the rate asks for: whole rounds of clients, at least two."""
    _, clients, rate, _ = WORKLOADS[name]
    rounds = max(2, int(round(rate * seconds / clients)))
    return rounds * clients


def _tokens(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, VOCAB_SIZE, size=n))


def _streams(clients: int, requests: list[Request]) -> tuple[tuple[Request, ...], ...]:
    return tuple(
        tuple(r for r in requests if r.client == c) for c in range(clients)
    )


def _spread(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """``n`` integers spread evenly over ``[lo, hi]``, in a seeded order.

    Every run of a size holds the same multiset of lengths; the seed only
    orders them (and picks the token ids), so runs of different seeds
    differ in arrangement, not in how much work they carry.
    """
    values = [lo + int((k + 0.5) * (hi - lo + 1) / n) for k in range(n)]
    return [values[i] for i in rng.permutation(n)]


def _size(name: str, seconds: float, mean_new_tokens: float) -> int:
    """Whole rounds of clients: the rate's count, or enough for MIN_GAPS."""
    clients = WORKLOADS[name][1]
    n = request_count(name, seconds)
    while n * (mean_new_tokens - 1) < MIN_GAPS:
        n += clients
    return n


def build(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` for ``seed``, sized for a ``seconds``-long run."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    transport, clients, _, _ = WORKLOADS[name]
    # One independent stream per workload name, so adding a workload never
    # changes the inputs of another.
    rng = np.random.default_rng([int(seed), zlib.crc32(name.encode())])
    primers: list[tuple[int, ...]] = []
    if name == "longdoc_decode":
        n = _size(name, seconds, 128)
        document = _tokens(rng, LONGDOC_TOKENS)
        primers = [document + _tokens(rng, 1)]
        made = [(document + _tokens(rng, q), 128) for q in _spread(rng, 16, 32, n)]
    else:  # http_stream
        n = _size(name, seconds, 16)
        made = [(_tokens(rng, p), 16) for p in _spread(rng, 16, 48, n)]
    requests = [
        Request(i % clients, i, prompt, max_new_tokens)
        for i, (prompt, max_new_tokens) in enumerate(made)
    ]
    return Workload(name, transport, _streams(clients, requests), tuple(primers))


def sample_indices(seed: int, n_requests: int, k: int, salt: int) -> list[int]:
    """``k`` request indices fixed by the seed (for the after-run checks)."""
    rng = np.random.default_rng([int(seed), 1000 + salt])
    k = min(k, n_requests)
    return sorted(int(i) for i in rng.choice(n_requests, size=k, replace=False))
