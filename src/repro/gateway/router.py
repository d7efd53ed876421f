"""Prefix-affinity routing across engine replicas.

Prefix sharing (PR 2's block pool) only pays off if requests with a common
prompt prefix land on the replica that already holds the published blocks —
otherwise every replica prefills the shared system prompt once.  The router
therefore scores each replica by how deep a published block chain it holds
for the incoming prompt — the prompt's chained BLAKE2b hashes are computed
once and every replica's pool is probed with the same chain
(:meth:`BlockPool.longest_prefix`) — and only falls back to least-loaded
placement when no replica has seen the prefix:

1. **Pool affinity** — deepest published prefix wins (ties: lower load).
2. **Sticky affinity** — an LRU table of recently routed chain hashes covers
   the window before a prefix's blocks are published (two requests arriving
   back-to-back must not land on different replicas just because the first
   one has not prefilled yet).
3. **Least loaded** — fewest queued + running requests.

A replica whose wait queue is full is never chosen; if every replica is
saturated the router raises
:class:`~repro.serving.scheduler.QueueFullError`, which the server maps to
HTTP 429 — backpressure instead of unbounded buffering.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.gateway.runner import AsyncEngineRunner
from repro.serving.memory import chain_hashes
from repro.serving.scheduler import QueueFullError
from repro.utils.validation import require


@dataclass(frozen=True)
class RoutingDecision:
    """Where one request was placed and why."""

    replica_index: int
    runner: AsyncEngineRunner
    affinity_blocks: int
    reason: str  # "prefix" | "sticky" | "least_loaded"


class ReplicaRouter:
    """Route requests to the replica most likely to reuse their prefix."""

    def __init__(
        self,
        runners: Sequence[AsyncEngineRunner],
        block_tokens: Optional[int] = None,
        max_sticky_entries: int = 4096,
    ) -> None:
        require(len(runners) >= 1, "router needs at least one replica")
        require(max_sticky_entries >= 1, "max_sticky_entries must be >= 1")
        self.runners = list(runners)
        if block_tokens is None:
            block_tokens = self.runners[0].engine.pool.block_tokens
        require(block_tokens >= 1, "block_tokens must be >= 1")
        self.block_tokens = int(block_tokens)
        self.max_sticky_entries = max_sticky_entries
        # chain hash -> replica index, most recently routed last.
        self._sticky: "OrderedDict[bytes, int]" = OrderedDict()
        # Per-replica health states (0 ok, 1 degraded, 2 unhealthy) pushed by
        # the gateway's health engine after every scrape; empty = all healthy.
        self._replica_health: list[int] = []
        # Decision counters (reported by /metrics).
        self.prefix_routed = 0
        self.sticky_routed = 0
        self.load_routed = 0
        self.rejected = 0
        self.health_avoided = 0

    def route(self, prompt_ids: np.ndarray) -> RoutingDecision:
        """Pick a replica for a prompt and register its prefix affinity."""
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)
        # Hash the span the prefill protocol would seal (see
        # BlockPool.longest_token_prefix for the -1 alignment).
        aligned = self.block_tokens * max(0, (prompt_ids.size - 1) // self.block_tokens)
        hashes = chain_hashes(prompt_ids[:aligned], self.block_tokens)
        candidates = [
            (index, runner)
            for index, runner in enumerate(self.runners)
            if not runner.queue_full
        ]
        if not candidates:
            self.rejected += 1
            raise QueueFullError(
                f"all {len(self.runners)} replicas are at queue capacity"
            )
        candidates = self._prefer_healthy(candidates)
        decision = (
            self._route_by_pool(candidates, hashes)
            or self._route_by_sticky(candidates, hashes)
            or self._route_least_loaded(candidates)
        )
        if decision.reason == "prefix":
            self.prefix_routed += 1
        elif decision.reason == "sticky":
            self.sticky_routed += 1
        else:
            self.load_routed += 1
        self._register(hashes, decision.replica_index)
        return decision

    # Health ---------------------------------------------------------------

    def set_replica_health(self, states: Sequence[int]) -> None:
        """Record per-replica health (0 ok, 1 degraded, 2 unhealthy).

        Pushed by the gateway after every health evaluation, so routing
        never blocks on the health engine itself.
        """
        self._replica_health = [int(state) for state in states]

    def _replica_state(self, index: int) -> int:
        if index < len(self._replica_health):
            return self._replica_health[index]
        return 0

    def _prefer_healthy(self, candidates):
        """Deprioritize degraded replicas: route within the healthiest
        non-empty tier (ok > degraded > unhealthy).  A degraded replica
        still serves when every healthy one is at queue capacity —
        shedding load beats rejecting it, and the verdict may be stale."""
        best = min(self._replica_state(index) for index, _ in candidates)
        preferred = [
            pair for pair in candidates if self._replica_state(pair[0]) == best
        ]
        if len(preferred) < len(candidates):
            self.health_avoided += 1
        return preferred

    # Strategies -----------------------------------------------------------

    def _route_by_pool(self, candidates, hashes) -> Optional[RoutingDecision]:
        if not hashes:
            return None
        best: Optional[tuple[int, int, AsyncEngineRunner]] = None
        for index, runner in candidates:
            hits = runner.longest_prefix(hashes, self.block_tokens)
            if hits == 0:
                continue
            if best is None or (hits, -runner.load) > (best[1], -best[2].load):
                best = (index, hits, runner)
        if best is None:
            return None
        return RoutingDecision(best[0], best[2], best[1], "prefix")

    def _route_by_sticky(self, candidates, hashes) -> Optional[RoutingDecision]:
        eligible = {index for index, _ in candidates}
        for depth in range(len(hashes), 0, -1):
            index = self._sticky.get(hashes[depth - 1])
            if index is not None and index in eligible:
                return RoutingDecision(index, self.runners[index], depth, "sticky")
        return None

    def _route_least_loaded(self, candidates) -> RoutingDecision:
        index, runner = min(candidates, key=lambda pair: (pair[1].load, pair[0]))
        return RoutingDecision(index, runner, 0, "least_loaded")

    def _register(self, hashes: Sequence[bytes], replica_index: int) -> None:
        for chain_hash in hashes:
            self._sticky[chain_hash] = replica_index
            self._sticky.move_to_end(chain_hash)
        while len(self._sticky) > self.max_sticky_entries:
            self._sticky.popitem(last=False)

    # Introspection --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "replicas": len(self.runners),
            "prefix_routed": self.prefix_routed,
            "sticky_routed": self.sticky_routed,
            "load_routed": self.load_routed,
            "rejected": self.rejected,
            "health_avoided": self.health_avoided,
            "sticky_entries": len(self._sticky),
        }


__all__ = ["ReplicaRouter", "RoutingDecision"]
