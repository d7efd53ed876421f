"""Paged KV block pool: bounded memory, prefix sharing, preemption support.

This module is the serving layer's memory manager — the host-side analogue of
vLLM's paged KV allocator, specialised to MILLION's PQ-compressed cache:

* :class:`BlockPool` owns a bounded budget of fixed-size KV blocks.  A block
  holds ``block_tokens`` quantized code rows (keys + values) for **one**
  pool *unit* — a (layer, head-group) slot of one quality tier; one logical
  *group* holds one block per unit of the tier that wrote it and stores a
  block-aligned span of a sequence across every layer.  Blocks are
  ref-counted; sealed groups are published under a content hash of the
  token prefix they encode, so identical prompt prefixes across requests of
  one tier resolve to the *same* blocks (copy-on-write sharing: sealed
  blocks are immutable, divergence after a shared prefix writes to freshly
  allocated private blocks).
* :class:`PooledMillionKVCacheLayer` is the MILLION cache whose quantized
  code rows live in pool blocks instead of private storage.  Flushes are
  forced onto ``block_tokens`` boundaries, so every sealed block is full and
  the MILLION flush block maps 1:1 onto a pool block.  The same forced
  alignment is what defines the engine's chunked-prefill boundaries: a
  chunk of ``k·block_tokens`` tokens ends in ``flush_all()``, sealing and
  publishing whole groups, so a prefill paused at any chunk boundary is in
  exactly the state its cold run passes through there.
* :class:`PooledPolicyCacheFactory` is a replica's one cache factory: it
  lays out every quality tier's :class:`~repro.quant.policy.QuantPolicy`
  as units of one pool it builds and owns, wires the calibrated quantizers
  to them, and plugs into
  :class:`~repro.serving.engine.BatchedMillionEngine`, which adds
  memory-aware admission and preemption on top (see its docstring for the
  chunk schedule that makes shared and cold prefills bit-identical).

Exhaustion is a first-class outcome: allocation first recycles the free
list, then evicts least-recently-used *cached* groups (published, refcount
zero), and only then raises :class:`PoolExhaustedError` — which the engine
turns into preemption of a running sequence, in
:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.preemption_victims`
order.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MillionConfig
from repro.core.million_cache import MillionKVCacheLayer, ReconstructedRun, decode_rows
from repro.core.pq import ProductQuantizer
from repro.core.storage import BlockArena
from repro.models.config import ModelConfig
from repro.models.kv_cache import KVCacheLayer
from repro.obs.trace import NULL_RECORDER
from repro.quant.policy_cache import HeadGroupKVCache, head_subset_config
from repro.utils.bitpack import code_dtype
from repro.utils.validation import ValidationError, require

if TYPE_CHECKING:
    from repro.quant.policy import QuantPolicy


class PoolExhaustedError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after eviction."""


@dataclass(frozen=True)
class UnitLayout:
    """Code-row layout of one pool unit (a (layer, head-group) slot).

    A pool lists one layout per unit.  :class:`PooledPolicyCacheFactory`
    gives every head group of every tier its own, so differently-shaped code
    rows share one pool.
    """

    kv_heads: int
    key_subspaces: int
    value_subspaces: int
    key_dtype: np.dtype | type = np.uint8
    value_dtype: np.dtype | type = np.uint8

    @property
    def key_row_nbytes(self) -> int:
        return self.kv_heads * self.key_subspaces * np.dtype(self.key_dtype).itemsize

    @property
    def value_row_nbytes(self) -> int:
        return self.kv_heads * self.value_subspaces * np.dtype(self.value_dtype).itemsize


#: Seed of every content-hash chain (the hash "before" the first block).
ROOT_HASH = b"\x00" * 16


def hash_token_block(prev_hash: bytes, tokens: np.ndarray) -> bytes:
    """Chain hash of one block: digest of the previous hash plus the tokens.

    Chaining makes the hash cover the *entire* prefix up to and including
    this block, so equal hashes imply equal token histories — the property
    that lets identical prompt prefixes share quantized blocks.  (The KV of a
    token depends on every earlier token, so hashing the block's tokens alone
    would be unsound.)
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(prev_hash)
    digest.update(np.ascontiguousarray(tokens, dtype=np.int64).tobytes())
    return digest.digest()


def unit_range_root(base: int, units: int) -> bytes:
    """Seed of the chain hashes of groups over pool units ``[base, base+units)``.

    The range that starts at unit 0 (a pool's default tier) keeps
    :data:`ROOT_HASH`, so its hashes are those of a single-tier pool.  Every
    other range gets its own seed: equal token prefixes written by different
    tiers never share a hash, so a tier adopts only blocks its own
    quantizers wrote.  The digest is personalised, so no token block hashes
    to a seed.
    """
    if base == 0:
        return ROOT_HASH
    digest = hashlib.blake2b(digest_size=16, person=b"repro-unit-range")
    digest.update(np.asarray([base, units], dtype=np.int64).tobytes())
    return digest.digest()


def chain_hashes(
    tokens: np.ndarray, block_tokens: int, prev_hash: bytes = ROOT_HASH
) -> list[bytes]:
    """Chain hashes of every full ``block_tokens`` chunk of ``tokens``."""
    require(block_tokens >= 1, "block_tokens must be >= 1")
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    hashes: list[bytes] = []
    for start in range(0, (tokens.size // block_tokens) * block_tokens, block_tokens):
        prev_hash = hash_token_block(prev_hash, tokens[start : start + block_tokens])
        hashes.append(prev_hash)
    return hashes


class BlockPool:
    """Bounded, ref-counted pool of fixed-size quantized KV blocks.

    Block lifecycle::

        free ── allocate ──> private (refcount 1, owner writes once)
                                │ publish(chain_hash, group)
                                v
                             shared (immutable; adopt/incref per sharer)
                                │ refcount reaches 0
                                v
                             cached (contents kept, LRU-evictable)
                    evict ──┘            │ adopt (prefix hit)
        free <──────────────             └──> shared again

    ``unit_ranges`` partitions the units, in order, into ``(base, count)``
    ranges, one per quality tier (default: one range over every unit).  A
    *group* is one block per unit of one range, sealed over the same
    ``block_tokens`` token span; publication, lookup, adoption and eviction
    all operate on groups so the per-unit caches of one sequence can never
    disagree about which spans are shared.

    Blocks are byte rows as wide as the widest unit's code row, so every
    tier allocates from the same blocks.  A block records the unit it was
    written for, and reads reinterpret its bytes under that unit's
    :class:`UnitLayout`.
    """

    def __init__(
        self,
        num_blocks: int,
        block_tokens: int,
        unit_layouts: Sequence[UnitLayout],
        unit_ranges: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        require(num_blocks >= 1, "num_blocks must be >= 1")
        require(block_tokens >= 1, "block_tokens must be >= 1")
        self._unit_layouts = tuple(unit_layouts)
        require(len(self._unit_layouts) >= 1, "a pool needs at least one unit layout")
        self.block_tokens = int(block_tokens)
        self.n_units = len(self._unit_layouts)
        self.unit_ranges = tuple(
            (int(base), int(count))
            for base, count in (unit_ranges or [(0, self.n_units)])
        )
        end = 0
        for base, count in self.unit_ranges:
            require(base == end and count >= 1, "unit ranges must be consecutive")
            end = base + count
        require(
            end == self.n_units,
            f"unit ranges {self.unit_ranges} must partition the {self.n_units} units",
        )
        self._range_units = dict(self.unit_ranges)
        # Blocks per group of the first range (the default tier: one per
        # transformer layer).
        self.n_layers = self.unit_ranges[0][1]
        key_width = max(layout.key_row_nbytes for layout in self._unit_layouts)
        value_width = max(layout.value_row_nbytes for layout in self._unit_layouts)
        self._keys = BlockArena(num_blocks, block_tokens, (key_width,), np.uint8)
        self._values = BlockArena(num_blocks, block_tokens, (value_width,), np.uint8)
        self._unit_of: Dict[int, int] = {}
        self._free: deque[int] = deque(range(num_blocks))
        self._refcounts = [0] * num_blocks
        self._allocated = [False] * num_blocks
        # Published groups: chain hash -> one block id per unit of a range.
        self._groups: Dict[bytes, Tuple[int, ...]] = {}
        self._group_of: Dict[int, bytes] = {}
        # Published groups whose blocks all have refcount 0, oldest first,
        # and the number of blocks they hold.
        self._evictable: "OrderedDict[bytes, None]" = OrderedDict()
        self._evictable_blocks = 0
        # Counters (monotonic; reported by stats()).
        self.allocations = 0
        self.evictions = 0
        self.adoptions = 0
        # K̂/V̂ rows the pool's caches reconstructed, one per token per side
        # per cache: gathered from codes, or taken from a shared run.
        self.reconstructed_rows = {"gathered": 0, "shared": 0}
        # Trace hook: the owning engine points these at its shared recorder
        # and replica track (see BatchedMillionEngine), so evictions and
        # adoptions show up on the replica's timeline.
        self.trace = NULL_RECORDER
        self.trace_track = "pool"

    # Allocation ----------------------------------------------------------

    def allocate_block(self) -> int:
        """Take a free block (evicting cached groups if needed); refcount 1."""
        if not self._free:
            self._evict_one_group()
        block_id = self._free.popleft()
        self._refcounts[block_id] = 1
        self._allocated[block_id] = True
        self.allocations += 1
        return block_id

    def _evict_one_group(self) -> None:
        if not self._evictable:
            raise PoolExhaustedError(
                f"block pool exhausted: all {self.num_blocks} blocks are "
                "referenced and no cached group is evictable"
            )
        chain_hash, _ = self._evictable.popitem(last=False)
        self._evictable_blocks -= len(self._groups[chain_hash])
        for block_id in self._groups.pop(chain_hash):
            del self._group_of[block_id]
            self._reclaim(block_id)
        self.evictions += 1
        if self.trace.enabled:
            self.trace.instant(
                "pool_evict",
                track=self.trace_track,
                args={"evictions": self.evictions, "free": len(self._free)},
            )

    def _reclaim(self, block_id: int) -> None:
        assert self._refcounts[block_id] == 0
        self._allocated[block_id] = False
        self._unit_of.pop(block_id, None)
        self._free.append(block_id)

    def incref(self, block_id: int) -> None:
        self._check_live(block_id)
        self._refcounts[block_id] += 1
        chain_hash = self._group_of.get(block_id)
        if chain_hash is not None:
            self._unmark_evictable(chain_hash)

    def _unmark_evictable(self, chain_hash: bytes) -> None:
        if chain_hash in self._evictable:
            del self._evictable[chain_hash]
            self._evictable_blocks -= len(self._groups[chain_hash])

    def decref(self, block_id: int) -> None:
        """Drop one reference; frees (or caches) the block at refcount 0."""
        self._check_live(block_id)
        require(
            self._refcounts[block_id] > 0,
            f"double free: block {block_id} already has refcount 0",
        )
        self._refcounts[block_id] -= 1
        if self._refcounts[block_id] > 0:
            return
        chain_hash = self._group_of.get(block_id)
        if chain_hash is None:
            # Private block: return it to the free list immediately.
            self._reclaim(block_id)
        elif all(self._refcounts[b] == 0 for b in self._groups[chain_hash]):
            # Published group fully unreferenced: keep the contents around
            # for future prefix hits, evictable in LRU order.
            self._evictable[chain_hash] = None
            self._evictable_blocks += len(self._groups[chain_hash])

    def _check_live(self, block_id: int) -> None:
        require(
            0 <= block_id < self.num_blocks and self._allocated[block_id],
            f"block {block_id} is not allocated",
        )

    # Content -------------------------------------------------------------

    def write_block(
        self,
        block_id: int,
        key_codes: np.ndarray,
        value_codes: np.ndarray,
        unit: int,
    ) -> None:
        """Fill an allocated block with one full span of ``unit``'s code rows.

        The block remembers ``unit``, whose layout its reads reinterpret the
        bytes under.
        """
        self._check_live(block_id)
        require(
            block_id not in self._group_of,
            f"block {block_id} is published (shared blocks are immutable)",
        )
        if not 0 <= unit < self.n_units:
            raise ValidationError(f"unit {unit} is out of range [0, {self.n_units})")
        layout = self._unit_layouts[unit]
        self._write_rows(self._keys, block_id, key_codes, layout.key_dtype,
                         (layout.kv_heads, layout.key_subspaces))
        self._write_rows(self._values, block_id, value_codes, layout.value_dtype,
                         (layout.kv_heads, layout.value_subspaces))
        self._unit_of[block_id] = int(unit)

    def _write_rows(
        self,
        arena: BlockArena,
        block_id: int,
        codes: np.ndarray,
        dtype: np.dtype | type,
        row_shape: tuple[int, int],
    ) -> None:
        codes = np.ascontiguousarray(codes, dtype=dtype)
        if codes.shape != (self.block_tokens, *row_shape):
            raise ValidationError(
                f"code rows must be ({self.block_tokens}, {row_shape[0]}, "
                f"{row_shape[1]}), got {codes.shape}"
            )
        raw = codes.view(np.uint8).reshape(self.block_tokens, -1)
        arena.read(block_id)[:, : raw.shape[1]] = raw

    def _read_rows(
        self,
        arena: BlockArena,
        block_id: int,
        dtype: np.dtype | type,
        row_shape: tuple[int, int],
    ) -> np.ndarray:
        nbytes = row_shape[0] * row_shape[1] * np.dtype(dtype).itemsize
        return (
            arena.read(block_id)[:, :nbytes]
            .view(dtype)
            .reshape(self.block_tokens, *row_shape)
        )

    def _written_layout(self, block_id: int) -> UnitLayout:
        self._check_live(block_id)
        unit = self._unit_of.get(block_id)
        require(unit is not None, f"block {block_id} has not been written")
        return self._unit_layouts[unit]

    def block_unit(self, block_id: int) -> Optional[int]:
        """Unit a block was written for (``None`` until it is written)."""
        self._check_live(block_id)
        return self._unit_of.get(block_id)

    def key_codes(self, block_id: int) -> np.ndarray:
        """``(block_tokens, kv_heads, M)`` view of a block's key codes.

        The stored bytes reinterpreted under the writing unit's layout,
        without a copy.  Contiguous when the unit fills the arena width.
        """
        layout = self._written_layout(block_id)
        return self._read_rows(self._keys, block_id, layout.key_dtype,
                               (layout.kv_heads, layout.key_subspaces))

    def value_codes(self, block_id: int) -> np.ndarray:
        layout = self._written_layout(block_id)
        return self._read_rows(self._values, block_id, layout.value_dtype,
                               (layout.kv_heads, layout.value_subspaces))

    def gather_key_codes(self, block_ids: Sequence[int], unit: int) -> np.ndarray:
        """``(len(block_ids) * block_tokens, kv_heads, M)`` copy of several of
        ``unit``'s blocks' key codes, in order, read in one fancy index.

        Every block must be live and written for ``unit``.
        """
        layout = self._unit_layouts[unit]
        return self._gather_rows(self._keys, block_ids, unit, layout.key_dtype,
                                 (layout.kv_heads, layout.key_subspaces))

    def gather_value_codes(self, block_ids: Sequence[int], unit: int) -> np.ndarray:
        layout = self._unit_layouts[unit]
        return self._gather_rows(self._values, block_ids, unit, layout.value_dtype,
                                 (layout.kv_heads, layout.value_subspaces))

    def _gather_rows(
        self,
        arena: BlockArena,
        block_ids: Sequence[int],
        unit: int,
        dtype: np.dtype | type,
        row_shape: tuple[int, int],
    ) -> np.ndarray:
        # Only live blocks have a unit (reclaiming drops it), so one unit
        # comparison per block checks liveness, writing and the unit.
        units = [self._unit_of.get(block_id) for block_id in block_ids]
        if units.count(unit) != len(units):
            for block_id, written in zip(block_ids, units):
                self._check_live(block_id)
                require(written is not None, f"block {block_id} has not been written")
                require(
                    written == unit,
                    f"block {block_id} holds unit {written}'s codes, not unit {unit}'s",
                )
        nbytes = row_shape[0] * row_shape[1] * np.dtype(dtype).itemsize
        rows = arena.take(np.asarray(block_ids, dtype=np.intp))[:, :, :nbytes]
        return rows.view(dtype).reshape(len(units) * self.block_tokens, *row_shape)

    # Prefix sharing ------------------------------------------------------

    def publish(self, chain_hash: bytes, block_ids: Sequence[int]) -> None:
        """Register a sealed group under its token-chain hash.

        If the hash is already present (a concurrent sequence republished a
        span whose earlier entry was partially evicted), the new group
        replaces the old one: the previous blocks lose their published status
        and are freed once unreferenced.  Contents are identical either way —
        equal chain hashes imply equal token prefixes, and under the engine's
        fixed chunk schedule quantized codes are a deterministic function of
        the prefix.  That is why the engine derives its chunk size from
        configuration once and never from load: chunk boundaries are flush
        boundaries, and flush boundaries determine block content.  A group
        is only *adoptable* by a prefill that passes through the same flush
        state (see ``BatchedMillionEngine._round_hits``); this pool counts
        raw hits.

        The group must hold one written block per unit of one unit range, in
        unit order: the blocks one sequence of that range's tier sealed.
        """
        ids = tuple(int(b) for b in block_ids)
        for block_id in ids:
            self._check_live(block_id)
            require(
                block_id not in self._group_of,
                f"block {block_id} is already published",
            )
        if not self._is_range_group(ids):
            raise ValidationError(
                f"group must hold one written block per unit of one of the "
                f"unit ranges {self.unit_ranges}, in order; got units "
                f"{[self._unit_of.get(block_id) for block_id in ids]}"
            )
        self._unmark_evictable(chain_hash)
        previous = self._groups.pop(chain_hash, None)
        if previous is not None:
            for block_id in previous:
                del self._group_of[block_id]
                if self._refcounts[block_id] == 0:
                    self._reclaim(block_id)
        self._groups[chain_hash] = ids
        for block_id in ids:
            self._group_of[block_id] = chain_hash

    def _is_range_group(self, ids: Sequence[int]) -> bool:
        """True if ``ids`` are allocated blocks written with one unit range's
        consecutive units, in order."""
        units = [self._unit_of.get(block_id) for block_id in ids]
        return (
            len(ids) > 0
            and self._range_units.get(units[0]) == len(ids)
            and units == list(range(units[0], units[0] + len(ids)))
        )

    def lookup(self, chain_hash: bytes) -> Optional[Tuple[int, ...]]:
        """Published group for a chain hash, or ``None`` (no refcount change)."""
        return self._groups.get(chain_hash)

    def group_is_evictable(self, chain_hash: bytes) -> bool:
        """True if the group is cached (published, unreferenced).

        Adopting such a group *consumes* availability — it leaves the
        evictable set — so admission gates must not count it as both a
        prefix hit and reclaimable capacity.
        """
        return chain_hash in self._evictable

    def longest_prefix(self, hashes: Sequence[bytes]) -> int:
        """Number of leading chain hashes with a published group."""
        count = 0
        for chain_hash in hashes:
            if chain_hash not in self._groups:
                break
            count += 1
        return count

    def longest_token_prefix(self, tokens: np.ndarray) -> int:
        """Published leading blocks for a raw token prefix (no refcount change).

        Hashes the same aligned span the engine's prefill protocol would
        force-quantize (``B * floor((P - 1) / B)`` tokens — the final block
        of an exactly block-aligned prompt stays full-precision so the last
        forward produces logits) and counts published groups.  This is the
        read-only probe routers and admission heuristics use to estimate
        prefix reuse before committing a request to this pool.  The hashes
        are the default tier's (seeded with :data:`ROOT_HASH`).
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if tokens.size == 0:
            return 0
        aligned = self.block_tokens * ((tokens.size - 1) // self.block_tokens)
        return self.longest_prefix(chain_hashes(tokens[:aligned], self.block_tokens))

    def adopt(self, chain_hash: bytes) -> Tuple[int, ...]:
        """Take one reference on every block of a published group.

        Returns the per-unit block ids.  Raises ``KeyError`` if the hash is
        not published (callers should gate on :meth:`longest_prefix`).
        """
        ids = self._groups[chain_hash]
        self._unmark_evictable(chain_hash)
        for block_id in ids:
            self._refcounts[block_id] += 1
        self.adoptions += 1
        if self.trace.enabled:
            self.trace.instant(
                "pool_adopt",
                track=self.trace_track,
                args={"adoptions": self.adoptions, "blocks": len(ids)},
            )
        return ids

    # Accounting ----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self._keys.num_blocks

    def unit_key_shape(self, unit: int) -> tuple[int, int]:
        """Per-token key-code row shape ``(kv_heads, M)`` of one unit."""
        layout = self._unit_layouts[unit]
        return (layout.kv_heads, layout.key_subspaces)

    def unit_value_shape(self, unit: int) -> tuple[int, int]:
        layout = self._unit_layouts[unit]
        return (layout.kv_heads, layout.value_subspaces)

    def unit_bytes_per_block(self, unit: int) -> float:
        """Logical bytes of one of ``unit``'s blocks (no pad).

        Equal to :attr:`bytes_per_block` for the widest units; narrower ones
        occupy the full arena width physically, but memory reports charge
        each unit its own code bytes.
        """
        layout = self._unit_layouts[unit]
        return float(
            self.block_tokens * (layout.key_row_nbytes + layout.value_row_nbytes)
        )

    @property
    def free_block_count(self) -> int:
        return len(self._free)

    @property
    def used_block_count(self) -> int:
        """Blocks holding content (referenced or cached for reuse)."""
        return self.num_blocks - len(self._free)

    @property
    def evictable_block_count(self) -> int:
        """Blocks held by cached groups (the sum of their sizes)."""
        return self._evictable_blocks

    @property
    def available_block_count(self) -> int:
        """Blocks an allocation burst could obtain (free + evictable)."""
        return self.free_block_count + self.evictable_block_count

    @property
    def cached_group_count(self) -> int:
        return len(self._groups)

    @property
    def bytes_per_block(self) -> int:
        """Physical bytes of one block (key codes + value codes)."""
        return self._keys.block_nbytes + self._values.block_nbytes

    def refcount(self, block_id: int) -> int:
        require(0 <= block_id < self.num_blocks, f"block {block_id} out of range")
        return self._refcounts[block_id]

    def can_allocate(self, n_blocks: int) -> bool:
        return self.available_block_count >= n_blocks

    def memory_bytes(self) -> float:
        """Bytes of all blocks currently holding content (shared counted once)."""
        return float(self.used_block_count * self.bytes_per_block)

    def utilization(self) -> float:
        return self.used_block_count / self.num_blocks

    def pressure(self) -> float:
        """Fraction of the pool an allocation burst could *not* obtain.

        ``1 - available/total`` in [0, 1]: 0.0 when every block is free or
        evictable, 1.0 when every block is pinned by a running sequence.
        Unlike :meth:`utilization`, blocks held only by the reuse cache do
        not count — they are reclaimable on demand, so they exert no
        admission pressure.  This is the signal the gateway exports as
        ``repro_pool_pressure`` and the SLO admission docs key their
        preemption-churn runbook on.
        """
        return 1.0 - self.available_block_count / self.num_blocks

    def stats(self) -> dict:
        """Snapshot of pool occupancy and lifetime counters."""
        return {
            "num_blocks": self.num_blocks,
            "block_tokens": self.block_tokens,
            "n_layers": self.n_layers,
            "free_blocks": self.free_block_count,
            "used_blocks": self.used_block_count,
            "evictable_blocks": self.evictable_block_count,
            "cached_groups": self.cached_group_count,
            "utilization": self.utilization(),
            "pressure": self.pressure(),
            "bytes_per_block": self.bytes_per_block,
            "memory_bytes": self.memory_bytes(),
            "allocations": self.allocations,
            "evictions": self.evictions,
            "adoptions": self.adoptions,
            "reconstructed_rows": dict(self.reconstructed_rows),
        }

    def check_invariants(self) -> None:
        """Assert that the pool's bookkeeping is consistent (a test helper).

        Free and allocated blocks partition the pool; free blocks hold no
        reference, unit or group, and private allocated blocks hold at least
        one reference.  Every published group is allocated blocks written
        with one unit range's consecutive units.  The evictable set is
        exactly the published groups whose refcounts are all 0, and
        :attr:`evictable_block_count` is the sum of their sizes.
        """
        free = set(self._free)
        assert len(free) == len(self._free), "the free list holds a block twice"
        for block_id in range(self.num_blocks):
            refs = self._refcounts[block_id]
            assert self._allocated[block_id] != (block_id in free), block_id
            if block_id in free:
                assert refs == 0 and block_id not in self._unit_of, block_id
            elif block_id not in self._group_of:
                assert refs >= 1, f"private block {block_id} has no reference"
        for chain_hash, ids in self._groups.items():
            assert self._is_range_group(ids), f"group {chain_hash.hex()} is malformed"
            assert all(self._group_of[b] == chain_hash for b in ids), chain_hash.hex()
            idle = all(self._refcounts[b] == 0 for b in ids)
            assert idle == (chain_hash in self._evictable), chain_hash.hex()
        assert len(self._group_of) == sum(len(ids) for ids in self._groups.values())
        assert self._evictable_blocks == sum(
            len(self._groups[h]) for h in self._evictable
        ), "evictable_block_count is not the evictable groups' size sum"


class PooledMillionKVCacheLayer(MillionKVCacheLayer):
    """MILLION cache layer whose quantized code rows live in pool blocks.

    ``flush_block_multiple = block_tokens`` forces every flush onto block
    boundaries, so each flushed span fills whole blocks and sealed blocks are
    always full.  The pool blocks are the authoritative, ref-counted copy of
    the codes that admission and preemption account against.  Beside them
    the layer keeps exactly one contiguous *shadow* per side, so attention
    reconstructs from a zero-copy view with amortized O(1) upkeep per decode
    step: the codes' flat gather index when it fits in 2 bytes per code,
    otherwise the codes themselves.  The shadow models the GPU-side gather
    buffer and is excluded from the quantized footprint, like the working
    buffers of ``DequantizingKVCache``.  :meth:`_stored_key_codes` and
    :meth:`_stored_value_codes` read the codes back from the pool blocks
    through the block table.

    Sequences that adopted the same published blocks hold equal leading
    block ids, so their leading K̂/V̂ rows are bit-equal.  Within a layer of
    a traversal, :func:`shared_prefix_runs` reconstructs such a run once
    (:meth:`reconstruct_run`) and hands it to every holder as its
    :attr:`shared_run`: each gathers only its own rows, after the run.
    Every row reconstructed is counted in the pool's
    ``reconstructed_rows``: ``gathered`` from the shadow, or ``shared``
    (taken from a run).

    The layer itself never touches the prefix-hash table: hashes are a
    function of *token ids*, which only the engine sees.  The engine adopts
    shared groups via :meth:`adopt_shared_blocks` and publishes the blocks
    drained from :meth:`drain_new_blocks`.
    """

    def __init__(
        self,
        config: ModelConfig,
        key_pq: ProductQuantizer,
        value_pq: ProductQuantizer,
        million_config: MillionConfig,
        pool: BlockPool,
        layer_index: int,
    ) -> None:
        require(
            million_config.outlier_fraction == 0.0,
            "pooled MILLION caches do not support sparse outlier corrections "
            "(they are per-sequence state that cannot be shared by prefix)",
        )
        require(0 <= layer_index < pool.n_units, "layer_index out of pool range")
        require(
            pool.unit_key_shape(layer_index)
            == (config.kv_heads, key_pq.m_subspaces),
            f"pool unit {layer_index} key shape {pool.unit_key_shape(layer_index)} "
            f"does not match (kv_heads={config.kv_heads}, M={key_pq.m_subspaces})",
        )
        require(
            pool.unit_value_shape(layer_index)
            == (config.kv_heads, value_pq.m_subspaces),
            f"pool unit {layer_index} value shape {pool.unit_value_shape(layer_index)} "
            f"does not match (kv_heads={config.kv_heads}, M={value_pq.m_subspaces})",
        )
        super().__init__(
            config,
            key_pq,
            value_pq,
            million_config,
            flush_block_multiple=pool.block_tokens,
        )
        self.pool = pool
        self.layer_index = layer_index
        self._block_table: list[int] = []
        # Sealed-but-unpublished blocks, drained by the engine after each
        # forward so it can register them under their token-chain hashes.
        self._new_blocks: list[int] = []

    _CODES_BESIDE_INDEX = False

    # Storage hooks ---------------------------------------------------------

    def _store_code_rows(self, key_codes: np.ndarray, value_codes: np.ndarray) -> None:
        super()._store_code_rows(key_codes, value_codes)  # contiguous shadow
        block = self.pool.block_tokens
        assert key_codes.shape[0] % block == 0, "flush must be block-aligned"
        for start in range(0, key_codes.shape[0], block):
            block_id = self.pool.allocate_block()
            self.pool.write_block(
                block_id,
                key_codes[start : start + block],
                value_codes[start : start + block],
                unit=self.layer_index,
            )
            self._block_table.append(block_id)
            self._new_blocks.append(block_id)

    def _stored_key_codes(self) -> np.ndarray:
        return self._pool_code_rows(self.pool.key_codes, self.key_pq)

    def _stored_value_codes(self) -> np.ndarray:
        return self._pool_code_rows(self.pool.value_codes, self.value_pq)

    def _pool_code_rows(self, read, quantizer: ProductQuantizer) -> np.ndarray:
        """The ``(stored, kv_heads, M)`` code rows of the block table's blocks."""
        empty = np.empty(
            (0, self.config.kv_heads, quantizer.m_subspaces), code_dtype(quantizer.nbits)
        )
        return np.concatenate([empty, *(read(block_id) for block_id in self._block_table)])

    def _reconstruct(self, codes, rows, quantizer, corrections, buffer):
        decoded = super()._reconstruct(codes, rows, quantizer, corrections, buffer)
        counts = self.pool.reconstructed_rows
        counts["shared"] += self.shared_run.tokens
        counts["gathered"] += decoded.shape[0] - self.shared_run.tokens
        return decoded

    def reconstruct_run(self, tokens: int, capacity: int) -> ReconstructedRun:
        """K̂/V̂ of the first ``tokens`` stored rows, gathered into buffers of
        ``capacity`` rows, for the caches that hold the same leading blocks
        (:func:`shared_prefix_runs`)."""
        shape = (capacity, self.config.kv_heads, self.config.head_dim)
        run = ReconstructedRun(
            np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.float32), tokens
        )
        for codes, rows, quantizer, buffer in (
            (self._key_codes, self._key_rows, self.key_pq, run.keys),
            (self._value_codes, self._value_rows, self.value_pq, run.values),
        ):
            stored = (codes if rows is None else rows).view()[:tokens]
            decode_rows(stored, quantizer, buffer[:tokens], from_codes=rows is None)
        self.pool.reconstructed_rows["gathered"] += 2 * tokens
        return run

    def adopt_shared_blocks(self, block_ids: Sequence[int]) -> None:
        """Extend this cache with already-quantized shared blocks.

        The caller must have taken the references (via
        :meth:`BlockPool.adopt`); this extends the layer's shadow with the
        blocks' rows, read per side in one batched pool read
        (:meth:`BlockPool.gather_key_codes`), and accounts for the adopted
        tokens.  Only legal at a block boundary with no pending
        full-precision tokens (i.e. during prefill).
        """
        require(
            self.pending_tokens == 0
            and self.stored_tokens % self.pool.block_tokens == 0,
            "shared blocks can only be adopted at a clean block boundary",
        )
        block_ids = [int(block_id) for block_id in block_ids]
        # One side at a time: one batched pool read, one flat index and one
        # shadow append each, and one side's codes alive at once.
        for gather, store, rows, quantizer in (
            (self.pool.gather_key_codes, self._key_codes, self._key_rows, self.key_pq),
            (self.pool.gather_value_codes, self._value_codes, self._value_rows,
             self.value_pq),
        ):
            self._append_side(gather(block_ids, self.layer_index), store, rows, quantizer)
        self._block_table.extend(block_ids)
        self._absorb_stored_tokens(len(block_ids) * self.pool.block_tokens)

    def drain_new_blocks(self) -> list[int]:
        """Sealed blocks since the last drain (for the engine to publish)."""
        drained = self._new_blocks
        self._new_blocks = []
        return drained

    def flushable_blocks(self) -> int:
        """Pool blocks the next decode step's flush will allocate."""
        return self.flushable_rows() // self.pool.block_tokens

    @property
    def block_table(self) -> list[int]:
        """Pool block ids backing this cache's stored tokens, in order."""
        return list(self._block_table)

    def release_blocks(self) -> None:
        """Return every referenced block to the pool (idempotent)."""
        for block_id in self._block_table:
            self.pool.decref(block_id)
        self._block_table.clear()
        self._new_blocks.clear()

    def reset(self) -> None:
        self.release_blocks()
        super().reset()

    # Memory accounting -----------------------------------------------------

    def quantized_memory_bytes(self) -> float:
        """This sequence's *fair share* of its pool blocks.

        A block referenced by ``r`` sequences contributes ``1/r`` of its
        bytes, so summing over all running sequences yields exactly the
        unique bytes of the referenced blocks — shared prefixes are paid
        once in aggregate accounting.  Codebooks are deliberately excluded:
        they belong to the calibrated factory shared by every sequence, not
        to per-sequence cache state (the single-sequence
        ``MillionKVCacheLayer`` includes them because there the cache *is*
        the only consumer of its quantizers).
        """
        bytes_per_block = self.pool.unit_bytes_per_block(self.layer_index)
        total = 0.0
        for block_id in self._block_table:
            total += bytes_per_block / self.pool.refcount(block_id)
        return float(total)


def pooled_units(caches: Sequence[KVCacheLayer]) -> list[KVCacheLayer]:
    """``caches`` with every head-group composite replaced by its sub-caches.

    For one context's per-layer caches this is its pool-backed caches in
    *unit order* (layer-major, head groups ascending), matching the unit
    order of its tier in the pool.
    """
    units: list[KVCacheLayer] = []
    for cache in caches:
        if isinstance(cache, HeadGroupKVCache):
            units.extend(cache.sub_caches)
        else:
            units.append(cache)
    return units


def _common_blocks(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the leading run two block tables share."""
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length


class _HeldRuns:
    """Gives every cache its previous run back on exit (see
    :func:`shared_prefix_runs`)."""

    def __init__(self, held: list[tuple[PooledMillionKVCacheLayer, ReconstructedRun]]):
        self.held = held

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        for cache, previous in self.held:
            cache.shared_run = previous


def shared_prefix_runs(
    caches: Sequence[KVCacheLayer], appends: Sequence[Tuple[int, bool]]
) -> AbstractContextManager:
    """Reconstruct each leading block run that several of ``caches`` hold, once.

    Used as ``with shared_prefix_runs(caches, appends):`` around all of one
    layer's appends and attends in one traversal; the call itself finds and
    builds the runs.  ``caches`` are the layer's caches in append order,
    before their appends, one entry per append (a cache may be listed
    several times); ``appends`` holds each entry's ``(rows, seal)``
    (:meth:`~repro.quant.cache_adapters.StreamingQuantizedKVCache.attended_rows`).
    Head-group composites contribute their pooled sub-caches.  Pooled
    caches over one pool unit and one pair of quantizers are compared by
    block table: equal leading block ids are the same blocks, adopted from
    one published prefix, so their K̂/V̂ rows are bit-equal in every holder.  Appends and seals only
    extend a block table with private blocks, so the runs found before the
    layer's appends hold after them.  A cache's run is the longest leading
    run it shares with another (its neighbours in block-table order); each
    run at least two caches hold is reconstructed once, into buffers sized
    for every holder's largest attend, and becomes their
    :attr:`~repro.core.million_cache.MillionKVCacheLayer.shared_run`.  The
    holders attend one at a time, each gathering only its own rows into the
    buffers after the run.  On exit — once the layer's last holder has
    attended — every cache gets its previous run back and the runs are
    dropped.  A cache that shares nothing keeps its zero-length run.
    """
    if len(caches) < 2:
        return _NO_RUNS  # one sequence's units never hold each other's blocks
    planned: Dict[int, tuple[PooledMillionKVCacheLayer, list]] = {}
    for entry, append in zip(caches, appends):
        for cache in pooled_units([entry]):
            if isinstance(cache, PooledMillionKVCacheLayer) and cache._block_table:
                planned.setdefault(id(cache), (cache, []))[1].append(append)
    by_unit: Dict[tuple, list[PooledMillionKVCacheLayer]] = {}
    for cache, _ in planned.values():
        key = (id(cache.pool), cache.layer_index, id(cache.key_pq), id(cache.value_pq))
        by_unit.setdefault(key, []).append(cache)
    held: list[tuple[PooledMillionKVCacheLayer, ReconstructedRun]] = []
    for holders in by_unit.values():
        if len(holders) < 2:
            continue
        holders.sort(key=lambda cache: cache._block_table)
        common = [0, *(
            _common_blocks(a._block_table, b._block_table)
            for a, b in zip(holders, holders[1:])
        ), 0]
        runs: Dict[tuple, list[PooledMillionKVCacheLayer]] = {}
        for i, cache in enumerate(holders):
            length = max(common[i], common[i + 1])
            runs.setdefault(tuple(cache._block_table[:length]), []).append(cache)
        for blocks, members in runs.items():
            if not blocks or len(members) < 2:
                continue
            capacity = max(
                cache.attended_rows(planned[id(cache)][1]) for cache in members
            )
            run = members[0].reconstruct_run(
                len(blocks) * members[0].pool.block_tokens, capacity
            )
            for cache in members:
                held.append((cache, cache.shared_run))
                cache.shared_run = run
    return _HeldRuns(held) if held else _NO_RUNS


_NO_RUNS = nullcontext()


@dataclass(frozen=True)
class PoolTier:
    """One quality tier's units in a replica's pool.

    ``base`` is the tier's first pool unit and ``units`` its group size (one
    unit per (layer, head group), layer-major, groups in
    :meth:`QuantPolicy.head_groups` order); ``layer_base`` holds each
    layer's first unit.  ``root_hash`` seeds the tier's chain hashes
    (:func:`unit_range_root`).
    """

    policy: "QuantPolicy"
    base: int
    units: int
    layer_base: Tuple[int, ...]
    root_hash: bytes


class PooledPolicyCacheFactory:
    """A replica's one cache factory: every quality tier over one pool.

    Each tier is a :class:`~repro.quant.policy.QuantPolicy` — per-head
    precision as data — over the calibrated ``MillionCacheFactory`` of each
    bit width it uses (``million_factories``, keyed by bits).  The default
    tier is ``policy``, or the uniform policy of the single calibrated bit
    width; ``tiers`` maps request tier names to their policies.  Every head
    group of every layer of a tier becomes one pool unit; the pool's units
    are the distinct tiers' layouts concatenated, default first, and the
    one :class:`BlockPool` of ``num_blocks`` blocks this factory builds and
    owns serves them all, so capacity moves freely between tiers.

    A tier whose policy equals an earlier one's (a ``"balanced"`` alias of
    the default, say) shares its units, chain-hash seed and published
    blocks.  The default tier's units start at 0, so its hashes and blocks
    are exactly those of an untiered pool; every other tier seeds its chain
    hashes with its unit range and adopts only blocks its own quantizers
    wrote.

    Single-group layers get a plain :class:`PooledMillionKVCacheLayer` over
    the full layer config; multi-group layers compose per-group pooled
    caches under a :class:`~repro.quant.policy_cache.HeadGroupKVCache`.
    Only MILLION heads can be pooled: prefix sharing requires the quantized
    representation to be a deterministic, block-sized function of the token
    prefix, which fp16/KIVI/KVQuant heads (per-sequence scales or no
    block-aligned codes) do not offer.  Mixed schemes stay available on the
    single-request path through
    :class:`~repro.quant.policy_cache.PolicyCacheFactory`.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        million_factories: dict,
        *,
        num_blocks: int,
        block_tokens: int,
        policy=None,
        tiers: Optional[dict] = None,
    ) -> None:
        from repro.quant.policy import QuantPolicy

        self.model_config = model_config
        self.million_factories = dict(million_factories)
        if policy is None:
            require(
                len(self.million_factories) == 1,
                "pass the default tier's policy when factories of several "
                "bit widths are given",
            )
            (bits,) = self.million_factories
            policy = QuantPolicy.uniform(model_config, "million", bits)
        layouts: list[UnitLayout] = []
        self._tiers: Dict[Optional[str], PoolTier] = {}
        for name, tier_policy in ((None, policy), *(tiers or {}).items()):
            require(
                name is None or (isinstance(name, str) and name != ""),
                "tier names must be non-empty strings",
            )
            tier = next(
                (t for t in self._tiers.values() if t.policy == tier_policy), None
            )
            self._tiers[name] = tier or self._lay_out(name, tier_policy, layouts)
        distinct = list({t.base: t for t in self._tiers.values()}.values())
        windows = {
            self.million_factories[a.bits].million_config.recent_window
            for t in distinct
            for a in t.policy.distinct_assignments()
        }
        require(
            len(windows) == 1,
            "all tier factories of one pool must share one recent_window; "
            f"got {sorted(windows)}",
        )
        #: Full-precision residual window of every cache of every tier.
        self.recent_window = windows.pop()
        self.pool = BlockPool(
            num_blocks, block_tokens, layouts, [(t.base, t.units) for t in distinct]
        )
        #: The default tier's per-layer quantizers.
        self.quantizers = self.million_factories[policy.assignment(0, 0).bits].quantizers

    def _lay_out(self, name, policy, layouts: list[UnitLayout]) -> PoolTier:
        """Append tier ``name``'s units to ``layouts``; its :class:`PoolTier`."""
        from repro.quant.policy import million_variant

        policy.validate_for_model(self.model_config)
        require(
            policy.schemes_used() == {"million"},
            f"tier {name or 'default'!r}: pooled serving only supports "
            f"all-MILLION policies; got {sorted(policy.schemes_used())}",
        )
        for assignment in policy.distinct_assignments():
            require(
                assignment.bits in self.million_factories,
                f"policy uses million-{assignment.bits} but no calibrated "
                "factory was provided for that bit budget",
            )
            config = self.million_factories[assignment.bits].million_config
            require(
                config.outlier_fraction == 0.0,
                "pooled serving requires outlier_fraction == 0.0",
            )
            expected = million_variant(self.model_config.head_dim, assignment.bits)
            require(
                (config.m_subspaces, config.nbits) == (expected.m_subspaces, expected.nbits),
                f"factory for million-{assignment.bits} has (M={config.m_subspaces}, "
                f"nbits={config.nbits}) but the policy's byte model assumes "
                f"(M={expected.m_subspaces}, nbits={expected.nbits})",
            )
        base = len(layouts)
        layer_base = []
        for layer in range(policy.n_layers):
            layer_base.append(len(layouts))
            for assignment, heads in policy.head_groups(layer):
                config = self.million_factories[assignment.bits].million_config
                dtype = code_dtype(config.nbits)
                layouts.append(
                    UnitLayout(len(heads), config.m_subspaces, config.m_subspaces, dtype, dtype)
                )
        units = len(layouts) - base
        return PoolTier(policy, base, units, tuple(layer_base), unit_range_root(base, units))

    @property
    def tier_names(self) -> tuple[str, ...]:
        """Names a request's ``tier`` may carry (the default tier is ``None``)."""
        return tuple(name for name in self._tiers if name is not None)

    def tier(self, name: Optional[str] = None) -> PoolTier:
        """The units of tier ``name`` (``None``: the default tier)."""
        return self._tiers[name]

    def _pooled_cache(
        self, layer_index: int, unit: int, bits: int, config: ModelConfig
    ) -> PooledMillionKVCacheLayer:
        factory = self.million_factories[bits]
        key_pq, value_pq = factory.quantizers[layer_index]
        return PooledMillionKVCacheLayer(
            config, key_pq, value_pq, factory.million_config, self.pool, unit
        )

    def create(self, layer_index: int, config: ModelConfig, tier: Optional[str] = None):
        """Layer ``layer_index``'s cache under tier ``tier``'s policy."""
        pool_tier = self._tiers[tier]
        groups = pool_tier.policy.head_groups(layer_index)
        unit = pool_tier.layer_base[layer_index]
        if len(groups) == 1:
            return self._pooled_cache(layer_index, unit, groups[0][0].bits, config)
        sub_caches = []
        for offset, (assignment, heads) in enumerate(groups):
            sub_config = head_subset_config(config, len(heads))
            sub_caches.append(
                (
                    heads,
                    self._pooled_cache(
                        layer_index, unit + offset, assignment.bits, sub_config
                    ),
                )
            )
        return HeadGroupKVCache(config, sub_caches)

    def bytes_per_token(self, tier: Optional[str] = None) -> float:
        """Modelled steady-state KV bytes per token under ``tier``'s policy."""
        return self._tiers[tier].policy.bytes_per_token()


__all__ = [
    "ROOT_HASH",
    "BlockPool",
    "PoolExhaustedError",
    "PooledMillionKVCacheLayer",
    "PoolTier",
    "PooledPolicyCacheFactory",
    "UnitLayout",
    "chain_hashes",
    "hash_token_block",
    "pooled_units",
    "shared_prefix_runs",
    "unit_range_root",
]
