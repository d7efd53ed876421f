"""Paged KV block pool: bounded memory, prefix sharing, preemption support.

This module is the serving layer's memory manager — the host-side analogue of
vLLM's paged KV allocator, specialised to MILLION's PQ-compressed cache:

* :class:`BlockPool` owns a bounded budget of fixed-size KV blocks.  A block
  holds ``block_tokens`` quantized code rows (keys + values) for **one**
  layer; one logical *group* of ``n_layers`` blocks stores a block-aligned
  span of a sequence across every layer.  Blocks are ref-counted; sealed
  groups are published under a content hash of the token prefix they encode,
  so identical prompt prefixes across requests resolve to the *same* blocks
  (copy-on-write sharing: sealed blocks are immutable, divergence after a
  shared prefix writes to freshly allocated private blocks).
* :class:`PooledMillionKVCacheLayer` is the MILLION cache whose quantized
  code rows live in pool blocks instead of private storage.  Flushes are
  forced onto ``block_tokens`` boundaries, so every sealed block is full and
  the MILLION flush block maps 1:1 onto a pool block.  The same forced
  alignment is what defines the engine's chunked-prefill boundaries: a
  chunk of ``k·block_tokens`` tokens ends in ``flush_all()``, sealing and
  publishing whole groups, so a prefill paused at any chunk boundary is in
  exactly the state its cold run passes through there.
* :class:`PooledMillionCacheFactory` wires calibrated per-layer quantizers to
  one shared pool and plugs into
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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MillionConfig
from repro.core.million_cache import MillionKVCacheLayer
from repro.core.pq import ProductQuantizer
from repro.core.storage import BlockArena
from repro.models.config import ModelConfig
from repro.obs.trace import NULL_RECORDER
from repro.utils.bitpack import code_dtype
from repro.utils.validation import ValidationError, require


class PoolExhaustedError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after eviction."""


@dataclass(frozen=True)
class UnitLayout:
    """Code-row layout of one pool unit (a (layer, head-group) slot).

    A pool lists one layout per unit.  :meth:`BlockPool.for_model` repeats
    one layout for every layer; policy pools give heads quantized at
    different bit-widths their own, so differently-shaped code rows share
    one pool.
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

    A *group* is one block per unit sealed over the same ``block_tokens``
    token span; publication, lookup, adoption and eviction all operate on
    groups so the per-unit caches of one sequence can never disagree about
    which spans are shared.

    Blocks are byte rows as wide as the widest unit's code row.  A block
    records the unit it was written for, and reads reinterpret its bytes
    under that unit's :class:`UnitLayout`.
    """

    def __init__(
        self,
        num_blocks: int,
        block_tokens: int,
        unit_layouts: Sequence[UnitLayout],
    ) -> None:
        require(num_blocks >= 1, "num_blocks must be >= 1")
        require(block_tokens >= 1, "block_tokens must be >= 1")
        self._unit_layouts = tuple(unit_layouts)
        require(len(self._unit_layouts) >= 1, "a pool needs at least one unit layout")
        self.block_tokens = int(block_tokens)
        # Units per group: one per transformer layer, or one per (layer,
        # head-group) in a policy pool.
        self.n_layers = len(self._unit_layouts)
        key_width = max(layout.key_row_nbytes for layout in self._unit_layouts)
        value_width = max(layout.value_row_nbytes for layout in self._unit_layouts)
        self._keys = BlockArena(num_blocks, block_tokens, (key_width,), np.uint8)
        self._values = BlockArena(num_blocks, block_tokens, (value_width,), np.uint8)
        self._unit_of: Dict[int, int] = {}
        self._free: deque[int] = deque(range(num_blocks))
        self._refcounts = [0] * num_blocks
        self._allocated = [False] * num_blocks
        # Published groups: chain hash -> one block id per layer.
        self._groups: Dict[bytes, Tuple[int, ...]] = {}
        self._group_of: Dict[int, bytes] = {}
        # Published groups whose blocks all have refcount 0, oldest first.
        self._evictable: "OrderedDict[bytes, None]" = OrderedDict()
        # Counters (monotonic; reported by stats()).
        self.allocations = 0
        self.evictions = 0
        self.adoptions = 0
        # Trace hook: the owning engine points these at its shared recorder
        # and replica track (see BatchedMillionEngine), so evictions and
        # adoptions show up on the replica's timeline.
        self.trace = NULL_RECORDER
        self.trace_track = "pool"

    @classmethod
    def for_model(
        cls,
        model_config: ModelConfig,
        million_config: MillionConfig,
        num_blocks: int,
        block_tokens: int,
    ) -> "BlockPool":
        """Size a pool for a model + MILLION configuration pair.

        One unit per layer, every unit with the same layout.
        """
        dtype = code_dtype(million_config.nbits)
        layout = UnitLayout(
            kv_heads=model_config.kv_heads,
            key_subspaces=million_config.m_subspaces,
            value_subspaces=million_config.m_subspaces,
            key_dtype=dtype,
            value_dtype=dtype,
        )
        return cls(num_blocks, block_tokens, [layout] * model_config.n_layers)

    @classmethod
    def for_policy(
        cls,
        model_config: ModelConfig,
        policy,
        num_blocks: int,
        block_tokens: int,
    ) -> "BlockPool":
        """Size a pool for a mixed-precision all-MILLION policy.

        One unit per (layer, head-group), in layer-major order with groups
        ordered as :meth:`QuantPolicy.head_groups` yields them — the same
        deterministic order :class:`PooledPolicyCacheFactory` assigns unit
        indices in.  A uniform policy yields the same layouts as
        :meth:`for_model`.
        """
        from repro.quant.policy import million_variant

        policy.validate_for_model(model_config)
        layouts: list[UnitLayout] = []
        for layer in range(policy.n_layers):
            for assignment, heads in policy.head_groups(layer):
                require(
                    assignment.scheme == "million",
                    "pooled serving only supports all-MILLION policies "
                    f"(layer {layer} assigns {assignment.scheme!r}); other "
                    "schemes lack a block-sized shared-code representation",
                )
                variant = million_variant(model_config.head_dim, assignment.bits)
                dtype = code_dtype(variant.nbits)
                layouts.append(
                    UnitLayout(
                        kv_heads=len(heads),
                        key_subspaces=variant.m_subspaces,
                        value_subspaces=variant.m_subspaces,
                        key_dtype=dtype,
                        value_dtype=dtype,
                    )
                )
        return cls(num_blocks, block_tokens, layouts)

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
        if not 0 <= unit < self.n_layers:
            raise ValidationError(f"unit {unit} is out of range [0, {self.n_layers})")
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
        """
        ids = tuple(int(b) for b in block_ids)
        require(
            len(ids) == self.n_layers,
            f"group must have one block per layer ({self.n_layers}), got {len(ids)}",
        )
        for block_id in ids:
            self._check_live(block_id)
            require(
                block_id not in self._group_of,
                f"block {block_id} is already published",
            )
        previous = self._groups.pop(chain_hash, None)
        if previous is not None:
            self._evictable.pop(chain_hash, None)
            for block_id in previous:
                del self._group_of[block_id]
                if self._refcounts[block_id] == 0:
                    self._reclaim(block_id)
        self._groups[chain_hash] = ids
        for block_id in ids:
            self._group_of[block_id] = chain_hash

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
        prefix reuse before committing a request to this pool.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if tokens.size == 0:
            return 0
        aligned = self.block_tokens * ((tokens.size - 1) // self.block_tokens)
        return self.longest_prefix(chain_hashes(tokens[:aligned], self.block_tokens))

    def adopt(self, chain_hash: bytes) -> Tuple[int, ...]:
        """Take one reference on every block of a published group.

        Returns the per-layer block ids.  Raises ``KeyError`` if the hash is
        not published (callers should gate on :meth:`longest_prefix`).
        """
        ids = self._groups[chain_hash]
        self._evictable.pop(chain_hash, None)
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

    @property
    def n_units(self) -> int:
        """Blocks per sealed group — alias of ``n_layers`` (see ``__init__``)."""
        return self.n_layers

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
        return len(self._evictable) * self.n_layers

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
        }


class PooledMillionKVCacheLayer(MillionKVCacheLayer):
    """MILLION cache layer whose quantized code rows live in pool blocks.

    ``flush_block_multiple = block_tokens`` forces every flush onto block
    boundaries, so each flushed span fills whole blocks and sealed blocks are
    always full.  The layer keeps a contiguous *shadow* of its logical code
    sequence (the inherited :class:`~repro.core.storage.CodeStore` pairs of
    codes and their flat gather indices) so attention reconstructs from
    zero-copy views with amortized O(1) upkeep per decode step; the pool
    blocks are the authoritative, ref-counted storage that admission and
    preemption account against, and the shadow models the GPU-side gather
    buffer (it is excluded from the quantized footprint, like
    the working buffers of ``DequantizingKVCache``).

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
        require(0 <= layer_index < pool.n_layers, "layer_index out of pool range")
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

    def adopt_shared_blocks(self, block_ids: Sequence[int]) -> None:
        """Extend this cache with already-quantized shared blocks.

        The caller must have taken the references (via
        :meth:`BlockPool.adopt`); this installs the code rows in the shadow
        and accounts for the adopted tokens.  Only legal at a block boundary
        with no pending full-precision tokens (i.e. during prefill).
        """
        require(
            self.pending_tokens == 0
            and self.stored_tokens % self.pool.block_tokens == 0,
            "shared blocks can only be adopted at a clean block boundary",
        )
        for block_id in block_ids:
            self._append_codes(
                self.pool.key_codes(block_id), self.pool.value_codes(block_id)
            )
            self._block_table.append(int(block_id))
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


class PooledMillionCacheFactory:
    """Creates pool-backed :class:`PooledMillionKVCacheLayer` instances.

    A drop-in replacement for :class:`~repro.core.million_cache.MillionCacheFactory`
    whose caches allocate quantized storage from one shared :class:`BlockPool`
    — the form :class:`~repro.serving.engine.BatchedMillionEngine` requires.
    The pool is what gives the engine prefix caching, memory-aware admission
    and preemption.
    """

    def __init__(
        self,
        quantizers: dict[int, tuple[ProductQuantizer, ProductQuantizer]],
        million_config: MillionConfig,
        pool: BlockPool,
    ) -> None:
        require(len(quantizers) > 0, "quantizers mapping must not be empty")
        require(
            million_config.outlier_fraction == 0.0,
            "pooled serving requires outlier_fraction == 0.0",
        )
        self.quantizers = dict(quantizers)
        self.million_config = million_config
        self.pool = pool

    @classmethod
    def from_factory(cls, factory, pool: BlockPool) -> "PooledMillionCacheFactory":
        """Wrap an already-calibrated ``MillionCacheFactory`` around a pool."""
        return cls(factory.quantizers, factory.million_config, pool)

    def create(self, layer_index: int, config: ModelConfig) -> PooledMillionKVCacheLayer:
        if layer_index not in self.quantizers:
            raise KeyError(f"no trained MILLION quantizers for layer {layer_index}")
        key_pq, value_pq = self.quantizers[layer_index]
        return PooledMillionKVCacheLayer(
            config, key_pq, value_pq, self.million_config, self.pool, layer_index
        )

    def bits_per_value(self, head_dim: int) -> float:
        """Effective bits per cached scalar for reporting."""
        return self.million_config.bits_per_value(head_dim)

    @property
    def recent_window(self) -> int:
        """Full-precision residual window of every cache this factory builds."""
        return self.million_config.recent_window


class PooledPolicyCacheFactory:
    """Pool-backed caches for a mixed-precision all-MILLION policy.

    The policy analogue of :class:`PooledMillionCacheFactory`: every head
    group of every layer becomes one pool *unit* (indexed layer-major, groups
    in :meth:`QuantPolicy.head_groups` order — the exact order
    :meth:`BlockPool.for_policy` laid the units out in).  Single-group layers
    get a plain :class:`PooledMillionKVCacheLayer` over the full layer config;
    multi-group layers compose per-group pooled caches under a
    :class:`~repro.quant.policy_cache.HeadGroupKVCache`, so heads at
    different bit-widths share one ref-counted pool and one prefix-hash
    table.  A uniform policy collapses to exactly today's pooled path.

    Only MILLION heads can be pooled: prefix sharing requires the quantized
    representation to be a deterministic, block-sized function of the token
    prefix, which fp16/KIVI/KVQuant heads (per-sequence scales or no
    block-aligned codes) do not offer.  Mixed schemes stay available on the
    single-request path through
    :class:`~repro.quant.policy_cache.PolicyCacheFactory`.
    """

    def __init__(
        self,
        policy,
        model_config: ModelConfig,
        million_factories: dict,
        pool: BlockPool,
    ) -> None:
        from repro.quant.policy import million_variant

        policy.validate_for_model(model_config)
        require(
            policy.schemes_used() == {"million"},
            "pooled serving only supports all-MILLION policies; got "
            f"{sorted(policy.schemes_used())}",
        )
        self.policy = policy
        self.model_config = model_config
        self.million_factories = dict(million_factories)
        self.pool = pool
        windows = set()
        for assignment in policy.distinct_assignments():
            require(
                assignment.bits in self.million_factories,
                f"policy uses million-{assignment.bits} but no calibrated "
                "factory was provided for that bit budget",
            )
            factory = self.million_factories[assignment.bits]
            require(
                factory.million_config.outlier_fraction == 0.0,
                "pooled serving requires outlier_fraction == 0.0",
            )
            expected = million_variant(model_config.head_dim, assignment.bits)
            require(
                (factory.million_config.m_subspaces, factory.million_config.nbits)
                == (expected.m_subspaces, expected.nbits),
                f"factory for million-{assignment.bits} has (M={factory.million_config.m_subspaces}, "
                f"nbits={factory.million_config.nbits}) but the policy's byte model and the "
                f"pool layout assume (M={expected.m_subspaces}, nbits={expected.nbits})",
            )
            windows.add(factory.million_config.recent_window)
        require(
            len(windows) == 1,
            "all tier factories of one pooled policy must share one "
            f"recent_window; got {sorted(windows)}",
        )
        self._recent_window = windows.pop()
        # Unit index of each layer's first group, layer-major.
        self._unit_base = []
        base = 0
        for layer in range(policy.n_layers):
            self._unit_base.append(base)
            base += len(policy.head_groups(layer))
        require(
            base == pool.n_units,
            f"policy needs {base} pool units but the pool has {pool.n_units} "
            "(build the pool with BlockPool.for_policy over the same policy)",
        )

    def _pooled_cache(
        self, layer_index: int, unit_index: int, bits: int, config: ModelConfig
    ) -> PooledMillionKVCacheLayer:
        factory = self.million_factories[bits]
        key_pq, value_pq = factory.quantizers[layer_index]
        return PooledMillionKVCacheLayer(
            config,
            key_pq,
            value_pq,
            factory.million_config,
            self.pool,
            unit_index,
        )

    def create(self, layer_index: int, config: ModelConfig):
        from repro.quant.policy_cache import HeadGroupKVCache, head_subset_config

        groups = self.policy.head_groups(layer_index)
        base = self._unit_base[layer_index]
        if len(groups) == 1:
            assignment, _ = groups[0]
            return self._pooled_cache(layer_index, base, assignment.bits, config)
        sub_caches = []
        for offset, (assignment, heads) in enumerate(groups):
            sub_config = head_subset_config(config, len(heads))
            sub_caches.append(
                (
                    heads,
                    self._pooled_cache(
                        layer_index, base + offset, assignment.bits, sub_config
                    ),
                )
            )
        return HeadGroupKVCache(config, sub_caches)

    @property
    def million_config(self) -> Optional[MillionConfig]:
        """The single MILLION config when the policy is uniform (else None)."""
        if not self.policy.is_uniform:
            return None
        bits = self.policy.assignment(0, 0).bits
        return self.million_factories[bits].million_config

    @property
    def recent_window(self) -> int:
        """Residual window shared by every tier of this policy."""
        return self._recent_window

    def bytes_per_token(self) -> float:
        """Modelled steady-state KV bytes per token under this policy."""
        return self.policy.bytes_per_token()


__all__ = [
    "ROOT_HASH",
    "BlockPool",
    "PoolExhaustedError",
    "PooledMillionCacheFactory",
    "PooledMillionKVCacheLayer",
    "PooledPolicyCacheFactory",
    "UnitLayout",
    "chain_hashes",
    "hash_token_block",
]
