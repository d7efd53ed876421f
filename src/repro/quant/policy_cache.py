"""Policy-driven cache construction: head-group splitting per layer.

:class:`HeadGroupKVCache` is what lets heads with different schemes or
bit-widths coexist in one layer: attention is independent per head, so a
layer's cache can be composed of sub-caches over disjoint KV-head groups —
each group slices its own keys/values on append and its own (GQA-mapped)
query heads on attend, and the per-head contexts are reassembled exactly.
The composition is mathematically exact, not an approximation.

:class:`PolicyCacheFactory` builds per-layer caches from a
:class:`~repro.quant.policy.QuantPolicy`.  The crucial property is the
**single-group fast path**: a layer whose heads all share one assignment gets
the plain existing cache class (``MillionKVCacheLayer``, ``KiviKVCache``,
``KVQuantKVCache`` or ``FullPrecisionKVCacheLayer``) with the full layer
config — so a uniform-equivalent policy runs byte-for-byte the same code as
today's uniform factories, and token identity with the uniform path is
structural, not incidental (a test asserts it anyway).

The pooled-serving variant (all-MILLION policies whose code rows live in
shared ref-counted blocks) is :class:`repro.serving.memory.PooledPolicyCacheFactory`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.core.config import MillionConfig
from repro.core.million_cache import MillionCacheFactory
from repro.models.config import ModelConfig
from repro.models.kv_cache import (
    FullPrecisionCacheFactory,
    KVCacheFactory,
    KVCacheLayer,
)
from repro.quant.cache_adapters import KiviCacheFactory, KVQuantCacheFactory
from repro.quant.kivi import KiviConfig
from repro.quant.kvquant import KVQuantQuantizer
from repro.quant.policy import HeadAssignment, QuantPolicy
from repro.utils.validation import require


def head_subset_config(config: ModelConfig, n_group_heads: int) -> ModelConfig:
    """Model config describing a KV-head subset of one layer.

    Sub-caches see a model whose KV width is just their group: ``head_dim``
    is preserved, the query-head count scales by the GQA group size.  Only
    shape-bearing fields change; everything a cache reads (``kv_heads``,
    ``head_dim``, ``max_seq_len``) stays consistent.
    """
    require(
        1 <= n_group_heads <= config.kv_heads,
        f"group must have 1..{config.kv_heads} heads, got {n_group_heads}",
    )
    group = config.gqa_group_size
    n_heads = n_group_heads * group
    return replace(
        config,
        n_heads=n_heads,
        n_kv_heads=n_group_heads,
        d_model=n_heads * config.head_dim,
    )


class HeadGroupKVCache(KVCacheLayer):
    """One layer's cache composed of per-head-group sub-caches.

    ``groups`` maps disjoint KV-head index tuples (together covering every
    head) to the sub-cache storing them.  Appends route each group's key and
    value heads to its sub-cache; attention routes each group's *query*
    heads (the GQA expansion of its KV heads) and reassembles the context
    rows in place.  Because softmax and the weighted value sum never mix
    heads, the result is bit-comparable to a single cache running the same
    scheme per head.
    """

    def __init__(
        self,
        config: ModelConfig,
        groups: Sequence[tuple[Sequence[int], KVCacheLayer]],
    ) -> None:
        super().__init__(config)
        require(len(groups) >= 1, "head groups must not be empty")
        seen: set[int] = set()
        gqa = config.gqa_group_size
        self._groups: list[tuple[np.ndarray, np.ndarray, KVCacheLayer]] = []
        for heads, cache in groups:
            head_idx = np.asarray(sorted(int(h) for h in heads), dtype=np.int64)
            require(head_idx.size >= 1, "every head group needs at least one head")
            require(
                not (set(head_idx.tolist()) & seen),
                "head groups must be disjoint",
            )
            require(
                cache.config.kv_heads == head_idx.size
                and cache.config.head_dim == config.head_dim,
                f"sub-cache config (kv_heads={cache.config.kv_heads}, "
                f"head_dim={cache.config.head_dim}) does not match group of "
                f"{head_idx.size} heads at head_dim={config.head_dim}",
            )
            seen.update(head_idx.tolist())
            query_idx = (head_idx[:, None] * gqa + np.arange(gqa)[None, :]).reshape(-1)
            self._groups.append((head_idx, query_idx, cache))
        require(
            seen == set(range(config.kv_heads)),
            f"head groups must cover every KV head 0..{config.kv_heads - 1}",
        )

    @property
    def sub_caches(self) -> list[KVCacheLayer]:
        """The per-group sub-caches, in group order."""
        return [cache for _, _, cache in self._groups]

    @property
    def groups(self) -> list[tuple[tuple[int, ...], KVCacheLayer]]:
        return [(tuple(heads.tolist()), cache) for heads, _, cache in self._groups]

    @property
    def seq_len(self) -> int:
        # Delegated: adoption of shared pool blocks installs tokens directly
        # into sub-caches, so the composite must not track its own counter.
        return self._groups[0][2].seq_len

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        self._validate_append(keys, values)
        for heads, _, cache in self._groups:
            cache.append(keys[:, heads, :], values[:, heads, :])

    def attend(
        self,
        queries: np.ndarray,
        query_positions: np.ndarray,
        scale: float,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float32)
        n_queries, n_heads, head_dim = queries.shape
        context = np.empty((n_queries, n_heads, head_dim), dtype=np.float32)
        for _, query_idx, cache in self._groups:
            slopes = (
                alibi_head_slopes[query_idx]
                if alibi_head_slopes is not None
                else None
            )
            context[:, query_idx, :] = cache.attend(
                queries[:, query_idx, :],
                query_positions,
                scale,
                alibi_head_slopes=slopes,
            )
        return context

    def flush_all(self) -> None:
        """Force-quantize pending tokens in every streaming sub-cache."""
        for _, _, cache in self._groups:
            flush = getattr(cache, "flush_all", None)
            if flush is not None:
                flush()

    def memory_bytes(self) -> float:
        return float(sum(cache.memory_bytes() for _, _, cache in self._groups))

    def reset(self) -> None:
        super().reset()
        for _, _, cache in self._groups:
            cache.reset()


class PolicyCacheFactory:
    """Builds per-layer caches from a :class:`QuantPolicy`.

    Providers are plain existing factories, one per scheme family:

    * ``million_factories[bits]`` — a calibrated
      :class:`~repro.core.million_cache.MillionCacheFactory` at that bit
      budget (its per-layer quantizers are trained on the layer's pooled
      head vectors, so they serve any head subset);
    * ``kivi_factories[bits]`` — data-free KIVI factories;
    * ``kvquant_quantizers[(layer, heads)]`` — per-group fitted KVQuant
      quantizers (KVQuant codebooks are per *channel*, so a head subset
      needs its own fit);
    * fp16 heads use a shared :class:`FullPrecisionCacheFactory`.

    A layer with a single head group returns the provider's cache directly
    (uniform fast path, see module docstring); multi-group layers compose a
    :class:`HeadGroupKVCache`.
    """

    def __init__(
        self,
        policy: QuantPolicy,
        model_config: ModelConfig,
        million_factories: Optional[dict[int, MillionCacheFactory]] = None,
        kivi_factories: Optional[dict[int, KiviCacheFactory]] = None,
        kvquant_quantizers: Optional[
            dict[tuple[int, tuple[int, ...]], KVQuantQuantizer]
        ] = None,
        kvquant_residual_window: int = 0,
    ) -> None:
        policy.validate_for_model(model_config)
        self.policy = policy
        self.model_config = model_config
        self.million_factories = dict(million_factories or {})
        self.kivi_factories = dict(kivi_factories or {})
        self.kvquant_quantizers = dict(kvquant_quantizers or {})
        self.kvquant_residual_window = kvquant_residual_window
        self._fp16_factory = FullPrecisionCacheFactory()
        for assignment in policy.distinct_assignments():
            if assignment.scheme == "million":
                require(
                    assignment.bits in self.million_factories,
                    f"policy uses million-{assignment.bits} but no calibrated "
                    "MillionCacheFactory was provided for that bit budget",
                )
            elif assignment.scheme == "kivi":
                self.kivi_factories.setdefault(
                    assignment.bits,
                    KiviCacheFactory(KiviConfig(nbits=assignment.bits)),
                )

    @classmethod
    def from_million_factory(
        cls, factory: MillionCacheFactory, policy: QuantPolicy, model_config: ModelConfig
    ) -> "PolicyCacheFactory":
        """Wrap an already-calibrated uniform MILLION factory.

        Only uniform-MILLION policies qualify; the resulting factory shares
        the given factory's trained quantizer objects, which is what makes a
        uniform-equivalent policy *token-identical* to the uniform path.
        """
        require(
            policy.is_uniform and policy.assignment(0, 0).scheme == "million",
            "from_million_factory requires a uniform all-MILLION policy",
        )
        bits = policy.assignment(0, 0).bits
        return cls(policy, model_config, million_factories={bits: factory})

    # Sub-cache construction ------------------------------------------------

    def _sub_factory(
        self, assignment: HeadAssignment, layer_index: int, heads: tuple[int, ...]
    ) -> KVCacheFactory:
        if assignment.scheme == "million":
            return self.million_factories[assignment.bits]
        if assignment.scheme == "kivi":
            return self.kivi_factories[assignment.bits]
        if assignment.scheme == "kvquant":
            key = (layer_index, heads)
            require(
                key in self.kvquant_quantizers,
                f"policy assigns kvquant to layer {layer_index} heads {heads} "
                "but no fitted quantizer was provided for that group",
            )
            return KVQuantCacheFactory(
                {layer_index: self.kvquant_quantizers[key]},
                residual_window=self.kvquant_residual_window,
            )
        return self._fp16_factory

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        groups = self.policy.head_groups(layer_index)
        if len(groups) == 1:
            # Uniform fast path: the plain existing cache class over the full
            # layer config — identical code path to the uniform factories.
            assignment, heads = groups[0]
            return self._sub_factory(assignment, layer_index, heads).create(
                layer_index, config
            )
        sub_caches = []
        for assignment, heads in groups:
            sub_config = head_subset_config(config, len(heads))
            factory = self._sub_factory(assignment, layer_index, heads)
            sub_caches.append((heads, factory.create(layer_index, sub_config)))
        return HeadGroupKVCache(config, sub_caches)

    # Reporting / engine integration ----------------------------------------

    @property
    def million_config(self) -> Optional[MillionConfig]:
        """The single MILLION config when the policy is uniform MILLION (else None)."""
        if not self.policy.is_uniform:
            return None
        assignment = self.policy.assignment(0, 0)
        if assignment.scheme != "million":
            return None
        return self.million_factories[assignment.bits].million_config

    def bytes_per_token(self) -> float:
        """Modelled steady-state KV bytes per token under this policy."""
        return self.policy.bytes_per_token()


__all__ = [
    "HeadGroupKVCache",
    "PolicyCacheFactory",
    "head_subset_config",
]
