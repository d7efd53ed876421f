"""Heavy-hitter token eviction (H2O-style KV sparsification).

The cache keeps a fixed budget of tokens: the ``recent`` most recent ones are
always retained, and the remaining budget goes to the tokens that accumulated
the largest attention mass so far ("heavy hitters").  After every attention
call, the accumulated scores are updated and the lowest-scoring non-recent
tokens are evicted.

The paper cites this family as an alternative to quantization and notes its
known weakness: past attention patterns do not always predict which tokens
future queries will need, so evicted information is simply gone.  The
head-to-head benchmark (``bench_ablation_sparse_vs_quant.py``) measures
exactly that trade-off against MILLION at a matched memory budget.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.attention_math import attention_scores, gqa_context
from repro.models.config import ModelConfig
from repro.models.kv_cache import FP16_BYTES, KVCacheLayer
from repro.models.tensor_ops import softmax
from repro.utils.validation import require


class HeavyHitterKVCache(KVCacheLayer):
    """Budget-constrained cache retaining recent tokens plus heavy hitters."""

    def __init__(self, config: ModelConfig, budget: int = 256, recent: int = 32) -> None:
        super().__init__(config)
        require(budget >= 1, "budget must be >= 1")
        require(0 <= recent <= budget, "recent must be in [0, budget]")
        self.budget = budget
        self.recent = recent
        shape = (0, config.kv_heads, config.head_dim)
        self._keys = np.zeros(shape, dtype=np.float32)
        self._values = np.zeros(shape, dtype=np.float32)
        self._positions = np.zeros(0, dtype=np.int64)
        self._accumulated_scores = np.zeros(0, dtype=np.float64)

    # Bookkeeping --------------------------------------------------------------

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        self._validate_append(keys, values)
        new_positions = np.arange(self._seq_len, self._seq_len + keys.shape[0])
        self._keys = np.concatenate([self._keys, keys], axis=0)
        self._values = np.concatenate([self._values, values], axis=0)
        self._positions = np.concatenate([self._positions, new_positions])
        self._accumulated_scores = np.concatenate(
            [self._accumulated_scores, np.zeros(keys.shape[0], dtype=np.float64)]
        )
        self._seq_len += keys.shape[0]
        self._evict()

    def _evict(self) -> None:
        retained = self._positions.size
        if retained <= self.budget:
            return
        recent_cutoff = self._seq_len - self.recent
        is_recent = self._positions >= recent_cutoff
        n_heavy = self.budget - int(is_recent.sum())
        candidate_indices = np.flatnonzero(~is_recent)
        if n_heavy <= 0:
            keep_mask = is_recent.copy()
            # Budget smaller than the recent window: keep the newest `budget`.
            if int(keep_mask.sum()) > self.budget:
                newest = np.argsort(-self._positions)[: self.budget]
                keep_mask = np.zeros_like(is_recent)
                keep_mask[newest] = True
        else:
            candidate_scores = self._accumulated_scores[candidate_indices]
            order = np.argsort(-candidate_scores, kind="stable")
            keep_candidates = candidate_indices[order[:n_heavy]]
            keep_mask = is_recent.copy()
            keep_mask[keep_candidates] = True
        self._keys = self._keys[keep_mask]
        self._values = self._values[keep_mask]
        self._positions = self._positions[keep_mask]
        self._accumulated_scores = self._accumulated_scores[keep_mask]

    @property
    def retained_tokens(self) -> int:
        return int(self._positions.size)

    @property
    def retained_positions(self) -> np.ndarray:
        return self._positions.copy()

    # Attention -----------------------------------------------------------------

    def attend(
        self,
        queries: np.ndarray,
        query_positions: np.ndarray,
        scale: float,
        alibi_head_slopes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        scores = attention_scores(
            queries,
            self._keys,
            query_positions,
            self._positions,
            scale,
            alibi_head_slopes=alibi_head_slopes,
            causal=True,
        )
        probs = softmax(scores, axis=-1)
        # Accumulate attention mass per retained token (summed over heads and
        # queries), the statistic H2O uses to rank heavy hitters.
        self._accumulated_scores += probs.sum(axis=(0, 1)).astype(np.float64)
        return gqa_context(probs, self._values)

    def memory_bytes(self) -> float:
        per_token = 2 * self.config.kv_heads * self.config.head_dim * FP16_BYTES
        # One fp32 accumulator per retained token for the eviction statistic.
        return float(self.retained_tokens * (per_token + 4.0))

    def reset(self) -> None:
        super().reset()
        shape = (0, self.config.kv_heads, self.config.head_dim)
        self._keys = np.zeros(shape, dtype=np.float32)
        self._values = np.zeros(shape, dtype=np.float32)
        self._positions = np.zeros(0, dtype=np.int64)
        self._accumulated_scores = np.zeros(0, dtype=np.float64)


class HeavyHitterCacheFactory:
    """Creates :class:`HeavyHitterKVCache` layers (H2O-style)."""

    def __init__(self, budget: int = 256, recent: int = 32) -> None:
        self.budget = budget
        self.recent = recent

    def create(self, layer_index: int, config: ModelConfig) -> KVCacheLayer:
        return HeavyHitterKVCache(config, budget=self.budget, recent=self.recent)
