"""High-level user-facing API tying the pieces together.

:class:`MillionEngine` owns a model and a calibrated MILLION cache factory and
exposes the three phases of the paper's framework (offline training, prefill
with quantization, decode with quantization) as ordinary methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.calibration import calibrate_million
from repro.core.config import MillionConfig
from repro.core.million_cache import MillionCacheFactory, MillionKVCacheLayer
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.models.transformer import TransformerLM
from repro.utils.rng import SeedLike
from repro.utils.validation import require


@dataclass
class CacheStats:
    """Snapshot of the KV-cache footprint for reporting."""

    context_length: int
    quantized_tokens: int
    recent_tokens: int
    memory_bytes: float
    fp16_memory_bytes: float

    @property
    def compression_ratio(self) -> float:
        if self.memory_bytes <= 0:
            return 1.0
        return self.fp16_memory_bytes / self.memory_bytes


class MillionEngine:
    """MILLION inference engine: calibrate once, then prefill/decode/generate."""

    def __init__(self, model: TransformerLM, factory: MillionCacheFactory) -> None:
        self.model = model
        self.factory = factory
        self.model.reset_cache(factory)

    # Construction -----------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        model: TransformerLM,
        calibration_tokens: np.ndarray | Iterable[np.ndarray],
        million_config: Optional[MillionConfig] = None,
        chunk_size: int = 256,
    ) -> "MillionEngine":
        """Run the offline phase (Fig. 4a) and return a ready-to-use engine."""
        million_config = million_config or MillionConfig.for_equivalent_bits(
            model.config.head_dim, bits=4
        )
        factory = calibrate_million(
            model, calibration_tokens, million_config, chunk_size=chunk_size
        )
        return cls(model, factory)

    @property
    def million_config(self) -> MillionConfig:
        return self.factory.million_config

    # Inference ---------------------------------------------------------------

    def reset(self) -> None:
        """Clear the context (keeps the trained codebooks)."""
        self.model.reset_cache(self.factory)

    def prefill(self, prompt_ids: np.ndarray) -> np.ndarray:
        """Prefill the prompt with on-the-fly KV quantization (Fig. 4b)."""
        return self.model.prefill(np.asarray(prompt_ids, dtype=np.int64))

    def decode_step(self, token_id: int) -> np.ndarray:
        """One auto-regressive step over the quantized cache (Fig. 4c)."""
        return self.model.decode_step(token_id)

    def generate(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int,
        sampler=None,
        seed: SeedLike = None,
        stop_token: Optional[int] = None,
    ) -> np.ndarray:
        """Generate tokens; the context is reset before prefill."""
        self.reset()
        return self.model.generate(
            prompt_ids,
            max_new_tokens,
            sampler=sampler,
            seed=seed,
            stop_token=stop_token,
            reset=False,
        )

    # Reporting -----------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Current cache footprint versus the fp16 baseline.

        Token counts are per layer (every layer holds the same split between
        quantized and recent tokens); memory figures cover all layers.
        """
        quantized = 0
        recent = 0
        million_layers = 0
        for cache in self.model.caches:
            if isinstance(cache, MillionKVCacheLayer):
                quantized += cache.stored_tokens
                recent += cache.pending_tokens
                million_layers += 1
        if million_layers:
            quantized //= million_layers
            recent //= million_layers
        fp16_bytes = (
            self.model.context_length
            * self.model.config.kv_cache_bytes_per_token(bytes_per_value=2.0)
        )
        return CacheStats(
            context_length=self.model.context_length,
            quantized_tokens=quantized,
            recent_tokens=recent,
            memory_bytes=self.model.cache_memory_bytes(),
            fp16_memory_bytes=float(fp16_bytes),
        )

    def baseline_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Full-precision logits for the same tokens (for fidelity metrics).

        The engine's quantized context is left untouched; a temporary
        full-precision cache is used and then discarded.
        """
        require(token_ids is not None, "token_ids must not be None")
        with self.model.temporary_context(FullPrecisionCacheFactory()):
            logits = self.model.forward(np.asarray(token_ids, dtype=np.int64))
        return logits
