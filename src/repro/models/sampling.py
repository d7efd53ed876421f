"""Token samplers used by :meth:`TransformerLM.generate`."""

from __future__ import annotations

import numpy as np

from repro.models.tensor_ops import softmax
from repro.utils.validation import require


class GreedySampler:
    """Always pick the highest-probability token (deterministic)."""

    def __call__(self, logits: np.ndarray, rng: np.random.Generator) -> int:
        return int(np.argmax(logits))


class TemperatureSampler:
    """Sample from the softmax distribution at a given temperature."""

    def __init__(self, temperature: float = 1.0) -> None:
        require(temperature > 0, f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def __call__(self, logits: np.ndarray, rng: np.random.Generator) -> int:
        probs = softmax(np.asarray(logits, dtype=np.float64) / self.temperature)
        probs = probs / probs.sum()
        return int(rng.choice(len(probs), p=probs))

