"""Optimizers and gradient utilities for the tiny trainer."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.training.autograd import Tensor
from repro.utils.validation import require


def global_grad_norm(params: Mapping[str, Tensor]) -> float:
    """L2 norm of all gradients concatenated (0 when no gradients exist)."""
    total = 0.0
    for param in params.values():
        if param.grad is not None:
            total += float(np.sum(param.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


def clip_grad_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``."""
    require(max_norm > 0, "max_norm must be positive")
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params.values():
            if param.grad is not None:
                param.grad *= scale
    return norm


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int = 0, min_lr_ratio: float = 0.1) -> float:
    """Warmup-then-cosine learning-rate schedule."""
    require(total_steps >= 1, "total_steps must be >= 1")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    progress = (step - warmup_steps) / max(total_steps - warmup_steps, 1)
    progress = min(max(progress, 0.0), 1.0)
    cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
    return base_lr * (min_lr_ratio + (1.0 - min_lr_ratio) * cosine)


class Adam:
    """Adam optimizer (Kingma & Ba) over a named parameter mapping."""

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 3e-3,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        require(lr > 0, "lr must be positive")
        require(0 <= betas[0] < 1 and 0 <= betas[1] < 1, "betas must be in [0, 1)")
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr: float | None = None) -> None:
        """Apply one update using the gradients currently stored on the params."""
        lr = self.lr if lr is None else lr
        self._step_count += 1
        beta1, beta2 = self.betas
        bias_correction1 = 1.0 - beta1**self._step_count
        bias_correction2 = 1.0 - beta2**self._step_count
        for name, param in self.params.items():
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            self._m[name] = beta1 * self._m[name] + (1 - beta1) * grad
            self._v[name] = beta2 * self._v[name] + (1 - beta2) * grad * grad
            m_hat = self._m[name] / bias_correction1
            v_hat = self._v[name] / bias_correction2
            param.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.params.values():
            param.zero_grad()
