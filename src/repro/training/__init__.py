"""Tiny NumPy training stack (autograd, optimizers, trainer, checkpoints)."""

from repro.training.autograd import Tensor
from repro.training.checkpoint import (
    cached_trained_model,
    load_model_checkpoint,
    load_state_dict,
    save_model,
    state_dict,
)
from repro.training.layers import TrainableTransformerLM
from repro.training.optim import Adam, clip_grad_norm, cosine_lr, global_grad_norm
from repro.training.trainer import (
    TrainingHistory,
    evaluate_validation_perplexity,
    sample_batch,
    train_language_model,
    train_tiny_lm,
)

__all__ = [
    "Tensor",
    "cached_trained_model",
    "load_model_checkpoint",
    "load_state_dict",
    "save_model",
    "state_dict",
    "TrainableTransformerLM",
    "Adam",
    "clip_grad_norm",
    "cosine_lr",
    "global_grad_norm",
    "TrainingHistory",
    "evaluate_validation_perplexity",
    "sample_batch",
    "train_language_model",
    "train_tiny_lm",
]
