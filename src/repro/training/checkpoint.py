"""Weight serialisation and a small on-disk cache of trained models.

Benchmarks reuse trained tiny models between runs: ``cached_trained_model``
trains once, stores the weights as an ``.npz`` next to the requested cache
directory and afterwards reloads them in milliseconds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import TransformerLM
from repro.models.weights import build_model
from repro.training.trainer import TrainingHistory, train_tiny_lm
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike
from repro.utils.validation import require

logger = get_logger("training.checkpoint")


def state_dict(model: TransformerLM) -> dict[str, np.ndarray]:
    """Flatten all weights of an inference model into a name → array mapping."""
    state: dict[str, np.ndarray] = {"token_embedding": model.token_embedding.weight}
    if model.position_embedding is not None:
        state["position_embedding"] = model.position_embedding.weight
    for index, block in enumerate(model.blocks):
        prefix = f"layer{index}."
        attention = block.attention
        state[prefix + "wq"] = attention.wq.weight
        state[prefix + "wk"] = attention.wk.weight
        state[prefix + "wv"] = attention.wv.weight
        state[prefix + "wo"] = attention.wo.weight
        for name, layer in (("wq", attention.wq), ("wk", attention.wk), ("wv", attention.wv), ("wo", attention.wo)):
            if layer.bias is not None:
                state[prefix + name + ".bias"] = layer.bias
        ffn = block.feed_forward
        state[prefix + "w_in"] = ffn.w_in.weight
        state[prefix + "w_out"] = ffn.w_out.weight
        if ffn.w_in.bias is not None:
            state[prefix + "w_in.bias"] = ffn.w_in.bias
        if ffn.w_out.bias is not None:
            state[prefix + "w_out.bias"] = ffn.w_out.bias
        if ffn.w_gate is not None:
            state[prefix + "w_gate"] = ffn.w_gate.weight
        state[prefix + "attn_norm.weight"] = block.attention_norm.weight
        if block.attention_norm.bias is not None:
            state[prefix + "attn_norm.bias"] = block.attention_norm.bias
        state[prefix + "ffn_norm.weight"] = block.ffn_norm.weight
        if block.ffn_norm.bias is not None:
            state[prefix + "ffn_norm.bias"] = block.ffn_norm.bias
    state["final_norm.weight"] = model.final_norm.weight
    if model.final_norm.bias is not None:
        state["final_norm.bias"] = model.final_norm.bias
    if model.lm_head is not None:
        state["lm_head"] = model.lm_head.weight
    return state


def load_state_dict(model: TransformerLM, state: dict[str, np.ndarray]) -> TransformerLM:
    """Copy a saved state into an existing model (shapes must match)."""
    target = state_dict(model)
    missing = set(target) - set(state)
    require(not missing, f"state dict is missing keys: {sorted(missing)}")
    for name, array in target.items():
        source = np.asarray(state[name], dtype=np.float32)
        require(
            source.shape == array.shape,
            f"shape mismatch for {name}: {source.shape} vs {array.shape}",
        )
        array[...] = source
    for block in model.blocks:
        block.attention_norm.sync_weight()
        block.ffn_norm.sync_weight()
    model.final_norm.sync_weight()
    return model


def save_model(model: TransformerLM, path: str | Path) -> Path:
    """Persist config + weights to ``<path>.npz`` / ``<path>.json``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path.with_suffix(".npz"), **state_dict(model))
    path.with_suffix(".json").write_text(json.dumps(model.config.to_dict(), indent=2))
    return path.with_suffix(".npz")


def load_model_checkpoint(path: str | Path) -> TransformerLM:
    """Rebuild a model from :func:`save_model` output."""
    path = Path(path)
    config = ModelConfig.from_dict(json.loads(path.with_suffix(".json").read_text()))
    model = build_model(config, seed=0)
    with np.load(path.with_suffix(".npz")) as data:
        load_state_dict(model, {name: data[name] for name in data.files})
    return model


def cached_trained_model(
    config: ModelConfig,
    cache_dir: Optional[str | Path],
    corpus_name: str = "wikitext2-syn",
    steps: int = 200,
    seed: SeedLike = 0,
    **train_kwargs,
) -> tuple[TransformerLM, Optional[TrainingHistory]]:
    """Return a trained model, reusing an on-disk checkpoint when available.

    With ``cache_dir=None`` the model is always trained fresh and nothing is
    written to disk.  The cache key encodes the model name, corpus, step count
    and seed.
    """
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        corpus_key = corpus_name if isinstance(corpus_name, str) else "+".join(corpus_name)
        key = f"{config.name}-{corpus_key}-s{steps}-seed{seed}"
        checkpoint = cache_dir / key
        if checkpoint.with_suffix(".npz").exists():
            logger.info("loading cached trained model %s", checkpoint)
            return load_model_checkpoint(checkpoint), None
    model, history = train_tiny_lm(
        config, corpus_name=corpus_name, steps=steps, seed=seed, **train_kwargs
    )
    if cache_dir is not None:
        save_model(model, checkpoint)
    return model, history
