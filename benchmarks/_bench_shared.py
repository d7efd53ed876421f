"""Shared setup helpers for the registered benchmark cases.

The quant-suite ablations all sample KV vectors from the same tiny model; the
loaders here are ``lru_cache``-d so one process pays for each setup once, no
matter whether pytest or ``python -m repro.bench run`` drives the cases (or
both — the module is imported under its stem name by either entry point, so
the caches are genuinely shared).
"""

from __future__ import annotations

from functools import lru_cache

from repro.bench import run_case
from repro.bench.schema import CaseResult
from repro.core import collect_kv_samples
from repro.data import load_corpus
from repro.models import load_model
from repro.serving import PooledPolicyCacheFactory


def run_registered(name: str, *, smoke: bool = False) -> CaseResult:
    """Run one registered case for a pytest wrapper, failing on case errors."""
    result = run_case(name, smoke=smoke)
    assert result.error is None, f"benchmark case {name} failed:\n{result.error}"
    return result


def never_evicting_factory(model, factory, n_sequences: int, block_tokens: int = 16):
    """A calibrated ``MillionCacheFactory`` over a fresh block pool that never
    evicts: every layer has room for ``n_sequences`` full ``max_seq_len``
    contexts, so no block is reclaimed while an engine serves that many."""
    config = model.config
    blocks = n_sequences * config.n_layers * -(-config.max_seq_len // block_tokens)
    bits = round(factory.million_config.bits_per_value(config.head_dim))
    return PooledPolicyCacheFactory(
        config, {bits: factory}, num_blocks=blocks, block_tokens=block_tokens
    )


@lru_cache(maxsize=None)
def tiny_model():
    """The randomly initialised tiny analogue model shared by the ablations."""
    return load_model("llama-2-7b-tiny", seed=0)


@lru_cache(maxsize=None)
def sampled_kv(smoke: bool = False):
    """Sampled key/value/query vectors from the tiny model's layer-0 cache."""
    model = tiny_model()
    n_tokens = 384 if smoke else 768
    tokens = load_corpus("wikitext2-syn", "train", n_tokens) % model.config.vocab_size
    collector = collect_kv_samples(
        model, tokens, chunk_size=128, max_samples_per_layer=2048 if smoke else 4096
    )
    return {
        "head_dim": model.config.head_dim,
        "keys": collector.key_vectors(0),
        "values": collector.value_vectors(0),
        "queries": collector.key_vectors(1)[:64],
    }
