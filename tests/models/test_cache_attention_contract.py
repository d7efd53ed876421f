"""Every KV cache attends through one routine, so equal rows give equal bits.

The fp16, KIVI, KVQuant and MILLION caches differ only in how they store
flushed rows; attention over stored and pending rows is the streaming cache's
one routine.  Two consequences are checked with no tolerance, on three model
shapes: plain multi-head RoPE, GQA with YaRN, and ALiBi.

* A dequantizing cache whose store holds a MILLION cache's reconstructed rows
  attends bit-identically to that MILLION cache.
* Before any cache flushes, the quantized caches hold only full-precision
  rows, and attend bit-identically to the fp16 cache.
"""

import numpy as np
import pytest

from repro.core.config import MillionConfig
from repro.core.million_cache import MillionKVCacheLayer
from repro.core.pq import ProductQuantizer
from repro.models.kv_cache import FullPrecisionKVCacheLayer
from repro.models.model_zoo import load_model
from repro.quant import DequantizingKVCache, KiviKVCache, KVQuantKVCache, KVQuantQuantizer

MODELS = ("llama-2-7b-tiny", "yarn-llama-2-7b-tiny", "mpt-7b-tiny")


class _MillionRowsStore(DequantizingKVCache):
    """Stores, for each flushed block, a MILLION cache's reconstruction of it.

    Appended in lockstep after the MILLION cache, on the same flush schedule,
    so every block it flushes the MILLION cache has already stored.
    """

    def __init__(self, million: MillionKVCacheLayer) -> None:
        super().__init__(
            million.config,
            residual_window=million.residual_window,
            flush_block_multiple=million.flush_block_multiple,
        )
        self.million = million

    def _quantize_and_store(self, keys, values):
        rows = slice(self.stored_tokens, self.stored_tokens + keys.shape[0])
        keys_hat, values_hat = self.million.dequantized_kv()
        self._store_dequantized(keys_hat[rows], values_hat[rows])

    def quantized_memory_bytes(self):
        return 0.0


def _attention_inputs(name, n_tokens):
    """The first layer's projected ``(q, k, v)`` over random hidden states,
    with the block's scale and ALiBi slopes."""
    model = load_model(name, seed=0)
    attention = model.blocks[0].attention
    rng = np.random.default_rng(1)
    hidden = rng.normal(size=(n_tokens, model.config.d_model)).astype(np.float32)
    q, k, v = attention.project_qkv(hidden, np.arange(n_tokens))
    return model.config, q, k, v, attention.scale, attention.alibi_head_slopes


def _million_cache(config, keys, values, recent_window):
    million = MillionConfig(m_subspaces=16, nbits=5, recent_window=recent_window)
    fit = dict(m_subspaces=16, nbits=5, kmeans_iters=3, seed=0)
    key_pq = ProductQuantizer.fit(keys.reshape(-1, config.head_dim), **fit)
    value_pq = ProductQuantizer.fit(values.reshape(-1, config.head_dim), **fit)
    return MillionKVCacheLayer(config, key_pq, value_pq, million)


@pytest.mark.parametrize("name", MODELS)
def test_store_of_million_rows_attends_like_million(name):
    blocks = (24, 1, 1, 7, 1, 1, 1, 12, 1, 3)
    config, q, k, v, scale, slopes = _attention_inputs(name, sum(blocks))
    million = _million_cache(config, k, v, recent_window=5)
    store = _MillionRowsStore(million)
    start = 0
    for length in blocks:
        rows = slice(start, start + length)
        million.append(k[rows], v[rows])
        store.append(k[rows], v[rows])
        start += length
        positions = np.arange(rows.start, rows.stop)
        np.testing.assert_array_equal(
            store.attend(q[rows], positions, scale, alibi_head_slopes=slopes),
            million.attend(q[rows], positions, scale, alibi_head_slopes=slopes),
        )
    assert million.stored_tokens == store.stored_tokens > 0


@pytest.mark.parametrize("name", MODELS)
def test_quantized_caches_before_first_flush_attend_like_fp16(name):
    n_tokens = 20
    config, q, k, v, scale, slopes = _attention_inputs(name, n_tokens)
    flat = (-1, config.kv_dim)
    kvquant = KVQuantQuantizer(nbits=4, seed=0).fit(k.reshape(flat), v.reshape(flat))
    caches = [
        KiviKVCache(config),
        KVQuantKVCache(config, kvquant),
        _million_cache(config, k, v, recent_window=0),
    ]
    fp16 = FullPrecisionKVCacheLayer(config)
    positions = np.arange(n_tokens)
    fp16.append(k, v)
    expected = fp16.attend(q, positions, scale, alibi_head_slopes=slopes)
    for cache in caches:
        cache.append(k, v)
        assert cache.stored_tokens == 0
        np.testing.assert_array_equal(
            cache.attend(q, positions, scale, alibi_head_slopes=slopes), expected
        )
