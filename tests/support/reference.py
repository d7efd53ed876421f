"""Reference oracles for the identity suites.

The engine decodes its running batch through one fused stacked forward, so
the suites need an answer computed without it.  Two oracles live here:

* :func:`solo` serves every request alone on the bare model over a fresh
  pool, without the engine: it spells out the engine's chunk schedule
  (:func:`~repro.serving.chunk_schedule`), then the engine's per-token
  order (context check, sample, stop check, decode) through
  per-sequence ``model.decode_step`` and ``cache.attend``.  It never
  stacks sequences, and nothing else is scheduled beside it.
* :func:`oracle_logits` spells out the unbounded chunk schedule on the bare
  model: forward ``[0, A)``, flush, forward ``[A, P)``, then greedy decode.

Comparisons are exact (``assert_array_equal``): batching, preemption,
cancellation and prefix adoption must not change a single bit.

:func:`pooled` wraps a calibrated factory in a fresh block pool, the only
form the serving engine accepts; :func:`solo` takes a tier's policy too.

:func:`reference_kmeans` and :func:`reference_train_codebooks` are the
sequential per-problem k-means (one problem, one distance evaluation per
k-means++ step) that :func:`repro.quant.kmeans.kmeans_batch` stacks over
problems.  Codebooks must match them bit for bit.
:func:`assign_to_centroids` is the nearest-centroid assignment the k-means
results are checked against, and :func:`quantization_mse` the reconstruction
error the quantizer suites compare.

:func:`reference_encode` is ``ProductQuantizer.encode`` in one untiled
pass, :func:`reference_softmax` is ``softmax`` with a temporary per step,
:func:`reference_rms_norm` is ``rms_norm`` through ``np.mean``, and :func:`reference_pq_decode` is the per-subspace centroid lookup that
``ProductQuantizer.decode`` flattens into one gather; each must match its
kernel bit for bit.  :func:`reference_adc_attend` is a MILLION cache's ``attend``
computed from the codes through the ADC kernels and the softmax merge;
``attend``, which runs GEMMs over reconstructed rows, must match it up to
float rounding.  Its full-precision part contracts :func:`repeat_kv_heads`
copies of the pending rows with einsum, independently of the grouped GEMMs
every cache attends through.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.attention_pq import pq_attention_scores, pq_weighted_values
from repro.core.codebook import SubspaceCodebooks
from repro.models.attention_math import causal_score_mask
from repro.models.positional import alibi_bias
from repro.models.sampling import GreedySampler
from repro.models.tensor_ops import softmax
from repro.quant.kmeans import KMeansResult
from repro.serving import PooledPolicyCacheFactory, chunk_schedule
from repro.utils.bitpack import code_dtype
from repro.utils.rng import get_rng, spawn_rngs

#: Default pool of :func:`pooled`: room for everything a test serves, so
#: nothing is evicted or preempted unless a test sizes the pool to force it.
POOL_BLOCKS = 1024
BLOCK_TOKENS = 4


def pooled(
    model, factory, *, num_blocks: int = POOL_BLOCKS, block_tokens: int = BLOCK_TOKENS,
    policy=None, tiers=None,
):
    """Calibrated factories over a fresh ``num_blocks``-block pool of
    ``block_tokens``-token blocks.

    ``factory`` is one calibrated ``MillionCacheFactory`` (its uniform
    policy is the default tier), or a ``{bits: factory}`` bank with the
    default tier's ``policy``; ``tiers`` maps tier names to policies.
    """
    if not isinstance(factory, dict):
        bits = round(factory.million_config.bits_per_value(model.config.head_dim))
        factory = {bits: factory}
    return PooledPolicyCacheFactory(
        model.config, factory, num_blocks=num_blocks, block_tokens=block_tokens,
        policy=policy, tiers=tiers,
    )


class RecordingSampler:
    """Greedy sampler that keeps every logits vector it samples from."""

    def __init__(self):
        self.logits = []

    def __call__(self, logits, rng):
        self.logits.append(np.array(logits, copy=True))
        return int(np.argmax(logits))


def oracle_logits(model, factory, prompt, n_tokens, block_tokens):
    """The unbounded chunk schedule spelled out: forward ``[0, A)``, flush
    every cache, forward ``[A, P)``, then greedy single-token decode."""
    aligned = block_tokens * ((prompt.size - 1) // block_tokens)
    with model.temporary_context(factory) as m:
        if aligned:
            m.forward(prompt[:aligned])
            for cache in m.caches:
                cache.flush_all()
        logits = [m.forward(prompt[aligned:])[-1]]
        for _ in range(n_tokens - 1):
            logits.append(m.decode_step(int(np.argmax(logits[-1]))))
    return logits


def served_logits(engine, prompts, n_tokens):
    """Serve ``prompts`` in one batch; every request's sampled logits."""
    samplers = [RecordingSampler() for _ in prompts]
    for prompt, sampler in zip(prompts, samplers):
        engine.add_request(prompt, max_new_tokens=n_tokens, sampler=sampler)
    engine.run()
    return [sampler.logits for sampler in samplers]


def assert_logits_equal(want, got):
    assert len(want) == len(got)
    for step, (a, b) in enumerate(zip(want, got)):
        np.testing.assert_array_equal(a, b, err_msg=f"logits differ at step {step}")


def solo(
    model,
    factory,
    prompts,
    max_new_tokens: int,
    *,
    num_blocks: int = POOL_BLOCKS,
    block_tokens: int = BLOCK_TOKENS,
    budget: Optional[int] = None,
    record_logits: bool = False,
    stop_token: Optional[int] = None,
    sampler=None,
    seed=None,
    policy=None,
) -> list:
    """Serve each prompt alone; its tokens, or its sampled logits.

    ``factory`` is a calibrated ``MillionCacheFactory``, or a ``{bits:
    factory}`` bank served under ``policy`` (a tier's); every prompt gets
    its own ``num_blocks``-block pool of ``block_tokens``-token blocks
    (:func:`pooled`).  ``budget`` is the engine's ``prefill_token_budget``:
    the chunk size is its largest block multiple (``max_seq_len`` rounded up
    to a block without one), and the logits depend on it.  ``stop_token``,
    ``sampler`` and ``seed`` are the request's.  With ``record_logits`` the
    sampler is a greedy :class:`RecordingSampler` and the result is each
    prompt's list of sampled logits.
    """
    max_seq_len = model.config.max_seq_len
    if budget is None:
        chunk = block_tokens * -(-max_seq_len // block_tokens)
    else:
        chunk = block_tokens * max(1, budget // block_tokens)
    results = []
    for prompt in prompts:
        prompt = np.asarray(prompt, dtype=np.int64)
        draw = RecordingSampler() if record_logits else sampler or GreedySampler()
        rng = get_rng(seed)
        tokens = []
        cache_factory = pooled(
            model, factory, num_blocks=num_blocks, block_tokens=block_tokens,
            policy=policy,
        )
        with model.temporary_context(cache_factory) as m:
            bounds = chunk_schedule(prompt.size, block_tokens, chunk)
            lo = 0
            for hi in bounds[:-1]:
                m.forward(prompt[lo:hi])
                for cache in m.caches:
                    cache.flush_all()
                lo = hi
            logits = m.forward(prompt[lo:])[-1]
            while m.context_length < max_seq_len:
                token = draw(logits, rng)
                tokens.append(token)
                if token == stop_token or len(tokens) >= max_new_tokens:
                    break
                logits = m.decode_step(token)
        if record_logits:
            results.append(draw.logits)
        else:
            results.append(np.asarray(tokens, dtype=np.int64))
    return results


def _pairwise_sq_distances(points, centroids):
    """Squared Euclidean distances, shape ``(n_points, n_centroids)``."""
    p_sq = np.einsum("nd,nd->n", points, points)[:, None]
    c_sq = np.einsum("kd,kd->k", centroids, centroids)[None, :]
    cross = points @ centroids.T
    distances = p_sq + c_sq - 2.0 * cross
    return np.maximum(distances, 0.0)


def _kmeans_plus_plus(data, n_clusters, rng):
    """k-means++ initial centroids."""
    n = data.shape[0]
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = _pairwise_sq_distances(data, centroids[:1]).reshape(-1)
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with chosen centroids; pick uniformly.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centroids[i] = data[idx]
        new_dist = _pairwise_sq_distances(data, centroids[i : i + 1]).reshape(-1)
        closest = np.minimum(closest, new_dist)
    return centroids


def reference_kmeans(data, n_clusters, n_iters=25, seed=None, init="kmeans++", tol=1e-6):
    """One k-means problem, clustered alone: the oracle for ``kmeans``."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    rng = get_rng(seed)
    n_samples, dim = data.shape

    if n_samples <= n_clusters:
        # Degenerate: every sample is its own centroid, pad with jitter.
        scale = float(np.std(data)) if n_samples > 1 else 1.0
        scale = scale if scale > 0 else 1.0
        pad = data[rng.integers(0, n_samples, size=n_clusters - n_samples)]
        pad = pad + rng.normal(0.0, 1e-3 * scale, size=pad.shape)
        centroids = np.concatenate([data, pad], axis=0)
        return KMeansResult(
            centroids=centroids.astype(np.float32),
            assignments=np.arange(n_samples, dtype=np.int64),
            inertia=0.0,
            n_iter=0,
        )

    if init == "kmeans++":
        centroids = _kmeans_plus_plus(data, n_clusters, rng)
    else:
        centroids = data[rng.choice(n_samples, size=n_clusters, replace=False)].copy()

    assignments = np.zeros(n_samples, dtype=np.int64)
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, n_iters + 1):
        distances = _pairwise_sq_distances(data, centroids)
        assignments = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(n_samples), assignments].sum())
        # Update step.
        counts = np.bincount(assignments, minlength=n_clusters).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, data)
        non_empty = counts > 0
        centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Re-seed empty clusters at the points farthest from their centroid.
        empty = np.flatnonzero(~non_empty)
        if empty.size:
            farthest = np.argsort(-distances[np.arange(n_samples), assignments])
            centroids[empty] = data[farthest[: empty.size]]
        if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
            prev_inertia = inertia
            break
        prev_inertia = inertia

    distances = _pairwise_sq_distances(data, centroids)
    assignments = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(n_samples), assignments].sum())
    return KMeansResult(
        centroids=centroids.astype(np.float32),
        assignments=assignments.astype(np.int64),
        inertia=inertia,
        n_iter=n_iter,
    )


def assign_to_centroids(data, centroids):
    """Index of the nearest centroid for each row of ``data``."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    distances = _pairwise_sq_distances(data, np.asarray(centroids, dtype=np.float64))
    return np.argmin(distances, axis=1).astype(np.int64)


def quantization_mse(x, x_hat):
    """Mean squared reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return float(np.mean((x - x_hat) ** 2))


def reference_train_codebooks(
    vectors, m_subspaces, nbits, kmeans_iters=15, seed=0, max_samples=None
):
    """``train_codebooks`` with one :func:`reference_kmeans` call per subspace."""
    vectors = np.asarray(vectors, dtype=np.float32)
    rng = get_rng(seed)
    if max_samples is not None and vectors.shape[0] > max_samples:
        idx = rng.choice(vectors.shape[0], size=max_samples, replace=False)
        vectors = vectors[idx]
    subspace_dim = vectors.shape[1] // m_subspaces
    subvectors = vectors.reshape(vectors.shape[0], m_subspaces, subspace_dim)
    centroids = np.empty((m_subspaces, 2**nbits, subspace_dim), dtype=np.float32)
    subspace_rngs = spawn_rngs(rng, m_subspaces)
    for m in range(m_subspaces):
        result = reference_kmeans(
            subvectors[:, m, :], 2**nbits, n_iters=kmeans_iters, seed=subspace_rngs[m]
        )
        centroids[m] = result.centroids
    return SubspaceCodebooks(centroids=centroids)


def reference_encode(quantizer, vectors):
    """``quantizer.encode`` in one untiled pass over the whole
    ``(M, n, K)`` score tensor."""
    subvectors = quantizer.codebooks.split_vectors(vectors)
    sub_t = np.ascontiguousarray(subvectors.transpose(1, 0, 2), dtype=np.float32)
    scores = quantizer._subspace_cross(sub_t, np.float32)
    scores -= (0.5 * quantizer.centroid_sq_norms()).astype(np.float32)[:, None, :]
    codes = np.argmax(scores, axis=2).astype(code_dtype(quantizer.nbits))
    return np.ascontiguousarray(codes.T)


def reference_softmax(x, axis=-1):
    """:func:`~repro.models.tensor_ops.softmax` with a float64 temporary per
    step (shift, exp, normalise)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return (exp / np.sum(exp, axis=axis, keepdims=True)).astype(np.float32)


def reference_rms_norm(x, weight, eps=1e-5):
    """:func:`~repro.models.tensor_ops.rms_norm` through ``np.mean``, with
    the weight upcast on every call."""
    x64 = np.asarray(x, dtype=np.float64)
    scale = np.sqrt(np.mean(x64 * x64, axis=-1, keepdims=True) + eps)
    return ((x64 / scale) * weight).astype(np.float32)


def reference_pq_decode(quantizer, codes):
    """``quantizer.decode`` as one fancy-indexed lookup per subspace."""
    codes = np.asarray(codes)
    dsub = quantizer.subspace_dim
    out = np.empty((codes.shape[0], quantizer.dim), dtype=np.float32)
    for m in range(quantizer.m_subspaces):
        out[:, m * dsub : (m + 1) * dsub] = quantizer.codebooks.centroids[m][codes[:, m]]
    return out


def repeat_kv_heads(kv, n_query_heads):
    """Expand ``(tokens, kv_heads, d)`` to ``(tokens, n_query_heads, d)`` for GQA."""
    kv = np.asarray(kv)
    tokens, kv_heads, d = kv.shape
    if n_query_heads == kv_heads:
        return kv
    if n_query_heads % kv_heads != 0:
        raise ValueError(
            f"n_query_heads {n_query_heads} must be a multiple of kv_heads {kv_heads}"
        )
    return np.repeat(kv, n_query_heads // kv_heads, axis=1)


def _dense_deltas(corrections, shape):
    """The sparse outlier corrections of a MILLION cache as a dense array."""
    tokens, heads, channels, deltas = corrections.materialize()
    dense = np.zeros(shape, dtype=np.float32)
    dense[tokens, heads, channels] = deltas
    return dense


def reference_adc_attend(cache, queries, query_positions, scale, alibi_head_slopes=None):
    """A ``MillionKVCacheLayer.attend`` scored and aggregated from the codes.

    Stored tokens go through ``pq_attention_scores``/``pq_weighted_values``
    (plus the dense form of any outlier corrections), pending tokens through
    full-precision attention, and both are merged by one softmax.
    """
    queries = np.asarray(queries, dtype=np.float32)
    n_heads = queries.shape[1]
    key_codes, value_codes = cache._stored_key_codes(), cache._stored_value_codes()
    stored = key_codes.shape[0]
    pending_keys, pending_values = cache.pending_views()
    shape = (stored, cache.config.kv_heads, cache.config.head_dim)
    delta_keys = repeat_kv_heads(_dense_deltas(cache._key_corrections, shape), n_heads)
    delta_values = repeat_kv_heads(_dense_deltas(cache._value_corrections, shape), n_heads)
    stored_scores = pq_attention_scores(queries, key_codes, cache.key_pq, scale=scale)
    stored_scores = stored_scores + np.einsum("qhd,khd->hqk", queries, delta_keys) * scale
    if alibi_head_slopes is not None:
        stored_scores = stored_scores + alibi_bias(
            alibi_head_slopes, query_positions, np.arange(stored)
        )
    pending_positions = np.arange(stored, stored + pending_keys.shape[0])
    pending_scores = np.einsum(
        "qhd,khd->hqk", queries, repeat_kv_heads(pending_keys, n_heads)
    ) * scale
    if alibi_head_slopes is not None:
        pending_scores = pending_scores + alibi_bias(
            alibi_head_slopes, query_positions, pending_positions
        )
    pending_scores = pending_scores + causal_score_mask(query_positions, pending_positions)
    probs = softmax(np.concatenate([stored_scores, pending_scores], axis=-1), axis=-1)
    stored_probs, pending_probs = probs[..., :stored], probs[..., stored:]
    context = pq_weighted_values(stored_probs, value_codes, cache.value_pq)
    context = context + np.einsum("hqk,khd->qhd", stored_probs, delta_values)
    return context + np.einsum(
        "hqk,khd->qhd", pending_probs, repeat_kv_heads(pending_values, n_heads)
    )
