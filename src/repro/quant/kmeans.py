"""Lloyd's k-means with k-means++ seeding, batched over independent problems.

Shared by the product quantizer (per-subspace codebooks) and the KVQuant-like
baseline (1-D non-uniform quantization).  Pure NumPy, deterministic for a
given seed, and robust to degenerate inputs (fewer samples than clusters,
empty clusters).

:func:`kmeans_batch` fits ``P`` independent problems of the same shape, each
with its own generator.  k-means++ seeding is stacked over the problems (one
distance evaluation per seeding step for all of them), and it reproduces
``Generator.choice(n, p=...)`` draw for draw, so every problem's centroids
are bit-identical to clustering it alone.  Lloyd iterations run per problem:
their ``(n, K)`` distance matrices would be ``P`` times larger stacked.
:func:`kmeans` is the one-problem case plus a final assignment pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, get_rng
from repro.utils.validation import require


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray  # (n_clusters, dim)
    assignments: np.ndarray  # (n_samples,)
    inertia: float
    n_iter: int

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def _workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The two buffers :func:`_pairwise_sq_distances` fills.

    They are allocated apart: one ``(2, ...)`` block is twice the size of
    any array the per-problem algorithm allocated and raises glibc's mmap
    threshold to match; with it, the perfbench ``longdoc_decode`` process
    peaked 4-8 MB higher in resident memory after calibrating.
    """
    return np.empty(shape), np.empty(shape)


def _pairwise_sq_distances(
    points: np.ndarray,
    centroids: np.ndarray,
    points_sq: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Squared Euclidean distances, shape ``(..., n_points, n_centroids)``.

    ``points`` is ``(..., n_points, dim)`` and ``centroids`` is
    ``(..., n_centroids, dim)``.  Pass ``points_sq`` (``|points|²``, shape
    ``(..., n_points)``) to reuse it across calls, and ``out``, two
    result-shaped buffers, to reuse them; the result is ``out[0]``.
    """
    if points_sq is None:
        points_sq = np.einsum("...nd,...nd->...n", points, points)
    if out is None:
        out = _workspace((*points.shape[:-1], centroids.shape[-2]))
    distances, cross = out
    c_sq = np.einsum("...kd,...kd->...k", centroids, centroids)
    np.matmul(points, np.swapaxes(centroids, -1, -2), out=cross)
    cross *= 2.0
    # (|p|² + |c|²) - 2 p·c: the roundings of the one-expression form,
    # without its temporaries.
    np.add(points_sq[..., :, None], c_sq[..., None, :], out=distances)
    distances -= cross
    return np.maximum(distances, 0.0, out=distances)


def _pad_with_jitter(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Every sample as its own centroid, padded to ``n_clusters`` with jittered
    copies (product quantization relies on a fixed codebook shape)."""
    n_samples = data.shape[0]
    scale = float(np.std(data)) if n_samples > 1 else 1.0
    scale = scale if scale > 0 else 1.0
    pad = data[rng.integers(0, n_samples, size=n_clusters - n_samples)]
    pad = pad + rng.normal(0.0, 1e-3 * scale, size=pad.shape)
    return np.concatenate([data, pad], axis=0)


def _kmeans_plus_plus(
    data: np.ndarray,
    data_sq: np.ndarray,
    n_clusters: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """k-means++ initial centroids ``(P, n_clusters, dim)`` for ``(P, n, dim)`` data.

    Each step draws what ``rng.choice(n, p=closest / total)`` draws: one
    ``rng.random()`` per problem, located in the normalised cumulative
    distribution with ``searchsorted(side="right")`` semantics.  Every
    reduction runs along the contiguous sample axis, as the per-problem
    algorithm's does, so the sums round identically.
    """
    n_problems, n_samples, dim = data.shape
    rows = np.arange(n_problems)
    centroids = np.empty((n_problems, n_clusters, dim), dtype=np.float64)
    work = _workspace((n_problems, n_samples, 1))
    cdf = np.empty((n_problems, n_samples))
    picks = np.array([rng.integers(n_samples) for rng in rngs], dtype=np.int64)
    centroids[:, 0] = data[rows, picks]
    closest = _pairwise_sq_distances(data, centroids[:, :1], data_sq, work)[..., 0].copy()
    for i in range(1, n_clusters):
        total = closest.sum(axis=1)
        spread = total > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(closest, total[:, None], out=cdf)
            np.cumsum(cdf, axis=1, out=cdf)
            cdf /= cdf[:, -1:]
        uniform = np.zeros(n_problems)
        for p, rng in enumerate(rngs):
            if spread[p]:
                uniform[p] = rng.random()
            else:
                # All points coincide with chosen centroids; pick uniformly.
                picks[p] = rng.integers(n_samples)
        drawn = np.count_nonzero(cdf <= uniform[:, None], axis=1)
        picks = np.where(spread, drawn, picks)
        centroids[:, i] = data[rows, picks]
        new_dist = _pairwise_sq_distances(data, centroids[:, i : i + 1], data_sq, work)
        np.minimum(closest, new_dist[..., 0], out=closest)
    return centroids


def _lloyd(
    data: np.ndarray,
    data_sq: np.ndarray,
    centroids: np.ndarray,
    n_iters: int,
    tol: float,
    work: tuple[np.ndarray, np.ndarray],
) -> int:
    """Lloyd iterations on one problem, updating ``centroids`` in place.

    ``work`` is the ``(n_samples, n_clusters)`` distance workspace.
    Returns the number of iterations run.  Known defect: ``prev_inertia``
    starts at ``inf``, so the convergence test passes on the first
    iteration and the loop always stops after one.
    """
    n_samples = data.shape[0]
    n_clusters = centroids.shape[0]
    rows = np.arange(n_samples)
    prev_inertia = np.inf
    n_iter = 0
    for n_iter in range(1, n_iters + 1):
        distances = _pairwise_sq_distances(data, centroids, data_sq, work)
        assignments = np.argmin(distances, axis=1)
        closest = distances[rows, assignments]
        inertia = float(closest.sum())
        # Update step.
        counts = np.bincount(assignments, minlength=n_clusters).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, data)
        non_empty = counts > 0
        centroids[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Re-seed empty clusters at the points farthest from their centroid.
        empty = np.flatnonzero(~non_empty)
        if empty.size:
            farthest = np.argsort(-closest)
            centroids[empty] = data[farthest[: empty.size]]
        if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
            break
        prev_inertia = inertia
    return n_iter


def kmeans_batch(
    data: np.ndarray,
    n_clusters: int,
    rngs: Sequence[np.random.Generator],
    n_iters: int = 25,
    init: str = "kmeans++",
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``P`` independent problems, ``data`` of shape ``(P, n_samples, dim)``.

    ``rngs`` holds one generator per problem; each problem's result depends
    only on its own data and generator, and is bit-identical to clustering
    it alone.  Returns float64 centroids ``(P, n_clusters, dim)`` and the
    Lloyd iteration count of each problem (0 when ``n_samples <=
    n_clusters``: every sample is its own centroid, padded with jitter).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    require(data.ndim == 3, f"data must be 3-D (P, n, dim), got shape {data.shape}")
    require(data.shape[1] >= 1, "data must contain at least one sample")
    require(n_clusters >= 1, f"n_clusters must be >= 1, got {n_clusters}")
    require(n_iters >= 1, f"n_iters must be >= 1, got {n_iters}")
    require(init in ("kmeans++", "random"), f"unknown init {init!r}")
    require(
        len(rngs) == data.shape[0],
        f"need one generator per problem: {len(rngs)} for {data.shape[0]}",
    )
    require(bool(np.isfinite(data).all()), "data must be finite (found NaN or inf)")
    n_problems, n_samples, _ = data.shape
    n_iter = np.zeros(n_problems, dtype=np.int64)

    if n_samples <= n_clusters:
        centroids = [_pad_with_jitter(x, n_clusters, rng) for x, rng in zip(data, rngs)]
        return np.stack(centroids), n_iter

    data_sq = np.einsum("pnd,pnd->pn", data, data)
    if init == "kmeans++":
        centroids = _kmeans_plus_plus(data, data_sq, n_clusters, rngs)
    else:
        centroids = np.stack(
            [
                x[rng.choice(n_samples, size=n_clusters, replace=False)]
                for x, rng in zip(data, rngs)
            ]
        )
    work = _workspace((n_samples, n_clusters))
    for p in range(n_problems):
        n_iter[p] = _lloyd(data[p], data_sq[p], centroids[p], n_iters, tol, work)
    return centroids, n_iter


def kmeans(
    data: np.ndarray,
    n_clusters: int,
    n_iters: int = 25,
    seed: SeedLike = None,
    init: str = "kmeans++",
    tol: float = 1e-6,
) -> KMeansResult:
    """Cluster ``data`` of shape ``(n_samples, dim)`` into ``n_clusters`` groups.

    One problem of :func:`kmeans_batch`, plus the final assignment.  When
    ``n_samples <= n_clusters`` the surplus centroids are jittered copies of
    existing samples so the returned codebook always has the requested size.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    require(data.ndim == 2, f"data must be 2-D, got shape {data.shape}")
    (centroids,), (n_iter,) = kmeans_batch(
        data[None], n_clusters, [get_rng(seed)], n_iters=n_iters, init=init, tol=tol
    )
    n_samples = data.shape[0]
    if n_samples <= n_clusters:
        assignments = np.arange(n_samples)
        inertia = 0.0
    else:
        distances = _pairwise_sq_distances(data, centroids)
        assignments = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(n_samples), assignments].sum())
    return KMeansResult(
        centroids=centroids.astype(np.float32),
        assignments=assignments.astype(np.int64),
        inertia=inertia,
        n_iter=int(n_iter),
    )
