"""PQ codebook containers and offline training (paper Fig. 4a).

A codebook set holds one ``(2**nbits, subspace_dim)`` centroid table per
subspace.  Training partitions calibration vectors into ``M`` subvectors and
clusters each subspace independently with k-means — channels that are harder
to quantize (outlier channels) naturally claim more centroid resolution,
which is the "outlier-immunized" property the title refers to.  The ``M``
problems are fitted in one :func:`~repro.quant.kmeans.kmeans_batch` call
whose k-means++ seeding is stacked over subspaces; each subspace keeps its
own generator, so its codebook is bit-identical to clustering it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.kmeans import kmeans_batch
from repro.utils.rng import SeedLike, get_rng, spawn_rngs
from repro.utils.validation import require, require_divisible


@dataclass
class SubspaceCodebooks:
    """Centroid tables for every PQ subspace.

    ``centroids`` has shape ``(m_subspaces, n_centroids, subspace_dim)``.
    """

    centroids: np.ndarray

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float32)
        require(
            self.centroids.ndim == 3,
            f"centroids must be 3-D (M, K, dsub), got shape {self.centroids.shape}",
        )

    @property
    def m_subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.centroids.shape[2]

    @property
    def dim(self) -> int:
        """Dimension of the full vectors this codebook quantizes."""
        return self.m_subspaces * self.subspace_dim

    @property
    def nbits(self) -> int:
        """Bits per code implied by the codebook size."""
        return int(np.ceil(np.log2(self.n_centroids)))

    def memory_bytes(self, bytes_per_value: float = 2.0) -> float:
        """GPU-resident codebook footprint (fp16 accounting)."""
        return float(self.centroids.size * bytes_per_value)

    def split_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Reshape ``(n, dim)`` vectors into ``(n, M, subspace_dim)`` subvectors."""
        vectors = np.asarray(vectors, dtype=np.float32)
        require(
            vectors.ndim == 2 and vectors.shape[1] == self.dim,
            f"vectors must have shape (n, {self.dim}), got {vectors.shape}",
        )
        return vectors.reshape(vectors.shape[0], self.m_subspaces, self.subspace_dim)

    def to_npz_dict(self) -> dict[str, np.ndarray]:
        """Arrays for ``numpy.savez`` persistence."""
        return {"centroids": self.centroids}

    @classmethod
    def from_npz_dict(cls, data: dict[str, np.ndarray]) -> "SubspaceCodebooks":
        return cls(centroids=np.asarray(data["centroids"]))


def train_codebooks(
    vectors: np.ndarray,
    m_subspaces: int,
    nbits: int,
    kmeans_iters: int = 15,
    seed: SeedLike = 0,
    max_samples: int | None = None,
) -> SubspaceCodebooks:
    """Train PQ codebooks on calibration ``vectors`` of shape ``(n, dim)``.

    Each of the ``m_subspaces`` slices of length ``dim / m_subspaces`` is
    clustered into ``2**nbits`` centroids with its own spawned generator;
    all slices are fitted together by one batched k-means call.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    require(vectors.ndim == 2, f"vectors must be 2-D, got shape {vectors.shape}")
    require(vectors.shape[0] >= 1, "need at least one calibration vector")
    require(m_subspaces >= 1, "m_subspaces must be >= 1")
    require(1 <= nbits <= 16, f"nbits must be in [1, 16], got {nbits}")
    dim = vectors.shape[1]
    require_divisible(dim, m_subspaces, "vector dim must be divisible by m_subspaces")
    rng = get_rng(seed)
    if max_samples is not None and vectors.shape[0] > max_samples:
        idx = rng.choice(vectors.shape[0], size=max_samples, replace=False)
        vectors = vectors[idx]
    subspace_dim = dim // m_subspaces
    subvectors = vectors.reshape(vectors.shape[0], m_subspaces, subspace_dim)
    centroids, _ = kmeans_batch(
        subvectors.transpose(1, 0, 2),
        2**nbits,
        spawn_rngs(rng, m_subspaces),
        n_iters=kmeans_iters,
    )
    return SubspaceCodebooks(centroids=centroids)
