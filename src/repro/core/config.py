"""Configuration of the MILLION product-quantized KV cache."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.models.config import ModelConfig
from repro.utils.validation import require, require_divisible


@dataclass(frozen=True)
class MillionConfig:
    """Hyper-parameters of MILLION quantization.

    Attributes
    ----------
    m_subspaces:
        Number of PQ subspaces ``M``; must divide the head dimension.
    nbits:
        Bits per subspace code; the per-subspace codebook has ``2**nbits``
        centroids.
    recent_window:
        Number of most-recent tokens kept in full precision (the paper's
        "residual block"; 0 reproduces the stress setting of Fig. 6).
    calibration_samples:
        Maximum number of key/value vectors sampled per layer for codebook
        training.
    kmeans_iters:
        Lloyd iterations used during codebook training.  Known defect: the
        convergence test always passes after the first iteration, so
        training runs one Lloyd iteration whatever this is set to.
    outlier_fraction:
        Fraction of entries stored as sparse full-precision corrections on
        top of PQ (only used by the Table III sensitivity study; MILLION's
        claim is that 0.0 is enough).
    seed:
        Seed for codebook training.
    """

    m_subspaces: int = 32
    nbits: int = 8
    recent_window: int = 0
    calibration_samples: int = 8192
    kmeans_iters: int = 15
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.m_subspaces >= 1, "m_subspaces must be >= 1")
        require(1 <= self.nbits <= 16, f"nbits must be in [1, 16], got {self.nbits}")
        require(self.recent_window >= 0, "recent_window must be >= 0")
        require(self.calibration_samples >= 1, "calibration_samples must be >= 1")
        require(self.kmeans_iters >= 1, "kmeans_iters must be >= 1")
        require(0.0 <= self.outlier_fraction < 1.0, "outlier_fraction must be in [0, 1)")

    @property
    def n_centroids(self) -> int:
        """Codebook size per subspace."""
        return 2**self.nbits

    def bits_per_value(self, head_dim: int) -> float:
        """Effective bits per cached scalar (the paper's "3b"/"4b" labels)."""
        require(head_dim >= self.m_subspaces, "head_dim must be >= m_subspaces")
        return self.m_subspaces * self.nbits / head_dim

    def subspace_dim(self, head_dim: int) -> int:
        """Dimension of each PQ subvector."""
        require_divisible(head_dim, self.m_subspaces, "head_dim must be divisible by M")
        return head_dim // self.m_subspaces

    def validate_for_model(self, model_config: ModelConfig) -> None:
        """Raise if this configuration cannot quantize the given model."""
        self.subspace_dim(model_config.head_dim)

    def with_updates(self, **kwargs) -> "MillionConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def for_equivalent_bits(
        cls,
        head_dim: int,
        bits: int,
        recent_window: int = 0,
        prefer_small_codebooks: bool = False,
        **kwargs,
    ) -> "MillionConfig":
        """Pick ``(M, nbits)`` matching the paper's bit-budget configurations.

        The paper scanned ``(M, nbits)`` combinations and reports (64, 8) for
        4-bit and (32, 12) for 3-bit at ``head_dim = 128``; the same ratios
        are used here for any head dimension (``M = head_dim / 2`` with 8-bit
        codes for 4-bit, ``M = head_dim / 4`` with 12-bit codes for 3-bit).

        ``prefer_small_codebooks`` swaps the 3-bit preset for
        ``(head_dim / 2, 6)`` — the same bit budget with 64-entry codebooks —
        which trains orders of magnitude faster on the tiny evaluation models
        (the (M, nbits) ablation benchmark explores the full trade-off).
        """
        require(head_dim >= 8, "head_dim must be >= 8")
        mapping = {
            8: (head_dim, 8),
            6: (3 * head_dim // 4, 8),
            4: (head_dim // 2, 8),
            3: (head_dim // 4, 12),
            2: (head_dim // 4, 8),
            1: (head_dim // 8, 8),
        }
        if prefer_small_codebooks:
            mapping[3] = (head_dim // 2, 6)
            mapping[2] = (head_dim // 2, 4)
        require(bits in mapping, f"no (M, nbits) preset for {bits}-bit budget")
        m_subspaces, nbits = mapping[bits]
        require_divisible(head_dim, m_subspaces, "head_dim must be divisible by M")
        config = cls(
            m_subspaces=m_subspaces, nbits=nbits, recent_window=recent_window, **kwargs
        )
        return config
