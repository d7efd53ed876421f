"""Product quantizer: encode/decode, score lookup tables and ADC.

The paper's two hot operations, vectorised in NumPy:

* :meth:`ProductQuantizer.encode` — on-the-fly quantization of every flushed
  key/value (Eq. 4), the write path of the serving cache;
* :meth:`ProductQuantizer.decode_flat` — reconstruction as one row gather
  over the flattened centroid table, which every MILLION ``attend`` runs
  before its two GEMMs.

The ADC kernels of Eq. 7 — :meth:`ProductQuantizer.build_score_luts`,
:meth:`ProductQuantizer.adc_scores` and
:meth:`ProductQuantizer.weighted_decode`, which score and aggregate straight
from the codes — are kept as the reference the reconstruction path is
checked against; serving does not call them.
"""

from __future__ import annotations

import numpy as np

from repro.core.codebook import SubspaceCodebooks, train_codebooks
from repro.utils.bitpack import bits_required, code_dtype, packed_nbytes
from repro.utils.rng import SeedLike
from repro.utils.validation import ValidationError, require


class ProductQuantizer:
    """Encode/decode vectors against a fixed set of subspace codebooks."""

    #: Largest subspace dimension for which the batched-GEMM contraction is
    #: used.  With a contraction this short there is a single k-block and a
    #: fixed two-or-three-term accumulation chain, so GEMM row results are
    #: invariant to the row count (for >= 2 rows; a unit test pins this);
    #: longer contractions fall back to the explicitly row-invariant d-loop.
    _SMALL_SUBSPACE_DIM = 8

    #: Budget of one :meth:`encode` tile's ``(M, rows, K)`` float32 scores:
    #: 16 rows at M=32, K=256.  The whole-call score tensor left cache from
    #: a few hundred rows on, and set the serving process's peak memory.
    _ENCODE_TILE_BYTES = 512 * 1024

    #: Budget of the intp copy numpy makes of one :meth:`decode_flat`
    #: gather's index: 1,024 vectors at M=32.  Untiled, reconstructing
    #: 1,024 tokens x 4 heads copied a 1 MiB index per side.
    _DECODE_TILE_BYTES = 256 * 1024

    def __init__(self, codebooks: SubspaceCodebooks) -> None:
        self.codebooks = codebooks
        # Cached ||c||^2 and transposed centroid tables for the encode / LUT
        # kernels (keyed by dtype for the transposed tables).
        self._centroid_sq_norms: np.ndarray | None = None
        self._half_sq_norms_f32: np.ndarray | None = None
        self._centroids_t: dict[str, np.ndarray] = {}
        self._folded: np.ndarray | None = None
        # The centroid table with one item per centroid row (decode_flat),
        # and each subspace's first row in it (flat_index).
        self._centroid_rows: np.ndarray | None = None
        self._decode_tile = max(1, self._DECODE_TILE_BYTES // (8 * codebooks.m_subspaces))
        self._flat_offsets: np.ndarray | None = None
        self._code_dtype: np.dtype | None = None

    def centroid_sq_norms(self) -> np.ndarray:
        """``(M, K)`` squared centroid norms in float64 (cached)."""
        if self._centroid_sq_norms is None:
            centroids = self.codebooks.centroids.astype(np.float64)
            self._centroid_sq_norms = np.einsum("mkd,mkd->mk", centroids, centroids)
        return self._centroid_sq_norms

    def centroids_transposed(self, dtype=np.float32) -> np.ndarray:
        """``(M, subspace_dim, K)`` contiguous centroid tables (cached).

        The subspace-batched GEMMs (encode distances, LUT build) and the
        contiguous-stride decode einsum all contract against this layout.
        """
        key = np.dtype(dtype).str
        cached = self._centroids_t.get(key)
        if cached is None:
            cached = np.ascontiguousarray(
                self.codebooks.centroids.transpose(0, 2, 1).astype(dtype)
            )
            self._centroids_t[key] = cached
        return cached

    def _subspace_cross(self, sub_t: np.ndarray, dtype) -> np.ndarray:
        """Row-invariant ``(M, n, K)`` product of per-subspace rows with centroids.

        ``sub_t`` is ``(M, n, subspace_dim)``.  Small subspace dims use one
        batched GEMM per subspace (row-invariant for >= 2 rows at these
        contraction lengths; single rows are duplicated and sliced like
        :func:`~repro.models.tensor_ops.paired_rows_matmul`); larger dims use
        an explicit loop over the subspace dimension whose accumulation
        order is fixed by construction.
        """
        centroids_t = self.centroids_transposed(dtype)
        m_subspaces, n, dsub = sub_t.shape
        if dsub <= self._SMALL_SUBSPACE_DIM:
            if n == 1:
                doubled = np.concatenate([sub_t, sub_t], axis=1)
                return np.matmul(doubled, centroids_t)[:, :1, :]
            return np.matmul(sub_t, centroids_t)
        cross = np.zeros((m_subspaces, n, self.n_centroids), dtype=dtype)
        for d in range(dsub):
            cross += sub_t[:, :, d, None] * centroids_t[:, None, d, :]
        return cross

    # Construction ----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        vectors: np.ndarray,
        m_subspaces: int,
        nbits: int,
        kmeans_iters: int = 15,
        seed: SeedLike = 0,
        max_samples: int | None = None,
    ) -> "ProductQuantizer":
        """Train codebooks on calibration ``vectors`` and return a quantizer."""
        codebooks = train_codebooks(
            vectors,
            m_subspaces,
            nbits,
            kmeans_iters=kmeans_iters,
            seed=seed,
            max_samples=max_samples,
        )
        return cls(codebooks)

    # Properties --------------------------------------------------------------

    @property
    def m_subspaces(self) -> int:
        return self.codebooks.m_subspaces

    @property
    def n_centroids(self) -> int:
        return self.codebooks.n_centroids

    @property
    def subspace_dim(self) -> int:
        return self.codebooks.subspace_dim

    @property
    def dim(self) -> int:
        return self.codebooks.dim

    @property
    def nbits(self) -> int:
        return self.codebooks.nbits

    def bits_per_value(self) -> float:
        """Effective bits per stored scalar."""
        return self.m_subspaces * self.nbits / self.dim

    # Encode / decode ---------------------------------------------------------

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize ``(n, dim)`` vectors to ``(n, M)`` centroid indices (Eq. 4).

        Rows are assigned in tiles of :meth:`encode_tile_rows`, so the
        ``(M, rows, K)`` float32 score block stays within
        ``_ENCODE_TILE_BYTES`` (and in cache) whatever ``n`` is.  A row's
        codes depend only on that row: the distance kernel is row-invariant
        (see :meth:`_subspace_cross`) and the argmax is per row, so the codes
        do not depend on the tiling or on how many rows share the call.
        """
        subvectors = self.codebooks.split_vectors(vectors)
        n = subvectors.shape[0]
        if self._code_dtype is None:
            self._code_dtype = code_dtype(self.nbits)
        codes = np.empty((n, self.m_subspaces), dtype=self._code_dtype)
        tile = self.encode_tile_rows()
        for start in range(0, n, tile):
            # argmin_k ||x - c_k||^2 == argmax_k (x.c_k - ||c_k||^2 / 2): the
            # ||x||^2 term is constant per row and dropped, halving the passes
            # over the score block.
            scores = self._encode_scores(subvectors[start : start + tile])
            codes[start : start + tile] = np.argmax(scores, axis=2).T
            del scores  # one score block alive at a time
        return codes

    def _encode_scores(self, subvectors: np.ndarray) -> np.ndarray:
        """``(M, rows, K)`` float32 ``x.c_k - ||c_k||^2 / 2`` of ``(rows, M,
        subspace_dim)`` subvectors.

        Small subspace dims fold the norm term into the GEMM: a ones column
        on the rows meets a ``-||c_k||^2 / 2`` row appended to the centroid
        tables (:meth:`_folded_centroids`).  The short contraction is
        accumulated in order, so that term lands last, in the same rounding
        step as the separate subtraction it replaces: the scores equal
        :meth:`_subspace_cross` minus the norms bit for bit (a test compares
        every score at each such preset), without a second pass over the
        score block.  Single rows are duplicated and sliced, as there.
        """
        rows, m_subspaces, dsub = subvectors.shape
        if dsub > self._SMALL_SUBSPACE_DIM:
            sub_t = np.ascontiguousarray(subvectors.transpose(1, 0, 2))
            scores = self._subspace_cross(sub_t, np.float32)
            scores -= self._half_sq_norms()
            return scores
        sub_t = np.empty((m_subspaces, max(rows, 2), dsub + 1), dtype=np.float32)
        sub_t[:, :rows, :dsub] = subvectors.transpose(1, 0, 2)
        sub_t[:, :, dsub] = 1.0
        if rows == 1:
            sub_t[:, 1] = sub_t[:, 0]
        return np.matmul(sub_t, self._folded_centroids())[:, :rows]

    def _folded_centroids(self) -> np.ndarray:
        """``(M, subspace_dim + 1, K)`` centroid tables with a last row of
        ``-||c_k||^2 / 2`` (cached; see :meth:`_encode_scores`)."""
        if self._folded is None:
            m_subspaces, n_centroids, dsub = self.codebooks.centroids.shape
            folded = np.empty((m_subspaces, dsub + 1, n_centroids), dtype=np.float32)
            folded[:, :dsub] = self.codebooks.centroids.transpose(0, 2, 1)
            folded[:, dsub:] = -self._half_sq_norms()
            self._folded = folded
        return self._folded

    def _half_sq_norms(self) -> np.ndarray:
        """``(M, 1, K)`` float32 ``||c_k||^2 / 2`` (cached)."""
        if self._half_sq_norms_f32 is None:
            self._half_sq_norms_f32 = (
                0.5 * self.centroid_sq_norms()
            ).astype(np.float32)[:, None, :]
        return self._half_sq_norms_f32

    def encode_tile_rows(self) -> int:
        """Rows per :meth:`encode` tile: the most whose ``(M, rows, K)``
        float32 scores fit ``_ENCODE_TILE_BYTES``, and at least two, the
        smallest GEMM the row-invariance contract covers."""
        row_bytes = self.m_subspaces * self.n_centroids * np.dtype(np.float32).itemsize
        return max(2, self._ENCODE_TILE_BYTES // row_bytes)

    @property
    def flat_index_dtype(self) -> np.dtype:
        """Narrowest unsigned dtype holding every :meth:`flat_index` entry."""
        return code_dtype(bits_required(self.m_subspaces * self.n_centroids))

    def flat_index(self, codes: np.ndarray) -> np.ndarray:
        """Rows ``m * K + code`` of ``(n, M)`` codes in the flattened centroid table.

        The index :meth:`decode_flat` gathers with, in
        :attr:`flat_index_dtype`.  Codes outside ``[0, K)`` are rejected:
        their row would belong to a neighbouring subspace's table.  The range
        scan is skipped when the code dtype cannot hold ``K``.
        """
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.m_subspaces:
            raise ValidationError(
                f"codes must have shape (n, {self.m_subspaces}), got {codes.shape}"
            )
        offsets = self._flat_offsets
        if offsets is None:
            offsets = (np.arange(self.m_subspaces) * self.n_centroids).astype(
                self.flat_index_dtype
            )
            self._flat_offsets = offsets
        n_centroids = self.n_centroids
        if codes.dtype.kind == "u" and (1 << 8 * codes.dtype.itemsize) <= n_centroids:
            # Every value of the dtype is a valid code, and the sum promotes
            # to the offsets' (wider) dtype.
            return np.add(codes, offsets)
        if codes.size and not (codes.min() >= 0 and codes.max() < n_centroids):
            raise ValidationError(f"codes must lie in [0, {n_centroids})")
        return np.add(codes, offsets, dtype=offsets.dtype, casting="unsafe")

    def decode_flat(
        self, flat_index: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Reconstruct ``(n, dim)`` vectors from ``(n, M)`` :meth:`flat_index` rows.

        One ``np.take`` over the ``(M * K, subspace_dim)`` centroid table
        viewed with one item per centroid row, so each gathered element is a
        whole ``subspace_dim`` row: a pure copy, equal to the per-subspace
        lookup bit for bit.  The rows land in ``out`` (a C-contiguous float32
        ``(n, dim)`` array, allocated when not given), which is returned.
        Vectors are gathered in tiles of ``_DECODE_TILE_BYTES`` of intp
        index.  Indices are not range-checked here (:meth:`flat_index` checks
        the codes): the gather wraps, which lets it write ``out`` unbuffered.
        """
        if self._centroid_rows is None:
            table = np.ascontiguousarray(self.codebooks.centroids, dtype=np.float32)
            row_bytes = table.itemsize * self.subspace_dim
            row = (
                np.dtype(f"u{row_bytes}")
                if row_bytes in (4, 8)
                else np.dtype((np.void, row_bytes))
            )
            self._centroid_rows = table.reshape(-1, self.subspace_dim).view(row)[:, 0]
        if out is None:
            out = np.empty((flat_index.shape[0], self.dim), dtype=np.float32)
        rows, tile = self._centroid_rows, self._decode_tile
        into = out.view(rows.dtype)
        for start in range(0, flat_index.shape[0], tile):
            stop = start + tile
            np.take(rows, flat_index[start:stop], out=into[start:stop], mode="wrap")
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``(n, dim)`` vectors from centroid indices (Eq. 5)."""
        return self.decode_flat(self.flat_index(codes))

    def quantize(self, vectors: np.ndarray) -> np.ndarray:
        """Round-trip convenience: ``decode(encode(vectors))``."""
        return self.decode(self.encode(vectors))

    def reconstruction_mse(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error on ``vectors``."""
        vectors = np.asarray(vectors, dtype=np.float32)
        return float(np.mean((vectors - self.quantize(vectors)) ** 2))

    # Asymmetric distance computation -----------------------------------------

    def build_score_luts(
        self, queries: np.ndarray, subspace_major: bool = False
    ) -> np.ndarray:
        """Dot-product lookup tables for ``(n_queries, dim)`` queries.

        Returns ``(n_queries, M, K)`` by default, or ``(M, n_queries, K)``
        with ``subspace_major=True`` — the layout the flat ADC gather kernel
        wants (each subspace's tables contiguous).  The contraction kernel is
        row-invariant (see :meth:`_subspace_cross`), so entries are
        bit-identical across layouts and across how many queries share the
        call.
        """
        queries = np.asarray(queries, dtype=np.float32)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        subqueries = self.codebooks.split_vectors(queries)  # (nq, M, dsub)
        sub_t = np.ascontiguousarray(subqueries.transpose(1, 0, 2))  # (M, nq, dsub)
        luts = self._subspace_cross(sub_t, np.float32)  # (M, nq, K)
        if not subspace_major:
            luts = np.ascontiguousarray(luts.transpose(1, 0, 2))
        if single:
            return luts[:, 0, :] if subspace_major else luts[0]
        return luts

    def adc_scores(self, luts: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Sum LUT entries selected by ``codes``: exact ``q · decode(codes)ᵀ``.

        ``luts`` has shape ``(n_queries, M, K)`` (or ``(M, K)`` for a single
        query) and ``codes`` has shape ``(n_keys, M)``; the result has shape
        ``(n_queries, n_keys)`` (or ``(n_keys,)``).
        """
        luts = np.asarray(luts, dtype=np.float32)
        codes = np.asarray(codes)
        single = luts.ndim == 2
        if single:
            luts = luts[None, ...]
        require(
            luts.shape[1] == self.m_subspaces,
            f"luts second dim must be {self.m_subspaces}, got {luts.shape[1]}",
        )
        require(
            codes.ndim == 2 and codes.shape[1] == self.m_subspaces,
            f"codes must have shape (n, {self.m_subspaces}), got {codes.shape}",
        )
        n_queries = luts.shape[0]
        n_keys = codes.shape[0]
        # Gather formulation: one flat np.take per subspace into a
        # preallocated buffer.  Making the per-subspace LUT rows contiguous
        # up front turns each gather into a stride-free table lookup and
        # avoids the two fancy-indexing temporaries per subspace of the
        # naive ``luts[:, m, :][:, codes[:, m]]`` form (1.5-3x faster, and
        # bit-identical because the accumulation order is unchanged).
        luts_by_subspace = np.ascontiguousarray(luts.transpose(1, 0, 2))
        scores = np.zeros((n_queries, n_keys), dtype=np.float32)
        gathered = np.empty((n_queries, n_keys), dtype=np.float32)
        for m in range(self.m_subspaces):
            np.take(luts_by_subspace[m], codes[:, m], axis=1, out=gathered)
            scores += gathered
        return scores[0] if single else scores

    def weighted_decode(self, probs: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Probability-weighted sum of decoded vectors without full de-quantization.

        ``probs`` has shape ``(n_queries, n_keys)`` and ``codes`` shape
        ``(n_keys, M)``; returns ``(n_queries, dim)`` equal to
        ``probs @ decode(codes)`` but computed by first aggregating the
        probability mass landing on each centroid of each subspace.
        """
        probs = np.asarray(probs, dtype=np.float32)
        codes = np.asarray(codes)
        single = probs.ndim == 1
        if single:
            probs = probs[None, :]
        require(
            codes.ndim == 2 and codes.shape[1] == self.m_subspaces,
            f"codes must have shape (n, {self.m_subspaces}), got {codes.shape}",
        )
        require(
            probs.shape[1] == codes.shape[0],
            f"probs keys dim {probs.shape[1]} != codes rows {codes.shape[0]}",
        )
        n_queries = probs.shape[0]
        dsub = self.subspace_dim
        out = np.empty((n_queries, self.dim), dtype=np.float32)
        query_index = np.arange(n_queries)[:, None]
        for m in range(self.m_subspaces):
            aggregated = np.zeros((n_queries, self.n_centroids), dtype=np.float32)
            np.add.at(aggregated, (query_index, codes[None, :, m]), probs)
            out[:, m * dsub : (m + 1) * dsub] = aggregated @ self.codebooks.centroids[m]
        return out[0] if single else out

    # Memory accounting ---------------------------------------------------------

    def code_memory_bytes(self, n_vectors: int) -> float:
        """Bit-packed footprint of ``n_vectors`` encoded vectors."""
        return float(packed_nbytes(n_vectors * self.m_subspaces, self.nbits))

    def codebook_memory_bytes(self, bytes_per_value: float = 2.0) -> float:
        return self.codebooks.memory_bytes(bytes_per_value)
