"""Tests for PQ codebooks, encode/decode, ADC and weighted decode."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support.reference import reference_encode, reference_pq_decode

from repro.core.codebook import SubspaceCodebooks, train_codebooks
from repro.core.config import MillionConfig
from repro.core.pq import ProductQuantizer
from repro.utils.bitpack import code_dtype
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def calibration_vectors():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(2000, 32)).astype(np.float32)
    vectors[:, 5] *= 6.0  # outlier channel
    return vectors


@pytest.fixture(scope="module")
def pq(calibration_vectors):
    return ProductQuantizer.fit(calibration_vectors, m_subspaces=8, nbits=6, seed=0)


class TestCodebooks:
    def test_training_shapes(self, calibration_vectors):
        codebooks = train_codebooks(calibration_vectors, m_subspaces=8, nbits=5, seed=0)
        assert codebooks.centroids.shape == (8, 32, 4)
        assert codebooks.m_subspaces == 8
        assert codebooks.n_centroids == 32
        assert codebooks.subspace_dim == 4
        assert codebooks.dim == 32
        assert codebooks.nbits == 5

    def test_memory_bytes(self, calibration_vectors):
        codebooks = train_codebooks(calibration_vectors, 4, 4, seed=0)
        assert codebooks.memory_bytes() == 4 * 16 * 8 * 2.0

    def test_split_vectors_validation(self, calibration_vectors):
        codebooks = train_codebooks(calibration_vectors, 4, 4, seed=0)
        with pytest.raises(Exception):
            codebooks.split_vectors(np.zeros((3, 16), dtype=np.float32))

    def test_npz_roundtrip(self, calibration_vectors):
        codebooks = train_codebooks(calibration_vectors, 4, 4, seed=0)
        restored = SubspaceCodebooks.from_npz_dict(codebooks.to_npz_dict())
        np.testing.assert_array_equal(restored.centroids, codebooks.centroids)

    def test_dim_not_divisible_rejected(self, calibration_vectors):
        with pytest.raises(Exception):
            train_codebooks(calibration_vectors, m_subspaces=5, nbits=4)

    @pytest.mark.parametrize(
        "nbits, dtype", [(6, np.uint8), (8, np.uint8), (12, np.uint16)]
    )
    def test_code_dtype_follows_nbits(self, nbits, dtype):
        rng = np.random.default_rng(nbits)
        codebooks = SubspaceCodebooks(rng.normal(size=(2, 2**nbits, 2)))
        assert codebooks.nbits == nbits
        quantizer = ProductQuantizer(codebooks)
        for _ in range(2):  # the dtype is cached after the first encode
            codes = quantizer.encode(rng.normal(size=(5, 4)).astype(np.float32))
            assert codes.dtype == dtype == code_dtype(nbits)

    def test_max_samples_subsampling(self, calibration_vectors):
        codebooks = train_codebooks(calibration_vectors, 4, 4, seed=0, max_samples=256)
        assert codebooks.centroids.shape == (4, 16, 8)


class TestEncodeDecode:
    def test_code_shape_and_range(self, pq, calibration_vectors):
        codes = pq.encode(calibration_vectors[:100])
        assert codes.shape == (100, 8)
        assert codes.max() < 64

    def test_reconstruction_better_than_zero(self, pq, calibration_vectors):
        x = calibration_vectors[:300]
        mse = pq.reconstruction_mse(x)
        assert mse < np.mean(x.astype(np.float64) ** 2)

    def test_decode_of_encode_is_nearest_centroid(self, pq, calibration_vectors):
        """Each decoded subvector must be the closest centroid to the input."""
        x = calibration_vectors[:20]
        decoded = pq.quantize(x)
        dsub = pq.subspace_dim
        for m in range(pq.m_subspaces):
            sub_x = x[:, m * dsub : (m + 1) * dsub]
            sub_hat = decoded[:, m * dsub : (m + 1) * dsub]
            distances = np.linalg.norm(
                sub_x[:, None, :] - pq.codebooks.centroids[m][None, :, :], axis=-1
            )
            best = distances.min(axis=1)
            achieved = np.linalg.norm(sub_x - sub_hat, axis=-1)
            np.testing.assert_allclose(achieved, best, atol=1e-5)

    def test_more_subspaces_reduce_error(self, calibration_vectors):
        coarse = ProductQuantizer.fit(calibration_vectors, 4, 6, seed=0)
        fine = ProductQuantizer.fit(calibration_vectors, 16, 6, seed=0)
        x = calibration_vectors[:200]
        assert fine.reconstruction_mse(x) < coarse.reconstruction_mse(x)

    def test_bits_per_value(self, pq):
        assert pq.bits_per_value() == pytest.approx(8 * 6 / 32)

    def test_code_memory_bytes_uses_bit_packing(self, pq):
        assert pq.code_memory_bytes(100) == pytest.approx((100 * 8 * 6 + 7) // 8)

    def test_bad_code_shape(self, pq):
        with pytest.raises(Exception):
            pq.decode(np.zeros((4, 5), dtype=np.int64))

    @given(
        nbits=st.sampled_from([6, 8, 12]),
        m_subspaces=st.integers(1, 4),
        subspace_dim=st.integers(1, 3),
        n_rows=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_gather_decode_equals_subspace_loop(
        self, nbits, m_subspaces, subspace_dim, n_rows, seed
    ):
        rng = np.random.default_rng(seed)
        quantizer = ProductQuantizer(
            SubspaceCodebooks(rng.normal(size=(m_subspaces, 2**nbits, subspace_dim)))
        )
        codes = rng.integers(0, 2**nbits, size=(n_rows, m_subspaces))
        codes = codes.astype(code_dtype(nbits))
        assert codes.dtype == (np.uint8 if nbits <= 8 else np.uint16)
        decoded = quantizer.decode(codes)
        assert decoded.dtype == np.float32
        np.testing.assert_array_equal(decoded, reference_pq_decode(quantizer, codes))

    @pytest.mark.parametrize("nbits", [4, 8, 12])
    @pytest.mark.parametrize("subspace_dim", [1, 2, 4])
    def test_row_gather_decode_bit_identical(self, subspace_dim, nbits):
        """Gathering whole centroid rows through the flat index equals the
        per-subspace lookup bit for bit, at every row width."""
        rng = np.random.default_rng(subspace_dim + nbits)
        m_subspaces = 16
        quantizer = ProductQuantizer(
            SubspaceCodebooks(rng.normal(size=(m_subspaces, 2**nbits, subspace_dim)))
        )
        codes = rng.integers(0, 2**nbits, size=(57, m_subspaces)).astype(code_dtype(nbits))
        flat = quantizer.flat_index(codes)
        assert flat.dtype == code_dtype(int(np.log2(m_subspaces)) + nbits)
        np.testing.assert_array_equal(
            flat, codes + np.arange(m_subspaces) * 2**nbits
        )
        want = reference_pq_decode(quantizer, codes)
        np.testing.assert_array_equal(quantizer.decode_flat(flat), want)
        np.testing.assert_array_equal(quantizer.decode(codes), want)
        np.testing.assert_array_equal(quantizer.decode(codes.astype(np.int64)), want)
        for bad in (2**nbits, -1):
            wide = codes.astype(np.int64)
            wide[5, 3] = bad
            with pytest.raises(ValueError):
                quantizer.flat_index(wide)

    @pytest.mark.parametrize("nbits", [6, 12])
    def test_code_out_of_range_raises(self, nbits):
        """A code >= K must not read the next subspace's table."""
        rng = np.random.default_rng(0)
        quantizer = ProductQuantizer(SubspaceCodebooks(rng.normal(size=(4, 2**nbits, 2))))
        codes = np.zeros((3, 4), dtype=code_dtype(nbits))
        codes[1, 0] = 2**nbits
        with pytest.raises((ValueError, IndexError)):
            quantizer.decode(codes)


class TestADC:
    def test_adc_equals_dequantized_dot_products(self, pq, calibration_vectors):
        """The core MILLION identity: LUT gathers == q · decode(codes)ᵀ."""
        rng = np.random.default_rng(1)
        codes = pq.encode(calibration_vectors[:64])
        queries = rng.normal(size=(5, 32)).astype(np.float32)
        luts = pq.build_score_luts(queries)
        adc = pq.adc_scores(luts, codes)
        exact = queries @ pq.decode(codes).T
        np.testing.assert_allclose(adc, exact, atol=1e-4)

    def test_adc_gather_bit_identical_to_subspace_loop(self, pq, calibration_vectors):
        """The take-based gather must match the naive per-subspace loop bitwise."""
        rng = np.random.default_rng(7)
        codes = pq.encode(calibration_vectors[:300])
        queries = rng.normal(size=(4, 32)).astype(np.float32)
        luts = pq.build_score_luts(queries)
        reference = np.zeros((4, codes.shape[0]), dtype=np.float32)
        for m in range(pq.m_subspaces):
            reference += luts[:, m, :][:, codes[:, m]]
        np.testing.assert_array_equal(pq.adc_scores(luts, codes), reference)

    def test_adc_scores_empty_keys(self, pq):
        luts = np.zeros((3, pq.m_subspaces, pq.n_centroids), dtype=np.float32)
        codes = np.zeros((0, pq.m_subspaces), dtype=np.uint8)
        assert pq.adc_scores(luts, codes).shape == (3, 0)

    def test_single_query_shapes(self, pq, calibration_vectors):
        codes = pq.encode(calibration_vectors[:10])
        query = np.random.default_rng(2).normal(size=32).astype(np.float32)
        lut = pq.build_score_luts(query)
        assert lut.shape == (8, 64)
        scores = pq.adc_scores(lut, codes)
        assert scores.shape == (10,)

    def test_weighted_decode_equals_naive(self, pq, calibration_vectors):
        """Aggregating probabilities per centroid == probs @ decode(codes)."""
        rng = np.random.default_rng(3)
        codes = pq.encode(calibration_vectors[:40])
        probs = rng.random((6, 40)).astype(np.float32)
        fast = pq.weighted_decode(probs, codes)
        naive = probs @ pq.decode(codes)
        np.testing.assert_allclose(fast, naive, atol=1e-4)

    def test_weighted_decode_single_query(self, pq, calibration_vectors):
        codes = pq.encode(calibration_vectors[:7])
        probs = np.random.default_rng(4).random(7).astype(np.float32)
        out = pq.weighted_decode(probs, codes)
        assert out.shape == (32,)

    def test_shape_mismatches_rejected(self, pq, calibration_vectors):
        codes = pq.encode(calibration_vectors[:4])
        with pytest.raises(Exception):
            pq.adc_scores(np.zeros((2, 7, 64), dtype=np.float32), codes)
        with pytest.raises(Exception):
            pq.weighted_decode(np.zeros((2, 9), dtype=np.float32), codes)

    @given(
        n_keys=st.integers(min_value=1, max_value=40),
        n_queries=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_adc_identity_property(self, pq, calibration_vectors, n_keys, n_queries, seed):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n_keys, 32)).astype(np.float32)
        queries = rng.normal(size=(n_queries, 32)).astype(np.float32)
        codes = pq.encode(keys)
        adc = pq.adc_scores(pq.build_score_luts(queries), codes)
        np.testing.assert_allclose(adc, queries @ pq.decode(codes).T, atol=1e-3)


def _encode_presets(head_dim=64):
    """``(M, nbits)`` of every ``for_equivalent_bits`` preset at ``head_dim``,
    plus one subspace dimension above ``_SMALL_SUBSPACE_DIM`` (the loop
    kernel)."""
    presets = set()
    for bits in (1, 2, 3, 4, 6, 8):
        for small in (False, True):
            try:
                config = MillionConfig.for_equivalent_bits(
                    head_dim, bits, prefer_small_codebooks=small
                )
            except ValidationError:
                continue  # M does not divide head_dim at this budget
            presets.add((config.m_subspaces, config.nbits))
    loop_subspaces = head_dim // (2 * ProductQuantizer._SMALL_SUBSPACE_DIM)
    return sorted(presets) + [(loop_subspaces, 6)]


ENCODE_PRESETS = _encode_presets()

#: Cap on the untiled reference's score tensor, which bounds ``n`` at the
#: 12-bit preset (K=4096).
_REFERENCE_SCORE_BYTES = 40 << 20


def _tie_quantizer(m_subspaces, nbits, dim=64, seed=0):
    """Random codebooks whose last centroid duplicates the first."""
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal(
        (m_subspaces, 2**nbits, dim // m_subspaces)
    ).astype(np.float32)
    centroids[:, -1] = centroids[:, 0]
    return ProductQuantizer(SubspaceCodebooks(centroids=centroids))


def _tie_vectors(pq, n, tie_share, seed):
    """Random vectors, a ``tie_share`` of whose subvectors are replaced by
    midpoints of centroid pairs: equidistant up to float rounding."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, pq.dim)).astype(np.float32)
    subvectors = vectors.reshape(n, pq.m_subspaces, pq.subspace_dim)
    centroids = pq.codebooks.centroids
    subspace = np.arange(pq.m_subspaces)
    first = rng.integers(0, pq.n_centroids, size=(n, pq.m_subspaces))
    second = rng.integers(0, pq.n_centroids, size=(n, pq.m_subspaces))
    midpoints = (centroids[subspace, first] + centroids[subspace, second]) / np.float32(2)
    ties = rng.random((n, pq.m_subspaces)) < tie_share
    subvectors[ties] = midpoints[ties]
    return vectors


def _assert_encode_matches_reference(pq, vectors):
    codes = pq.encode(vectors)
    expected = reference_encode(pq, vectors)
    assert codes.dtype == expected.dtype and codes.flags.c_contiguous
    np.testing.assert_array_equal(codes, expected)


class TestTiledEncode:
    """``encode`` assigns rows in tiles; codes equal one untiled pass."""

    def test_served_tile_is_16_rows(self):
        assert _tie_quantizer(32, 8).encode_tile_rows() == 16

    @pytest.mark.parametrize("m_subspaces,nbits", ENCODE_PRESETS)
    def test_tile_boundaries(self, m_subspaces, nbits):
        pq = _tie_quantizer(m_subspaces, nbits)
        tile = pq.encode_tile_rows()
        # 2 * tile + 1 leaves a lone last row (the duplicated-row GEMM).
        for n in sorted({0, 1, 2, tile - 1, tile, tile + 1, 2 * tile + 1}):
            _assert_encode_matches_reference(pq, _tie_vectors(pq, n, 0.5, seed=n))

    @settings(max_examples=40, deadline=None)
    @given(
        preset=st.sampled_from(ENCODE_PRESETS),
        n=st.integers(1, 600),
        tie_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @example(preset=(32, 8), n=600, tie_share=1.0, seed=0)
    @example(preset=(32, 8), n=33, tie_share=0.3, seed=1)
    def test_encode_equals_untiled_reference(self, preset, n, tie_share, seed):
        pq = _tie_quantizer(*preset, seed=seed)
        row_bytes = pq.m_subspaces * pq.n_centroids * 4
        n = min(n, _REFERENCE_SCORE_BYTES // row_bytes)
        _assert_encode_matches_reference(pq, _tie_vectors(pq, n, tie_share, seed))

    def test_transient_memory_is_one_tile(self):
        """4,096 vectors at the served M=32, K=256: the untiled score tensor
        alone was 128 MiB; a tile's is 512 KiB."""
        pq = _tie_quantizer(32, 8)
        vectors = _tie_vectors(pq, 4096, 0.0, seed=0)
        pq.encode(vectors[:2])  # caches the centroid norms
        tracemalloc.start()
        try:
            codes = pq.encode(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - codes.nbytes <= 1 << 20


class TestMillionConfig:
    def test_equivalent_bits_presets(self):
        cfg4 = MillionConfig.for_equivalent_bits(128, 4)
        assert (cfg4.m_subspaces, cfg4.nbits) == (64, 8)
        assert cfg4.bits_per_value(128) == pytest.approx(4.0)
        cfg3 = MillionConfig.for_equivalent_bits(128, 3)
        assert (cfg3.m_subspaces, cfg3.nbits) == (32, 12)
        assert cfg3.bits_per_value(128) == pytest.approx(3.0)

    def test_small_head_dim(self):
        cfg = MillionConfig.for_equivalent_bits(64, 4)
        assert cfg.bits_per_value(64) == pytest.approx(4.0)

    def test_validate_for_model(self, tiny_config):
        good = MillionConfig(m_subspaces=tiny_config.head_dim // 2, nbits=8)
        good.validate_for_model(tiny_config)
        bad = MillionConfig(m_subspaces=tiny_config.head_dim - 1, nbits=8)
        with pytest.raises(Exception):
            bad.validate_for_model(tiny_config)

    def test_invalid_fields(self):
        with pytest.raises(Exception):
            MillionConfig(m_subspaces=0)
        with pytest.raises(Exception):
            MillionConfig(nbits=0)
        with pytest.raises(Exception):
            MillionConfig(outlier_fraction=1.5)

    def test_with_updates(self):
        cfg = MillionConfig(m_subspaces=16, nbits=8)
        assert cfg.with_updates(recent_window=64).recent_window == 64
        assert cfg.recent_window == 0

    def test_unknown_bit_budget(self):
        with pytest.raises(Exception):
            MillionConfig.for_equivalent_bits(128, 5)
