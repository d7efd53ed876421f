"""Tests for non-uniform quantization and outlier isolation."""

import numpy as np
import pytest

from repro.quant.integer import quantize_uniform
from repro.quant.nuq import NonUniformQuantizer1D
from repro.quant.outliers import SparseOutliers, outlier_threshold, split_outliers
from support.reference import quantization_mse


class TestNonUniformQuantizer:
    def test_roundtrip_shape(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(500, 8)).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=4).fit(data, seed=0)
        codes = quantizer.encode(data[:50])
        assert codes.shape == (50, 8)
        assert quantizer.decode(codes).shape == (50, 8)

    def test_codes_within_levels(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(300, 4)).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=3).fit(data, seed=0)
        codes = quantizer.encode(data)
        assert codes.max() < 8

    def test_beats_uniform_on_clustered_data(self):
        """Non-uniform levels adapt to clustered (non-uniform) distributions.

        With data concentrated around a few modes, a 2-bit uniform grid wastes
        levels between the modes while k-means places its levels on them.
        """
        rng = np.random.default_rng(2)
        modes = np.asarray([-6.0, -0.5, 0.7, 5.0])
        assignments = rng.integers(0, 4, size=(2000, 4))
        data = (modes[assignments] + rng.normal(0, 0.05, size=(2000, 4))).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=2).fit(data, seed=0)
        nuq_mse = quantization_mse(data, quantizer.quantize(data))
        uniform_mse = quantization_mse(data, quantize_uniform(data, 2, keep_axes=(1,)).dequantize())
        assert nuq_mse < uniform_mse / 2

    def test_unfitted_raises(self):
        quantizer = NonUniformQuantizer1D(nbits=4)
        with pytest.raises(RuntimeError):
            quantizer.encode(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(RuntimeError):
            quantizer.decode(np.zeros((2, 2), dtype=np.uint8))

    def test_channel_mismatch_rejected(self):
        data = np.random.default_rng(3).normal(size=(100, 4)).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=2).fit(data, seed=0)
        with pytest.raises(Exception):
            quantizer.encode(np.zeros((10, 5), dtype=np.float32))

    def test_codebook_bytes(self):
        data = np.random.default_rng(4).normal(size=(100, 4)).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=2).fit(data, seed=0)
        assert quantizer.codebook_bytes() == 4 * 4 * 2.0

    def test_monotone_levels(self):
        data = np.random.default_rng(5).normal(size=(200, 3)).astype(np.float32)
        quantizer = NonUniformQuantizer1D(nbits=3).fit(data, seed=0)
        assert (np.diff(quantizer.levels, axis=1) >= 0).all()


class TestOutlierThreshold:
    def test_fraction_zero(self):
        assert outlier_threshold(np.ones(10), 0.0) == float("inf")

    def test_top_fraction(self):
        x = np.arange(100, dtype=np.float32)
        threshold = outlier_threshold(x, 0.1)
        assert threshold == pytest.approx(90.0)

    def test_invalid_fraction(self):
        with pytest.raises(Exception):
            outlier_threshold(np.ones(4), 1.5)


class TestSplitOutliers:
    def test_counts_and_restoration(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 10)).astype(np.float32)
        x[5, 5] = 100.0
        clamped, sparse = split_outliers(x, 0.01)
        assert sparse.count == pytest.approx(0.01 * x.size, abs=3)
        assert np.abs(clamped).max() < 100.0
        restored = sparse.restore(clamped)
        assert restored[5, 5] == pytest.approx(100.0)

    def test_restore_shape_check(self):
        x = np.random.default_rng(7).normal(size=(10, 4)).astype(np.float32)
        _, sparse = split_outliers(x, 0.05)
        with pytest.raises(ValueError):
            sparse.restore(np.zeros((4, 10), dtype=np.float32))

    def test_zero_fraction_identity(self):
        x = np.random.default_rng(8).normal(size=(20, 3)).astype(np.float32)
        clamped, sparse = split_outliers(x, 0.0)
        np.testing.assert_array_equal(clamped, x)
        assert sparse.count == 0
        assert sparse.memory_bytes() == 0.0

    def test_quantization_improves_after_outlier_removal(self):
        """The Table III mechanism: clamping outliers shrinks the range."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(256, 16)).astype(np.float32)
        x[rng.random(x.shape) < 0.01] *= 40.0
        direct = quantization_mse(x, quantize_uniform(x, 3).dequantize())
        clamped, sparse = split_outliers(x, 0.01)
        filtered = sparse.restore(quantize_uniform(clamped, 3).dequantize())
        assert quantization_mse(x, filtered) < direct / 5

    def test_memory_bytes(self):
        x = np.zeros((10, 10), dtype=np.float32)
        x[0, 0] = 5.0
        _, sparse = split_outliers(x, 0.01)
        assert sparse.memory_bytes() == sparse.count * 6.0
