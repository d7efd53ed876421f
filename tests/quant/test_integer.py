"""Tests for uniform integer quantization (Eq. 2/3) and its granularities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.integer import dequantize_uniform, quantize_uniform
from support.reference import quantization_mse


class TestQuantizeUniform:
    def test_codes_in_range_asymmetric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 32)).astype(np.float32)
        q = quantize_uniform(x, nbits=4)
        assert q.codes.min() >= 0 and q.codes.max() <= 15

    def test_codes_in_range_symmetric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 32)).astype(np.float32)
        q = quantize_uniform(x, nbits=4, symmetric=True)
        assert q.codes.min() >= -8 and q.codes.max() <= 7

    def test_roundtrip_error_bounded_by_step(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(100, 16)).astype(np.float32)
        q = quantize_uniform(x, nbits=8)
        step = float(q.params.scale.max())
        assert np.abs(q.dequantize() - x).max() <= step * 0.51 + 1e-6

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 64)).astype(np.float32)
        errors = [
            quantization_mse(x, quantize_uniform(x, nbits=b).dequantize()) for b in (2, 4, 8)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_per_channel_beats_per_tensor_with_channel_outliers(self):
        """The motivation of Fig. 2: outlier channels ruin per-tensor quantization.

        With one boosted channel, per-tensor scales stretch to cover it and the
        *other* channels lose nearly all resolution; per-channel parameters keep
        their resolution intact.
        """
        rng = np.random.default_rng(4)
        x = rng.normal(size=(256, 32)).astype(np.float32)
        x[:, 3] *= 50.0  # one outlier channel
        normal_channels = [c for c in range(32) if c != 3]
        per_tensor = quantize_uniform(x, 4).dequantize()
        per_channel = quantize_uniform(x, 4, keep_axes=(1,)).dequantize()
        mse_tensor = quantization_mse(x[:, normal_channels], per_tensor[:, normal_channels])
        mse_channel = quantization_mse(x[:, normal_channels], per_channel[:, normal_channels])
        assert mse_channel < mse_tensor / 10
        # Overall error (outlier channel included) is also better per-channel.
        assert quantization_mse(x, per_channel) < quantization_mse(x, per_tensor)

    def test_per_token_granularity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 16)).astype(np.float32)
        q = quantize_uniform(x, 4, keep_axes=(0,))
        assert q.params.scale.shape == (8, 1)

    def test_constant_tensor(self):
        x = np.full((4, 4), 3.25, dtype=np.float32)
        q = quantize_uniform(x, 4)
        np.testing.assert_allclose(q.dequantize(), x, atol=1e-3)

    def test_memory_accounting(self):
        x = np.zeros((100, 64), dtype=np.float32)
        q = quantize_uniform(x, 4)
        assert q.memory_bytes() == pytest.approx(100 * 64 * 0.5 + 2 * 2.0)

    def test_invalid_bits(self):
        with pytest.raises(Exception):
            quantize_uniform(np.zeros((2, 2)), 0)
        with pytest.raises(Exception):
            quantize_uniform(np.zeros((2, 2)), 20)

    @given(
        nbits=st.integers(min_value=2, max_value=8),
        symmetric=st.booleans(),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_dequantized_within_range_property(self, nbits, symmetric, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 6)).astype(np.float32) * rng.uniform(0.1, 10)
        q = quantize_uniform(x, nbits, symmetric=symmetric)
        x_hat = q.dequantize()
        margin = float(q.params.scale.max()) + 1e-5
        assert x_hat.min() >= x.min() - margin
        assert x_hat.max() <= x.max() + margin


class TestMetrics:
    def test_mse_zero_for_identical(self):
        x = np.random.default_rng(9).normal(size=(4, 4))
        assert quantization_mse(x, x) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantization_mse(np.zeros((2, 2)), np.zeros((3, 2)))
