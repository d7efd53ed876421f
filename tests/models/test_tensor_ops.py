"""Tests for the numerical primitives."""

import tracemalloc

import numpy as np
import pytest
from support.reference import reference_rms_norm, reference_softmax

from repro.models.tensor_ops import (
    NEG_INF,
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    rms_norm,
    silu,
    softmax,
)
from repro.models.transformer import Norm


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 9))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, rtol=1e-5)

    def test_invariant_to_shift(self):
        x = np.asarray([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_handles_large_values(self):
        out = softmax(np.asarray([1e4, 0.0, -1e4]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_axis(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_bit_identical_to_reference_with_masked_entries(self, dtype, axis):
        """Same IEEE operations in the same order as three temporaries,
        including rows whose entries are all masked to -1e30."""
        rng = np.random.default_rng(2)
        x = (rng.normal(size=(3, 7, 33)) * 8.0).astype(dtype)
        x[rng.random(x.shape) < 0.4] = NEG_INF
        x[1, 2] = NEG_INF
        x[:, :, 0] = NEG_INF
        before = x.copy()
        out = softmax(x, axis=axis)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, reference_softmax(x, axis=axis))
        np.testing.assert_array_equal(x, before)  # the input is not written

    def test_peak_memory_is_one_float64_copy_plus_output(self):
        """A prefill chunk's scores: the float64 work shares one buffer."""
        x = np.random.default_rng(3).normal(size=(4, 128, 1152)).astype(np.float32)
        softmax(x[:1, :2])
        tracemalloc.start()
        try:
            out = softmax(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float64_copy = x.size * np.dtype(np.float64).itemsize
        # Row maxima and sums are 1/1152 of the buffer each.
        assert peak <= float64_copy + out.nbytes + 64 * 1024


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = np.random.default_rng(2).normal(size=(6, 11))
        np.testing.assert_allclose(log_softmax(x), np.log(softmax(x) + 1e-12), atol=1e-4)

    def test_all_non_positive(self):
        x = np.random.default_rng(3).normal(size=(4, 4))
        assert (log_softmax(x) <= 1e-6).all()


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 5), -20.0, dtype=np.float32)
        targets = np.asarray([0, 3, 4])
        logits[np.arange(3), targets] = 20.0
        assert cross_entropy(logits, targets) < 1e-3

    def test_uniform_logits(self):
        logits = np.zeros((10, 7), dtype=np.float32)
        targets = np.zeros(10, dtype=np.int64)
        assert cross_entropy(logits, targets) == pytest.approx(np.log(7), rel=1e-4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(4), np.zeros(1, dtype=np.int64))


class TestNorms:
    def test_rms_norm_unit_scale(self):
        x = np.random.default_rng(4).normal(size=(8, 16)).astype(np.float32)
        out = rms_norm(x, np.ones(16))
        rms = np.sqrt(np.mean(out.astype(np.float64) ** 2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(5).normal(size=(8, 32)).astype(np.float32)
        out = layer_norm(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-2)

    def test_layer_norm_bias_shift(self):
        x = np.random.default_rng(6).normal(size=(4, 8)).astype(np.float32)
        shifted = layer_norm(x, np.ones(8), np.full(8, 2.0))
        base = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(shifted, base + 2.0, atol=1e-5)

    @pytest.mark.parametrize("rows", [1, 4, 32])
    def test_rms_norm_matches_the_mean_formula_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 48)).astype(np.float32)
        weight = rng.normal(size=48).astype(np.float32)
        want = reference_rms_norm(x, weight)
        for got in (
            rms_norm(x, weight),
            rms_norm(x, weight.astype(np.float64)),
            Norm("rmsnorm", weight)(x),
        ):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    def test_weight_scaling(self):
        x = np.random.default_rng(7).normal(size=(4, 8)).astype(np.float32)
        np.testing.assert_allclose(
            rms_norm(x, 2.0 * np.ones(8)), 2.0 * rms_norm(x, np.ones(8)), rtol=1e-5
        )


class TestActivations:
    def test_silu_at_zero(self):
        assert silu(np.asarray([0.0]))[0] == pytest.approx(0.0)

    def test_silu_positive_large(self):
        assert silu(np.asarray([20.0]))[0] == pytest.approx(20.0, rel=1e-3)

    def test_gelu_monotone_for_positive_inputs(self):
        x = np.linspace(0.0, 3.0, 50)
        out = gelu(x)
        assert (np.diff(out) > 0).all()

    def test_gelu_known_value(self):
        # gelu(-1) ≈ -0.1588 for the tanh approximation.
        assert gelu(np.asarray([-1.0]))[0] == pytest.approx(-0.1588, abs=1e-3)

    def test_gelu_at_zero(self):
        assert gelu(np.asarray([0.0]))[0] == pytest.approx(0.0)
