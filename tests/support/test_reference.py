"""Tests of the oracles' own helpers."""

import numpy as np
import pytest

from support.reference import repeat_kv_heads


class TestRepeatKVHeads:
    def test_noop_when_equal(self):
        kv = np.random.default_rng(0).normal(size=(5, 4, 8))
        assert repeat_kv_heads(kv, 4) is kv

    def test_expansion(self):
        kv = np.arange(2 * 2 * 3).reshape(2, 2, 3)
        out = repeat_kv_heads(kv, 4)
        assert out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out[:, 0], out[:, 1])
        np.testing.assert_array_equal(out[:, 2], out[:, 3])

    def test_invalid_multiple(self):
        with pytest.raises(ValueError):
            repeat_kv_heads(np.zeros((1, 3, 2)), 4)
