"""Unit and property tests for code widths and packed sizes."""

import numpy as np
import pytest

from repro.utils.bitpack import bits_required, code_dtype, packed_nbytes


class TestBitsRequired:
    def test_powers_of_two(self):
        assert bits_required(2) == 1
        assert bits_required(256) == 8
        assert bits_required(4096) == 12

    def test_non_powers(self):
        assert bits_required(3) == 2
        assert bits_required(257) == 9

    def test_single_value(self):
        assert bits_required(1) == 1

    def test_invalid(self):
        with pytest.raises(Exception):
            bits_required(0)


class TestCodeDtype:
    def test_small(self):
        assert code_dtype(8) == np.uint8

    def test_medium(self):
        assert code_dtype(12) == np.uint16

    def test_large(self):
        assert code_dtype(20) == np.uint32

    def test_out_of_range(self):
        with pytest.raises(Exception):
            code_dtype(0)
        with pytest.raises(Exception):
            code_dtype(64)


class TestPackedNbytes:
    def test_exact_byte_boundary(self):
        assert packed_nbytes(8, 8) == 8
        assert packed_nbytes(2, 4) == 1

    def test_rounds_up(self):
        assert packed_nbytes(3, 3) == 2
        assert packed_nbytes(1, 12) == 2

    def test_compression_vs_fp16(self):
        # 4-bit-equivalent MILLION codes: (M=32, nbits=8) for head_dim 64.
        fp16_bytes = 64 * 2
        code_bytes = packed_nbytes(32, 8)
        assert code_bytes * 4 == fp16_bytes
