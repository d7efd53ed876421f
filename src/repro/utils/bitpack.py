"""Storage widths of sub-byte quantization codes.

Product quantization stores one centroid index per subspace per token.  With
``nbits`` bits per index the natural in-memory representation (``uint8`` /
``uint16``, :func:`code_dtype`) wastes space for non-power-of-two-byte widths
such as the paper's (M=32, nbits=12) 3-bit-equivalent configuration, so
reported cache sizes use :func:`packed_nbytes`, the size of the same codes as
a dense bitstream.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require

_MAX_NBITS = 32


def bits_required(num_values: int) -> int:
    """Return the number of bits needed to represent ``num_values`` distinct codes."""
    require(num_values >= 1, f"num_values must be >= 1, got {num_values}")
    return max(1, int(np.ceil(np.log2(num_values))))


def code_dtype(nbits: int) -> np.dtype:
    """Return the smallest unsigned integer dtype that can hold an ``nbits`` code."""
    require(1 <= nbits <= _MAX_NBITS, f"nbits must be in [1, {_MAX_NBITS}], got {nbits}")
    if nbits <= 8:
        return np.dtype(np.uint8)
    if nbits <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def packed_nbytes(num_codes: int, nbits: int) -> int:
    """Number of bytes used to store ``num_codes`` codes of ``nbits`` bits each."""
    require(num_codes >= 0, f"num_codes must be >= 0, got {num_codes}")
    require(1 <= nbits <= _MAX_NBITS, f"nbits must be in [1, {_MAX_NBITS}], got {nbits}")
    return (num_codes * nbits + 7) // 8
