"""Shared low-level utilities used by every subsystem.

The helpers here are intentionally small and dependency-free: deterministic
random number generation, storage widths of sub-byte quantization codes,
argument validation and a thin logging wrapper.
"""

from repro.utils.bitpack import (
    bits_required,
    code_dtype,
    packed_nbytes,
)
from repro.utils.logging import get_logger
from repro.utils.rng import get_rng, spawn_rngs
from repro.utils.validation import (
    ValidationError,
    require,
    require_divisible,
)

__all__ = [
    "bits_required",
    "code_dtype",
    "packed_nbytes",
    "get_logger",
    "get_rng",
    "spawn_rngs",
    "ValidationError",
    "require",
    "require_divisible",
]
