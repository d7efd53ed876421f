"""Tests for RNG helpers, validation helpers and the logging wrapper."""

import logging

import numpy as np
import pytest

from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import derive_seed, get_rng, spawn_rngs
from repro.utils.validation import (
    ValidationError,
    require,
    require_divisible,
    require_in,
)


class TestGetRng:
    def test_same_seed_same_stream(self):
        a = get_rng(42).integers(0, 1000, size=10)
        b = get_rng(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_none_is_deterministic(self):
        a = get_rng(None).integers(0, 1000, size=5)
        b = get_rng(None).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert get_rng(gen) is gen


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_independent_streams(self):
        rngs = spawn_rngs(1, 2)
        a = rngs[0].integers(0, 10**6, size=8)
        b = rngs[1].integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = spawn_rngs(9, 3)[2].integers(0, 10**6, size=4)
        b = spawn_rngs(9, 3)[2].integers(0, 10**6, size=4)
        np.testing.assert_array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "layer", 3) == derive_seed(1, "layer", 3)

    def test_salts_change_seed(self):
        assert derive_seed(1, "key", 0) != derive_seed(1, "value", 0)
        assert derive_seed(1, "key", 0) != derive_seed(1, "key", 1)

    def test_range(self):
        for salt in range(20):
            seed = derive_seed(123, salt)
            assert 0 <= seed < 2**31 - 1


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_require_divisible(self):
        require_divisible(64, 8, "ok")
        with pytest.raises(ValidationError):
            require_divisible(65, 8, "bad")
        with pytest.raises(ValidationError):
            require_divisible(8, 0, "zero denominator")

    def test_require_in(self):
        require_in("a", ("a", "b"), "letter")
        with pytest.raises(ValidationError):
            require_in("c", ("a", "b"), "letter")


class TestLogging:
    def test_namespacing(self):
        assert get_logger("perf").name == "repro.perf"
        assert get_logger().name == "repro"

    def test_null_handler_attached(self):
        get_logger("anything")
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_console_logging_idempotent(self):
        enable_console_logging()
        enable_console_logging()
        root = logging.getLogger("repro")
        stream_handlers = [h for h in root.handlers if isinstance(h, logging.StreamHandler)]
        assert len(stream_handlers) == 1
