"""Small argument-validation helpers with informative error messages."""

from __future__ import annotations

from typing import Any


class ValidationError(ValueError):
    """Raised when a public API receives an invalid argument."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_divisible(numerator: int, denominator: int, message: str) -> None:
    """Require ``numerator`` to be an exact multiple of ``denominator``."""
    if denominator <= 0 or numerator % denominator != 0:
        raise ValidationError(
            f"{message}: {numerator} is not divisible by {denominator}"
        )


def require_in(value: Any, allowed: tuple, name: str) -> None:
    """Require ``value`` to be one of ``allowed``."""
    if value not in allowed:
        raise ValidationError(f"{name} must be one of {allowed}, got {value!r}")
