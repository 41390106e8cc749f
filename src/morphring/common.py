"""Pieces every command shares, free of numpy: environment caps and the
report type.

``qz`` runs on exact integer arithmetic alone, so what it needs from the
rest of the package lives here rather than beside the Cayley-table engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["OrderCapExceeded", "VerificationReport", "order_cap"]

_DEFAULT_ORDER_CAP = 512


class OrderCapExceeded(ValueError):
    """A construction would exceed the configured order cap."""


def _env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, else ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{name} must be positive, got {cap}")
    return cap


def order_cap() -> int:
    """Largest ring order accepted for full classification profiles."""
    return _env_cap("RING_ORDER_CAP", _DEFAULT_ORDER_CAP)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theorem check on one ring: exactly what its record prints."""

    theorem: str
    expression: str
    status: str
    details: dict
