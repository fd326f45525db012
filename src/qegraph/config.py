"""Shared numeric tolerances, computation modes and argument checks."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

MODES = ("float", "exact", "auto")


@dataclass(frozen=True)
class Tolerances:
    """Tolerance settings used across the package.

    psd_rel
        Relative floating-point semidefiniteness tolerance: a symmetric
        matrix counts as PSD when lambda_min >= -psd_rel * max(1, lambda_max).
        It must be finite and positive; anything else (NaN included) raises
        ValueError at construction.
    """

    psd_rel: float = 1e-9

    def __post_init__(self):
        # written as a range test so that NaN, which compares false, fails it
        if not 0.0 < self.psd_rel < math.inf:
            raise ValueError(f"psd tolerance must be finite and positive, got {self.psd_rel!r}")


DEFAULT_TOLERANCES = Tolerances()


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def require_int(value, name: str) -> int:
    """value as an int, accepting numpy integers; a float, a string or any
    other non-integer raises ValueError instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
