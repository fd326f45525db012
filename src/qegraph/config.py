"""Shared numeric tolerances and computation modes."""

from __future__ import annotations

from dataclasses import dataclass, replace

MODES = ("float", "exact", "auto")


@dataclass(frozen=True)
class Tolerances:
    """Tolerance settings used across the package.

    psd_rel
        Relative floating-point semidefiniteness tolerance: a symmetric
        matrix counts as PSD when lambda_min >= -psd_rel * max(1, lambda_max).
    embed
        Maximum allowed |  ||phi(x)-phi(y)||^2 - d(x,y) | when an explicit
        embedding is reconstructed.
    auto_escalation
        In auto mode a float verdict is re-checked exactly whenever
        |lambda_min| < auto_escalation * (psd_rel * max(1, lambda_max)).
    """

    psd_rel: float = 1e-9
    embed: float = 1e-8
    auto_escalation: float = 10.0

    def with_psd_rel(self, value: float) -> "Tolerances":
        if value <= 0:
            raise ValueError(f"psd tolerance must be positive, got {value!r}")
        return replace(self, psd_rel=value)


DEFAULT_TOLERANCES = Tolerances()


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode
