"""Audit reports: the result types the exact audits and the Monte Carlo
harness both return.

A module of their own, so that neither harness loads the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ValidityCell", "ValidityReport"]


@dataclass(frozen=True)
class ValidityCell:
    """One audited (threshold, probability) pair."""

    name: str
    epsilon: float
    probability: float
    passed: bool
    standard_error: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of an exact audit or a Monte Carlo coverage run.

    Exact reports carry no standard errors and no trial metadata;
    Monte Carlo reports record trials and seed so any cell can be
    reproduced bit-for-bit.
    """

    mode: str
    cells: Tuple[ValidityCell, ...]
    m: Optional[int] = None
    trials: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {self.mode!r}")
        if self.mode == "exact" and any(c.standard_error is not None for c in self.cells):
            raise ValueError("exact cells must not carry standard errors")
        if self.mode == "monte_carlo" and (self.trials is None or self.trials < 1):
            raise ValueError("Monte Carlo reports require trials >= 1")

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)
