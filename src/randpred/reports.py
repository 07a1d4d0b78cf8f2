"""Audit reports: the result types the exact audits and the Monte Carlo
harness both return.

A module of their own, so that neither harness loads the other.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .records import Record

__all__ = ["ValidityCell", "ValidityReport"]


class ValidityCell(Record):
    """One audited (threshold, probability) pair."""

    __slots__ = ("name", "epsilon", "probability", "passed", "standard_error", "detail")

    def __init__(
        self,
        name: str,
        epsilon: float,
        probability: float,
        passed: bool,
        standard_error: Optional[float] = None,
        detail: str = "",
    ):
        super().__init__(name, epsilon, probability, passed, standard_error, detail)


class ValidityReport(Record):
    """Outcome of an exact audit or a Monte Carlo coverage run.

    Exact reports carry no standard errors and no trial metadata;
    Monte Carlo reports record trials and seed so any cell can be
    reproduced bit-for-bit.
    """

    __slots__ = ("mode", "cells", "m", "trials", "seed")

    def __init__(
        self,
        mode: str,
        cells: Tuple[ValidityCell, ...],
        m: Optional[int] = None,
        trials: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        if mode not in ("exact", "monte_carlo"):
            raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")
        if mode == "exact" and any(c.standard_error is not None for c in cells):
            raise ValueError("exact cells must not carry standard errors")
        if mode == "monte_carlo" and (trials is None or trials < 1):
            raise ValueError("Monte Carlo reports require trials >= 1")
        super().__init__(mode, cells, m, trials, seed)

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)
