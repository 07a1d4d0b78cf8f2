"""Exact audits over binary summaries.

Everything here recomputes guarantees by routes independent of the
p-value engine: the exact oracle enumerates binary outcome sequences and
maximizes the resulting coverage polynomial on a grid refined by
bisection on the sign of its derivative, the dominance checker compares
p-variables exhaustively over summary configurations, and the table sets
the asymptotic numerators a_k beside the rank-based k + 1.  The Monte
Carlo harness is in the validity module; the two share only the report
types of the reports module.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import EXACT_M_LIMIT
from .pvalues import asymptotic_constant
from .records import Record
from .reports import ValidityCell, ValidityReport

__all__ = [
    "SummarySequence",
    "DominanceWitness",
    "DominanceResult",
    "TableRow",
    "urp_binary_event",
    "audit_pvariable",
    "check_dominance",
    "reproduce_table_k",
]


# A threshold passes the audit while its exceedance probability is at most
# its level plus _SLACK: _sup_coverage_polynomial's maximum is a float, good
# only to rounding.  An exact maximum (ROADMAP item 2) takes this to 0.
_SLACK = 1e-9


class SummarySequence(Record):
    """Binary nonconformity summaries for the calibration examples plus the
    test example.  ``k`` counts the 1s among the calibration summaries only.
    """

    __slots__ = ("calibration_summaries", "test_summary", "k")

    def __init__(self, calibration_summaries: tuple, test_summary: int):
        bits = tuple(int(b) for b in calibration_summaries)
        if not bits:
            raise ValueError("calibration_summaries must be nonempty")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"summaries must be bits, got {calibration_summaries!r}")
        t = int(test_summary)
        if t not in (0, 1):
            raise ValueError(f"test_summary must be a bit, got {test_summary!r}")
        super().__init__(bits, t, sum(bits))

    @property
    def m(self) -> int:
        return len(self.calibration_summaries)


def _bernstein_sum(coefficients: Sequence[int], n: int, p: float) -> float:
    """sum_j coefficients[j] p^j (1-p)^(n-j) by fsum; exponents stay <= 21."""
    return math.fsum(c * p**j * (1.0 - p) ** (n - j) for j, c in enumerate(coefficients) if c)


def _sup_coverage_polynomial(counts: Sequence[int], n: int) -> float:
    """Supremum over p in [0,1] of P(p) = sum_j counts[j] p^j (1-p)^(n-j).

    counts has n + 1 entries.  A 4097-point grid brackets the global
    maximum between the neighbours of its best point.  The derivative is
    P'(p) = sum_{j<n} t_j p^j (1-p)^(n-1-j) with integer t_j =
    (j+1) counts[j+1] - (n-j) counts[j].  Where P' > 0 at the left end of
    the bracket and P' <= 0 at the right end, bisection on the sign of P'
    closes the bracket to adjacent floats, and the largest of P at the
    best grid point and at both ends is returned, else P at the best grid
    point.  Every returned P is an fsum, not the grid's numpy sum.
    """
    if not any(counts):
        return 0.0
    ps = np.linspace(0.0, 1.0, 4097)
    values = np.zeros_like(ps)
    for j, count in enumerate(counts):
        if count:
            values += count * ps**j * (1.0 - ps) ** (n - j)
    best = int(np.argmax(values))
    value = _bernstein_sum(counts, n, float(ps[best]))
    lo, hi = float(ps[max(best - 1, 0)]), float(ps[min(best + 1, len(ps) - 1)])
    slopes = [(j + 1) * counts[j + 1] - (n - j) * counts[j] for j in range(n)]
    if not _bernstein_sum(slopes, n - 1, lo) > 0.0 >= _bernstein_sum(slopes, n - 1, hi):
        return value
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _bernstein_sum(slopes, n - 1, mid) > 0.0 else (lo, mid)
    return max(value, _bernstein_sum(counts, n, lo), _bernstein_sum(counts, n, hi))


def _check_exact_m(m: int) -> None:
    """The exact oracle's one m check: an integer from 1 to EXACT_M_LIMIT."""
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= EXACT_M_LIMIT:
        raise ValueError(
            f"m must be an integer from 1 to {EXACT_M_LIMIT}, got {m!r}; "
            "use monte_carlo_coverage for larger m"
        )


def urp_binary_event(
    m: int, event: Callable[[Tuple[int, ...], int], bool]
) -> float:
    """Worst-case IID probability of an event over binary summaries.

    Enumerates all 2^(m+1) outcomes (m calibration bits plus a test bit),
    tallies member outcomes by their total one-count — the product
    probability p^j (1-p)^(m+1-j) depends on nothing else — and returns
    the supremum over p of the resulting polynomial.
    """
    _check_exact_m(m)
    counts = [0] * (m + 2)
    for bits in itertools.product((0, 1), repeat=m):
        ones = sum(bits)
        for test_bit in (0, 1):
            if event(bits, test_bit):
                counts[ones + test_bit] += 1
    return _sup_coverage_polynomial(counts, m + 1)


def _class_value_table(pvariable, m: int) -> dict:
    """p-variable values per (calibration one-count, test bit) class.

    The grouped audit is only exact for permutation-symmetric
    p-variables, so each class is also checked with its bits reversed.
    """
    table = {}
    for k in range(m + 1):
        bits = (1,) * k + (0,) * (m - k)
        for test_bit in (0, 1):
            seq = SummarySequence(calibration_summaries=bits, test_summary=test_bit)
            table[(k, test_bit)] = pvariable(seq)
        seq = SummarySequence(calibration_summaries=bits[::-1], test_summary=1)
        if 0 < k < m and pvariable(seq) != table[(k, 1)]:
            raise ValueError(
                "p-variable is not permutation-symmetric in the calibration "
                "summaries; the grouped exact audit does not apply"
            )
    return table


def audit_pvariable(pvariable: Callable[[SummarySequence], float], m: int) -> ValidityReport:
    """Exact audit of the defining contract: P(p-variable <= v) <= v.

    The p-variable's realized values over all (one-count, test bit)
    classes form the only thresholds where the exceedance probability can
    jump, so checking those checks every level.  Class probabilities are
    weighted by binomial counts computed directly — the oracle shares no
    code with the engine being audited.
    """
    _check_exact_m(m)
    table = _class_value_table(pvariable, m)
    thresholds = sorted(set(table.values()))
    cells = []
    for threshold in thresholds:
        counts = [0] * (m + 2)
        members = 0
        for (k, test_bit), value in table.items():
            if value <= threshold:
                counts[k + test_bit] += math.comb(m, k)
                members += 1
        probability = _sup_coverage_polynomial(counts, m + 1)
        level = float(threshold)
        cells.append(
            ValidityCell(
                name="exceedance",
                epsilon=level,
                probability=probability,
                passed=probability <= level + _SLACK,
                detail=f"{members}/{2 * (m + 1)} summary classes at or below threshold",
            )
        )
    return ValidityReport(mode="exact", cells=tuple(cells), m=m)


class DominanceWitness(Record):
    """Configuration where the two p-variables differ (or tie illegally)."""

    __slots__ = ("calibration_ones", "test_summary", "p1_value", "p2_value")

    def __init__(self, calibration_ones: int, test_summary: int, p1_value: float, p2_value: float):
        super().__init__(calibration_ones, test_summary, p1_value, p2_value)


class DominanceResult(Record):
    """Verdict of an exhaustive dominance comparison.

    verdict is "strict" (p1 <= p2 everywhere, strictly somewhere — the
    witness shows where), "weak" (equal everywhere), or "none" (the
    witness is a counterexample with p1 > p2).
    """

    __slots__ = ("verdict", "witness")

    def __init__(self, verdict: str, witness: Optional[DominanceWitness] = None):
        super().__init__(verdict, witness)


def check_dominance(
    p1: Callable[[SummarySequence], float],
    p2: Callable[[SummarySequence], float],
    m: int,
) -> DominanceResult:
    """Compare two p-variables over every summary configuration.

    Binary summaries have 2(m+1) distinguishable configurations — the
    calibration one-count and the test bit — once p-variables are
    permutation-symmetric, which is asserted for both arguments.
    Comparisons use the values exactly as returned (exact rationals stay
    exact), so verdicts are not at the mercy of float rounding.
    """
    _check_exact_m(m)
    table1 = _class_value_table(p1, m)
    table2 = _class_value_table(p2, m)
    strict_witness = None
    for k in range(m + 1):
        for test_bit in (0, 1):
            v1 = table1[(k, test_bit)]
            v2 = table2[(k, test_bit)]
            if v1 > v2:
                return DominanceResult(
                    verdict="none",
                    witness=DominanceWitness(k, test_bit, float(v1), float(v2)),
                )
            if v1 < v2 and strict_witness is None:
                strict_witness = DominanceWitness(k, test_bit, float(v1), float(v2))
    if strict_witness is not None:
        return DominanceResult(verdict="strict", witness=strict_witness)
    return DominanceResult(verdict="weak")


class TableRow(Record):
    """One column of the asymptotic-numerator table."""

    __slots__ = ("k", "a_k", "icp_numerator", "ratio")

    def __init__(self, k: int, a_k: float, icp_numerator: int, ratio: float):
        super().__init__(k, a_k, icp_numerator, ratio)

    @property
    def a_k_rounded(self) -> float:
        return round(self.a_k, 3)

    @property
    def ratio_rounded(self) -> float:
        return round(self.ratio, 3)


def reproduce_table_k(k_max: int) -> Tuple[TableRow, ...]:
    """Asymptotic incertitude numerators a_k next to the rank-based k+1.

    The ratio column stays below 1: for small k the engine's hedged
    predictions are asymptotically sharper than the rank-based ones by
    the factor a_k/(k+1).
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise ValueError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if k_max > 64:
        raise ValueError(f"k_max is capped at 64, got {k_max}")
    rows = []
    for k in range(k_max + 1):
        constant = asymptotic_constant(k)
        rows.append(
            TableRow(
                k=k,
                a_k=constant.a_k,
                icp_numerator=k + 1,
                ratio=constant.a_k / (k + 1),
            )
        )
    return tuple(rows)
