"""Exact audits over binary summaries.

Everything here recomputes guarantees by routes independent of the
p-value engine.  The audits read one format, a class table: a list of
(value, ones, weight) entries, each standing for `weight` outcomes of the
calibration and test summaries that have `ones` ones in all and on which
the p-variable takes `value`.  For a permutation-symmetric p-variable
`_class_table` builds one entry per class (k, test bit b), of weight
C(m, k) at k + b ones, from at most 3(m + 1) p-variable calls.

One worst-case rule reads any set of entries (`_sup_probability`): an IID
outcome with j ones among n summaries has probability p^j (1-p)^(n-j), so
the weights sum to Bernstein counts, and the supremum over p of their
polynomial is found on a grid refined by bisection on the sign of its
derivative.  `audit_pvariable` applies it to the entries at or below each
value of the table, `check_dominance` compares two tables entry by entry,
and `urp_binary_event` enumerates all 2^(m+1) outcomes and applies it to
the members of an event, each an entry of weight 1.  The table sets the
asymptotic numerators a_k beside the rank-based k + 1.  The Monte Carlo
harness is in the validity module; the two share only the report types of
the reports module.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import EXACT_M_LIMIT
from .pvalues import _integer, _value_error, asymptotic_constant
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
        # bits are checked before int(), which would take 0.7 or '1' for a bit
        bits = tuple(calibration_summaries)
        if not bits:
            raise ValueError("calibration_summaries must be nonempty")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"summaries must be bits, got {calibration_summaries!r}")
        if test_summary not in (0, 1):
            raise ValueError(f"test_summary must be a bit, got {test_summary!r}")
        bits = tuple(int(b) for b in bits)
        super().__init__(bits, int(test_summary), sum(bits))

    @property
    def m(self) -> int:
        return len(self.calibration_summaries)


def _bernstein_sum(coefficients: Sequence[int], n: int, p: float) -> float:
    """sum_j coefficients[j] p^j (1-p)^(n-j) by fsum; exponents stay <= 21."""
    return math.fsum(c * p**j * (1.0 - p) ** (n - j) for j, c in enumerate(coefficients) if c)


@lru_cache(maxsize=4)
def _grid(n: int) -> tuple:
    """The 4097-point grid ps on [0, 1] and its powers ps**j and
    (1 - ps)**(n - j) for j = 0..n: one degree's Bernstein basis, which
    every threshold of an audit shares.  At most 4 degrees are kept,
    1.4 MB each at the exact cap's degree m + 1 = 21."""
    ps = np.linspace(0.0, 1.0, 4097)
    return ps, [ps**j for j in range(n + 1)], [(1.0 - ps) ** (n - j) for j in range(n + 1)]


def _sup_coverage_polynomial(counts: Sequence[int], n: int) -> float:
    """Supremum over p in [0,1] of P(p) = sum_j counts[j] p^j (1-p)^(n-j).

    counts has n + 1 entries.  A 4097-point grid brackets the global
    maximum between the neighbours of its best point; its powers come
    from _grid, one basis per degree.  The derivative is
    P'(p) = sum_{j<n} t_j p^j (1-p)^(n-1-j) with integer t_j =
    (j+1) counts[j+1] - (n-j) counts[j].  Where P' > 0 at the left end of
    the bracket and P' <= 0 at the right end, bisection on the sign of P'
    closes the bracket to adjacent floats, and the largest of P at the
    best grid point and at both ends is returned, else P at the best grid
    point.  Every returned P is an fsum, not the grid's numpy sum.
    """
    if not any(counts):
        return 0.0
    ps, powers, co_powers = _grid(n)
    values = np.zeros_like(ps)
    for j, count in enumerate(counts):
        if count:
            values += count * powers[j] * co_powers[j]
    best = int(np.argmax(values))
    value = _bernstein_sum(counts, n, float(ps[best]))
    lo, hi = float(ps[max(best - 1, 0)]), float(ps[min(best + 1, len(ps) - 1)])
    slopes = [(j + 1) * counts[j + 1] - (n - j) * counts[j] for j in range(n)]
    if not _bernstein_sum(slopes, n - 1, lo) > 0.0 >= _bernstein_sum(slopes, n - 1, hi):
        return value
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _bernstein_sum(slopes, n - 1, mid) > 0.0 else (lo, mid)
    return max(value, _bernstein_sum(counts, n, lo), _bernstein_sum(counts, n, hi))


def _exact_m(m) -> int:
    """The exact oracle's one m check: an integer from 1 to EXACT_M_LIMIT,
    returned as an int."""
    return _integer(m, 1, EXACT_M_LIMIT, lambda m: ValueError(
        f"m must be an integer from 1 to {EXACT_M_LIMIT}, got {m!r}; "
        "use monte_carlo_coverage for larger m"
    ))


def urp_binary_event(
    m: int, event: Callable[[Tuple[int, ...], int], bool]
) -> float:
    """Worst-case IID probability of an event over binary summaries.

    Enumerates all 2^(m+1) outcomes (m calibration bits plus a test bit)
    and returns the supremum over p of the probability of the member
    outcomes, each an entry of weight 1 at its total one-count.
    """
    m = _exact_m(m)
    members = (
        (None, sum(bits) + test_bit, 1)
        for bits in itertools.product((0, 1), repeat=m)
        for test_bit in (0, 1)
        if event(bits, test_bit)
    )
    return _sup_probability(members, m + 1)


def _sup_probability(classes, n: int) -> float:
    """Worst-case IID probability of a set of (value, ones, weight) entries.

    The product probability p^j (1-p)^(n-j) of an outcome depends on
    nothing but its total one-count j, so the weights are summed into
    Bernstein counts and the supremum over p of their polynomial returned.
    """
    counts = [0] * (n + 1)
    for _, ones, weight in classes:
        counts[ones] += weight
    return _sup_coverage_polynomial(counts, n)


def _class_table(pvariable, m: int) -> list:
    """One (value, ones, weight) entry per binary class (k, test bit).

    Entries come in (k, test bit) order.  Class (k, b) holds the C(m, k)
    outcomes with k ones among the m calibration summaries and test bit b,
    each with k + b ones in all.  The grouped audit is only exact for
    permutation-symmetric p-variables, so each class with test bit 1 is
    also checked with its calibration bits reversed.  m is the caller's
    checked m.
    """
    table = []
    for k in range(m + 1):
        bits = (1,) * k + (0,) * (m - k)
        for test_bit in (0, 1):
            value = pvariable(SummarySequence(calibration_summaries=bits, test_summary=test_bit))
            if value != value:
                raise ValueError(f"p-variable is NaN at class (k={k}, test bit={test_bit})")
            table.append((value, k + test_bit, math.comb(m, k)))
        seq = SummarySequence(calibration_summaries=bits[::-1], test_summary=1)
        if 0 < k < m and pvariable(seq) != table[-1][0]:
            raise ValueError(
                "p-variable is not permutation-symmetric in the calibration "
                "summaries; the grouped exact audit does not apply"
            )
    return table


def _audit_table(classes: list, m: int) -> ValidityReport:
    """The exceedance audit of a class table over m calibration summaries:
    one cell per distinct value, which is the only kind of threshold where
    the exceedance probability can jump."""
    cells = []
    for threshold in sorted({value for value, _, _ in classes}):
        members = [entry for entry in classes if entry[0] <= threshold]
        probability = _sup_probability(members, m + 1)
        level = float(threshold)
        cells.append(
            ValidityCell(
                name="exceedance",
                epsilon=level,
                probability=probability,
                passed=probability <= level + _SLACK,
                detail=f"{len(members)}/{len(classes)} summary classes at or below threshold",
            )
        )
    return ValidityReport(mode="exact", cells=tuple(cells), m=m)


def audit_pvariable(pvariable: Callable[[SummarySequence], float], m: int) -> ValidityReport:
    """Exact audit of the defining contract: P(p-variable <= v) <= v.

    The p-variable's realized values over all (one-count, test bit)
    classes form the only thresholds where the exceedance probability can
    jump, so checking those checks every level.  Class probabilities are
    weighted by binomial counts computed directly — the oracle shares no
    code with the engine being audited.
    """
    m = _exact_m(m)
    return _audit_table(_class_table(pvariable, m), m)


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
    m = _exact_m(m)
    table1, table2 = _class_table(p1, m), _class_table(p2, m)
    strict_witness = None
    for index, ((v1, _, _), (v2, _, _)) in enumerate(zip(table1, table2)):
        if v1 > v2:
            return DominanceResult("none", DominanceWitness(*divmod(index, 2), float(v1), float(v2)))
        if v1 < v2 and strict_witness is None:
            strict_witness = DominanceWitness(*divmod(index, 2), float(v1), float(v2))
    return DominanceResult("weak" if strict_witness is None else "strict", strict_witness)


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
    k_max = _integer(k_max, 0, math.inf, _value_error("k_max must be a nonnegative integer"))
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
