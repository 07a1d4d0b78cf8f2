"""Rank-based conformal p-values and the p-variables over summary sequences.

The rank-based p-value, a construction that strictly dominates it, and
the three p-variables that the exact audits compare: the engine's
worst-case p-value (pvalues.binary_irp_pvalue, read from its module at
each call, so a wrapper set on it applies), the rank-based one and the
dominating one.  The engine module does not need them, and
`import randpred` compiles it from source where no bytecode is kept, so
they live here and load on first use.  The rank-based functions return
exact Fractions and import fractions, which loads decimal, when called.
"""

from typing import TYPE_CHECKING, Sequence

from . import pvalues

if TYPE_CHECKING:
    # Annotations only: importing .audits at run time would load numpy, and
    # fractions (with decimal) is imported by the functions that need it.
    from fractions import Fraction

    from .audits import SummarySequence

__all__ = [
    "icp_pvalue",
    "dominating_pvalue",
    "binary_irp_pvariable",
    "icp_pvariable",
    "dominating_pvariable",
]


def _checked_alphas(calibration_alphas: Sequence[float], test_alpha: float) -> list:
    """The calibration alphas as a list: nonempty, and neither they nor
    test_alpha NaN.  A NaN compares false with everything, so it would
    drop out of the rank count and shrink the p-value."""
    alphas = list(calibration_alphas)
    if not alphas:
        raise ValueError("calibration_alphas must be nonempty")
    if test_alpha != test_alpha:
        raise ValueError(f"test_alpha must not be NaN, got {test_alpha!r}")
    for i, a in enumerate(alphas):
        if a != a:
            raise ValueError(f"calibration_alphas[{i}] must not be NaN, got {a!r}")
    return alphas


def icp_pvalue(calibration_alphas: Sequence[float], test_alpha: float) -> "Fraction":
    """Rank-based conformal p-value (1 + #{alpha_j >= test}) / (m + 1).

    The test summary always counts itself.  Returned as an exact rational:
    the value is a multiple of 1/(m+1) by construction, and exact
    arithmetic makes downstream dominance comparisons bit-reliable.
    float() renders it when a real is needed.  A NaN alpha raises
    ValueError, naming the test alpha or the calibration alpha's index.
    """
    from fractions import Fraction

    alphas = _checked_alphas(calibration_alphas, test_alpha)
    count = sum(1 for a in alphas if a >= test_alpha)
    return Fraction(1 + count, len(alphas) + 1)


def dominating_pvalue(
    calibration_alphas: Sequence[float], test_alpha: float, threshold_a: float
) -> "Fraction":
    """A p-variable that strictly dominates the rank-based conformal one.

    Returns m^m/(m+1)^(m+1) when the test summary strictly exceeds
    threshold_a while every calibration summary lies strictly below it,
    and the rank-based value otherwise.  In the first case the rank-based
    value is 1/(m+1), which is strictly larger, so the construction is
    never worse and sometimes better.  Exact rationals throughout, so
    equality on the fall-through branch is exact.  A NaN alpha or
    threshold_a raises ValueError, as in icp_pvalue.
    """
    from fractions import Fraction

    alphas = _checked_alphas(calibration_alphas, test_alpha)
    if threshold_a != threshold_a:
        raise ValueError(f"threshold_a must not be NaN, got {threshold_a!r}")
    m = len(alphas)
    if test_alpha > threshold_a and all(a < threshold_a for a in alphas):
        return Fraction(m**m, (m + 1) ** (m + 1))
    return icp_pvalue(alphas, test_alpha)


def binary_irp_pvariable(seq: "SummarySequence") -> float:
    """Engine p-variable on a binary summary sequence.

    A conforming test summary yields p-value 1 (the aggregating statistic
    max(test - mean, 0) is at its minimum, so the exceedance event is
    sure); a nonconforming one yields binary_irp_pvalue(m, k).

    It dominates icp_pvariable at every m, strictly wherever the test
    summary is nonconforming and k < m.  With N ~ Bin(m+1, p) and
    C(m, i) = C(m+1, i+1) (i+1)/(m+1),
    p F(k; m, p) = E[N 1{N <= k+1}]/(m+1) <= (k+1)/(m+1) P(1 <= N <= k+1),
    and P(1 <= N <= k+1) < 1 at every p, since P(N = 0) = 1 at p = 0 and
    P(N = m+1) > 0 elsewhere.  The maximum over p is attained, so
    binary_irp_pvalue(m, k) < (k+1)/(m+1), the rank-based p-value; both
    are 1 for a conforming test summary and at k = m.
    """
    if seq.test_summary == 0:
        return 1.0
    return pvalues.binary_irp_pvalue(seq.m, seq.k)


def icp_pvariable(seq: "SummarySequence") -> "Fraction":
    """Rank-based conformal p-variable on a binary summary sequence."""
    return icp_pvalue(seq.calibration_summaries, seq.test_summary)


def dominating_pvariable(seq: "SummarySequence", threshold_a: float = 0.5) -> "Fraction":
    """Dominating p-variable on a binary summary sequence.

    Any threshold_a strictly between 0 and 1 identifies the same event on
    bits: test summary 1 with zero calibration ones.
    """
    return dominating_pvalue(seq.calibration_summaries, seq.test_summary, threshold_a)
