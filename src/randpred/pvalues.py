"""Exact p-values over binary nonconformity summaries.

Given m calibration summaries containing k ones and a nonconforming test
summary, the worst-case IID probability of seeing something at least as
extreme is

    max_{p in [0,1]}  p F(k; m, p),   F(k; m, p) = sum_{i=0}^{k} b(i; m, p),

with b(i; m, p) = C(m,i) p^i (1-p)^(m-i): the supremum over Bernoulli(p)
product measures of the probability that the test summary is 1 and at
most k calibration summaries are.

The maximizer is the root of one equation.  With q = 1 - p,
d/dp F(k; m, p) = -(m-k)/q b(k; m, p), so the objective is stationary
where q F = p (m-k) b(k; m, p).  In r = q/p that reads

    r R(r) = m - k,   R(r) = F/b(k) = sum_{j=0}^{k} prod_{i=k-j+1}^{k} i r/(m-i+1).

R is a polynomial in r with positive coefficients, so the left side
increases strictly from 0 to infinity: the root is unique and the
objective is unimodal.  In s = log r the residual
psi(s) = s + log R - log(m-k) is convex and increasing, with
psi' = 1 + E[k-i] >= 1 and psi'' = Var[k-i] over the weights b(i), i <= k.
At the rank-based rate p = (k+1)/(m+1) every coefficient of R is below 1,
so psi < 0 there and the root lies at a smaller p.

maximize_objective starts near the root and takes Halley steps.  At k = 1
it starts at the closed form optimal_p_k1, and one pass confirms it.  For
k >= 2 the Normal approximation of the binomial, with F near 1 at the
root, puts the mean at m p = k + 1/2 - z sd, where sd = sqrt(k(1 - k/m))
and the Normal density at z is 1/sd; z is 0 when sd <= sqrt(2 pi), and
the start is capped at the rank-based rate.  One pass over the terms
gives psi, psi' and psi''.  With h = psi/psi' the Newton step, the Halley
step is h / (1 - h psi''/(2 psi')), which converges cubically near the
root.  Every step has the sign of psi, so it heads for the root.  Where
psi < 0 the denominator is at least 1 and the step is no longer than
Newton's; where psi > 0 the step is taken only while the denominator is
at least 1/2, so it is at most twice Newton's, and the Newton step is
taken otherwise.  Newton's method alone converges from any start on a
convex increasing psi; for the corrected steps that is checked, not
proved: at most 5 passes on every case the tests try.  A search that has
not converged after _MAX_NEWTON passes raises rather than returns.

With p = c/m and m growing, the equation tends to the Poisson one solved
by asymptotic_constant (see _stationarity_residual).

Binomial terms come from Loader's saddle-point form (stirlerr and bd0;
C. Loader, Fast and Accurate Computation of Binomial Probabilities,
2000), and F is summed outward from min(k, mode), where its largest term
sits, so no term overflows and the sum stops once terms no longer count.
The module also provides the closed forms available at k=0 and k=1,
the asymptotic constants a_k with m * pvalue(m, k) -> a_k, and the
rank-based conformal p-value together with a construction that strictly
dominates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:
    # Annotations only: importing .core at run time would load numpy.
    from .core import SummarySequence

__all__ = [
    "AsymptoticConstant",
    "objective",
    "maximize_objective",
    "binary_irp_pvalue",
    "exact_pvalue_k0",
    "optimal_p_k1",
    "asymptotic_constant",
    "icp_pvalue",
    "dominating_pvalue",
    "binary_irp_pvariable",
    "icp_pvariable",
    "dominating_pvariable",
]

_LN_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15, from a
# 40-digit evaluation; larger n use the Stirling series in _stirlerr,
# whose first omitted term is below 2e-16 for n >= 16.
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)

# A term of F below this fraction of the running sum ends the summation
# in its direction: every later term is smaller still.
_TAIL = 2.0**-60
# The root search stops at a step in s below _STEP_TOL.  The objective is
# flat at its maximum, so the value there is off by the square of that.
_STEP_TOL = 1e-12
_MAX_NEWTON = 100


@dataclass(frozen=True)
class AsymptoticConstant:
    """Limit constant a_k with m * pvalue(m, k) -> a_k as m grows.

    c_star is the optimal Bernoulli rate scaled by m (p ~ c_star/m),
    the unique positive root of  sum_{i=0}^k c^i/i! = c^(k+1)/k!,
    and a_k = sum_{i=0}^k c_star^(i+1) exp(-c_star)/i!.
    """

    k: int
    c_star: float
    a_k: float


def _validate_mk(m: int, k: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= m:
        raise ValueError(f"k must be an integer in [0, m={m}], got {k!r}")


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """The deviance x log(x/mean) + mean - x, by its series near x = mean."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        total = (x - mean) * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            new = total + term / j
            if new == total:
                return total
            total = new
            j += 2
    return x * math.log(x / mean) + mean - x


def _log_pmf(i: int, m: int, p: float, q: float) -> float:
    """log b(i; m, p) for 0 <= i < m, with q = 1 - p passed in separately.

    Loader's form: Stirling remainders and deviances, each small near the
    mode, in place of differences of large log-factorials.
    """
    if i == 0:
        return m * (math.log1p(-p) if p < 0.5 else math.log(q))
    return (
        _stirlerr(m)
        - _stirlerr(i)
        - _stirlerr(m - i)
        - _bd0(i, m * p)
        - _bd0(m - i, m * q)
        - 0.5 * (_LN_2PI + math.log(i * (m - i) / m))
    )


def _mode_sums(m: int, k: int, p: float, q: float) -> Tuple[int, float, float, float, float]:
    """F(k; m, p) and its first two moments about k, relative to the top term.

    Returns (i0, total, moment, moment2, top) with i0 = min(k, mode),
    total = sum_{i<=k} b(i)/b(i0), moment = sum_{i<=k} (k-i) b(i)/b(i0),
    moment2 = sum_{i<=k} (k-i)^2 b(i)/b(i0), and top = b(k)/b(i0) as the
    upward sum reached it, or 0.0 where that sum stopped short of k.
    The terms fall monotonically away from the mode, so each direction
    stops at the first term too small to count.  Requires 0 < p < 1, k < m.
    """
    i0 = min(k, int((m + 1) * p))
    total = 1.0
    moment = float(k - i0)
    moment2 = moment * moment
    ratio = q / p
    term = 1.0
    gap = moment  # k - i of the latest term, a float so products stay float
    for i in range(i0, 0, -1):
        term *= i * ratio / (m - i + 1)
        total += term
        gap += 1.0
        weighted = gap * term
        moment += weighted
        moment2 += gap * weighted
        if term < _TAIL * total:
            break
    ratio = p / q
    term = 1.0
    gap = float(k - i0)
    for i in range(i0, k):
        term *= (m - i) * ratio / (i + 1)
        total += term
        gap -= 1.0
        weighted = gap * term
        moment += weighted
        moment2 += gap * weighted
        if term < _TAIL * total:
            return i0, total, moment, moment2, 0.0
    return i0, total, moment, moment2, term


def _rates(s: float) -> Tuple[float, float]:
    """(p, q) with q/p = exp(s), each to full relative precision."""
    e = math.exp(-abs(s))
    if s >= 0.0:
        return e / (1.0 + e), 1.0 / (1.0 + e)
    return 1.0 / (1.0 + e), e / (1.0 + e)


def objective(m: int, k: int, p: float) -> float:
    """Evaluate p F(k; m, p) = sum_{i=0}^k C(m,i) p^(i+1) (1-p)^(m-i).

    The terms are summed outward from the largest one, each as a ratio to
    it, and that one comes from Loader's binomial pmf, so nothing
    overflows or underflows early at any m.  Near the maximum the value is
    accurate to a few ulps; the relative error grows like
    |k - mp|/(1-p) ulps, which is how sensitive the objective itself is to
    the last bit of p.  The engine evaluates its maximum the same way.
    """
    _validate_mk(m, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k == m:
        return p
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    i0, total = _mode_sums(m, k, p, q)[:2]
    return p * math.exp(_log_pmf(i0, m, p, q)) * total


def maximize_objective(m: int, k: int) -> Tuple[float, float]:
    """Maximize the objective over p in [0,1]; return (argmax, maximum).

    k = 0 is the closed form m^m/(m+1)^(m+1) at p = 1/(m+1), and k = m
    is p itself, maximal at 1.  Otherwise Halley's method in
    s = log((1-p)/p) solves s + log R(e^s) = log(m-k), whose root is the
    unique maximizer, from a start near it; a step that the curvature
    term would more than double is a Newton step (see the module
    docstring).  One pass over the terms gives the residual and its first
    two derivatives, 1 + E[k - i | i <= k] and Var[k - i | i <= k], and
    b(k)/b(i0) for the residual comes from the same pass unless the sum
    stopped short of k.  Iteration ends at a step below _STEP_TOL.
    """
    _validate_mk(m, k)
    if k == m:
        return 1.0, 1.0
    if k == 0:
        return 1.0 / (m + 1), exact_pvalue_k0(m)
    log_gap = math.log(m - k)
    s = _start(m, k)
    for _ in range(_MAX_NEWTON):
        p, q = _rates(s)
        i0, total, moment, moment2, top = _mode_sums(m, k, p, q)
        psi = s + math.log(total) - log_gap
        if top > 0.0:
            psi -= math.log(top)
        else:
            psi += _log_pmf(i0, m, p, q) - _log_pmf(k, m, p, q)
        mean = moment / total
        slope = 1.0 + mean
        newton = psi / slope
        halley = 1.0 - 0.5 * newton * (moment2 / total - mean * mean) / slope
        step = newton / halley if halley >= 0.5 else newton
        if abs(step) <= _STEP_TOL:
            return p, p * math.exp(_log_pmf(i0, m, p, q)) * total
        s -= step
    raise RuntimeError(f"the root search did not converge at m = {m}, k = {k}")


def _start(m: int, k: int) -> float:
    """A starting s = log((1-p)/p) near the stationarity root, 0 < k < m.

    The closed form at k = 1; otherwise the Normal approximation of the
    module docstring, capped at the rank-based rate (k+1)/(m+1).
    """
    if k == 1:
        p = optimal_p_k1(m)
        return math.log((1.0 - p) / p)
    sd = math.sqrt(k * (1.0 - k / m))
    z = math.sqrt(2.0 * math.log(sd / _SQRT_2PI)) if sd > _SQRT_2PI else 0.0
    mean = k + 0.5 - z * sd
    return max(math.log((m - mean) / mean), math.log((m - k) / (k + 1)))


@lru_cache(maxsize=65536)
def _pvalue_cached(m: int, k: int) -> float:
    return maximize_objective(m, k)[1]


def binary_irp_pvalue(m: int, k: int) -> float:
    """Exact p-value for a nonconforming test summary with k calibration ones.

    Returns max_p sum_{i=0}^k C(m,i) p^(i+1) (1-p)^(m-i).  The degenerate
    k = m case returns exactly 1: the objective collapses to p and the
    event becomes sure under p = 1.
    """
    _validate_mk(m, k)
    if k == m:
        return 1.0
    return _pvalue_cached(m, k)


def exact_pvalue_k0(m: int) -> float:
    """Closed-form p-value at k = 0: m^m / (m+1)^(m+1).

    Evaluated as exp(-log1p(m) - m*log1p(1/m)), an algebraic rearrangement
    of exp(m log m - (m+1) log(m+1)) that avoids cancelling two nearly
    equal large logarithms at large m.  Satisfies
    exact_pvalue_k0(m) <= exp(-1)/m for every m >= 1.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return math.exp(-math.log1p(m) - m * math.log1p(1.0 / m))


def optimal_p_k1(m: int) -> float:
    """Argmax of the k = 1 objective: (m - 2 + sqrt(5m^2 - 4m)) / (2(m^2 - 1)).

    The stationarity condition at k = 1 is a quadratic in p; this is its
    root in [0, 1].  Grows like phi/m with phi the golden ratio.  m = 1
    is rejected: the denominator vanishes and k = 1 = m is the degenerate
    case handled by binary_irp_pvalue.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    return (m - 2 + math.sqrt(5.0 * m * m - 4.0 * m)) / (2.0 * (m * m - 1.0))


def _stationarity_residual(k: int, c: float) -> float:
    """Normalized stationarity residual  k! * sum_{i=0}^k c^i/i! / c^(k+1) - 1.

    Strictly decreasing in c > 0 (every summand k!/(i! c^(k+1-i)) is),
    diverging to +inf at 0+ and tending to -1 at infinity, so the sign
    change brackets the unique positive root of
    sum_{i=0}^k c^i/i! = c^(k+1)/k!.

    The j-th summand is k!/((k-j)! c^(j+1)); it grows while k - j > c and
    shrinks after.  Past that peak, a summand below total * 2^-54 is under
    half an ulp of total, as is every later one, so the sum stops there
    (or once it is inf) with the same bits as the full sum: O(sqrt(k))
    summands near the root instead of k + 1.
    """
    total = 0.0
    term = 1.0 / c
    for j in range(k + 1):
        total += term
        term *= (k - j) / c
        if (k - j <= c and term < total * 2.0**-54) or total == math.inf:
            break
    return total - 1.0


def asymptotic_constant(k: int) -> AsymptoticConstant:
    """Solve the stationarity equation for c_star and compute a_k.

    Bisection on [1e-12, k+3]: the normalized residual is +inf near 0 and
    at c = k+3 the sum is below 1/(c-k) = 1/3, so the bracket always
    straddles the root.  It halves the bracket until its ends are adjacent
    floats and the midpoint rounds to one of them: at most 54 steps for
    k <= 64, and as many at k = 5000.  a_k is finite at every k (see
    _numerator_at).  Examples: c_star(0) = 1 with a_0 = exp(-1); c_star(1)
    is the golden ratio.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    lo, hi = 1e-12, float(k + 3)
    r_lo = _stationarity_residual(k, lo)
    r_hi = _stationarity_residual(k, hi)
    if not (r_lo > 0 > r_hi):
        raise RuntimeError(
            "stationarity-root bracket failed: "
            f"residual({lo}) = {r_lo}, residual({hi}) = {r_hi} for k = {k}"
        )
    c = 0.5 * (lo + hi)
    while lo < c < hi:
        if _stationarity_residual(k, c) > 0:
            lo = c
        else:
            hi = c
        c = 0.5 * (lo + hi)

    return AsymptoticConstant(k=k, c_star=c, a_k=_numerator_at(k, c))


def _numerator_at(k: int, c: float) -> float:
    """a_k = exp(-c) * sum_{i=0}^k c^(i+1)/i!, for c the stationarity root.

    Below c = 700 the i-th power term is built iteratively and the terms
    stay in range: the largest is about c e^c / sqrt(2 pi c), under 1e306.
    The tabulated a_k (k <= 64, c < 67) come from this sum.  Above c = 700
    that term overflows and exp(-c) underflows, so the terms are summed as
    ratios to the largest, at i* = min(k, floor(c)), outward until they no
    longer count, and scaled once by c times the Poisson probability
    exp(-c) c^i*/i*!, from Loader's form.
    """
    if c < 700.0:
        terms = []
        term = c
        for i in range(k + 1):
            terms.append(term)
            term *= c / (i + 1)
        return math.exp(-c) * math.fsum(terms)
    top = min(k, int(c))
    ratios = [1.0]
    ratio = 1.0
    for i in range(top, 0, -1):
        ratio *= i / c
        ratios.append(ratio)
        if ratio < _TAIL:
            break
    ratio = 1.0
    for i in range(top, k):
        ratio *= c / (i + 1)
        ratios.append(ratio)
        if ratio < _TAIL:
            break
    log_poisson = -_stirlerr(top) - _bd0(top, c) - 0.5 * (_LN_2PI + math.log(top))
    return c * math.exp(log_poisson) * math.fsum(ratios)


def icp_pvalue(calibration_alphas: Sequence[float], test_alpha: float) -> Fraction:
    """Rank-based conformal p-value (1 + #{alpha_j >= test}) / (m + 1).

    The test summary always counts itself.  Returned as an exact rational:
    the value is a multiple of 1/(m+1) by construction, and exact
    arithmetic makes downstream dominance comparisons bit-reliable.
    float() renders it when a real is needed.
    """
    alphas = list(calibration_alphas)
    if not alphas:
        raise ValueError("calibration_alphas must be nonempty")
    count = sum(1 for a in alphas if a >= test_alpha)
    return Fraction(1 + count, len(alphas) + 1)


def dominating_pvalue(
    calibration_alphas: Sequence[float], test_alpha: float, threshold_a: float
) -> Fraction:
    """A p-variable that strictly dominates the rank-based conformal one.

    Returns m^m/(m+1)^(m+1) when the test summary strictly exceeds
    threshold_a while every calibration summary lies strictly below it,
    and the rank-based value otherwise.  In the first case the rank-based
    value is 1/(m+1), which is strictly larger, so the construction is
    never worse and sometimes better.  Exact rationals throughout, so
    equality on the fall-through branch is exact.
    """
    alphas = list(calibration_alphas)
    if not alphas:
        raise ValueError("calibration_alphas must be nonempty")
    m = len(alphas)
    if test_alpha > threshold_a and all(a < threshold_a for a in alphas):
        return Fraction(m**m, (m + 1) ** (m + 1))
    return icp_pvalue(alphas, test_alpha)


def binary_irp_pvariable(seq: SummarySequence) -> float:
    """Engine p-variable on a binary summary sequence.

    A conforming test summary yields p-value 1 (the aggregating statistic
    max(test - mean, 0) is at its minimum, so the exceedance event is
    sure); a nonconforming one yields binary_irp_pvalue(m, k).
    """
    if seq.test_summary == 0:
        return 1.0
    return binary_irp_pvalue(seq.m, seq.k)


def icp_pvariable(seq: SummarySequence) -> Fraction:
    """Rank-based conformal p-variable on a binary summary sequence."""
    return icp_pvalue(seq.calibration_summaries, seq.test_summary)


def dominating_pvariable(seq: SummarySequence, threshold_a: float = 0.5) -> Fraction:
    """Dominating p-variable on a binary summary sequence.

    Any threshold_a strictly between 0 and 1 identifies the same event on
    bits: test summary 1 with zero calibration ones.
    """
    return dominating_pvalue(seq.calibration_summaries, seq.test_summary, threshold_a)
