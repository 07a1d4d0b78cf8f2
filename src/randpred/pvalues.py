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
psi(s) = s + log R - log(m-k) is convex and increasing with psi' >= 1,
so Newton's method in s converges from any start.  With p = c/m and m
growing, the equation tends to the Poisson one solved by
asymptotic_constant (see _stationarity_residual).

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
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import SummarySequence

__all__ = [
    "EngineConfig",
    "DEFAULT_CONFIG",
    "AsymptoticConstant",
    "objective",
    "maximize_objective",
    "verification_scan",
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
# Newton stops at a step in s below _STEP_TOL.  The objective is flat at
# its maximum, so the value there is off by the square of that.
_STEP_TOL = 1e-12
_MAX_NEWTON = 100


@dataclass(frozen=True)
class EngineConfig:
    """Numerical knobs for the asymptotic-constant solver.

    The finite-m engine has none: it solves its stationarity equation to
    rounding.

    Parameters
    ----------
    constant_tol : float
        Relative tolerance for the stationarity residual of the
        asymptotic-constant solver (relative to the dominant term of the
        stationarity equation, whose magnitude grows like c^(k+1)/k!).
    """

    constant_tol: float = 1e-13

    def __post_init__(self):
        if not self.constant_tol > 0:
            raise ValueError(f"constant_tol must be positive, got {self.constant_tol}")


DEFAULT_CONFIG = EngineConfig()


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


def _mode_sums(m: int, k: int, p: float, q: float) -> Tuple[int, float, float]:
    """F(k; m, p) and its first moment about k, relative to the top term.

    Returns (i0, total, moment) with i0 = min(k, mode),
    total = sum_{i<=k} b(i)/b(i0) and moment = sum_{i<=k} (k-i) b(i)/b(i0).
    The terms fall monotonically away from the mode, so each direction
    stops at the first term too small to count.  Requires 0 < p < 1, k < m.
    """
    i0 = min(k, int((m + 1) * p))
    total = 1.0
    moment = float(k - i0)
    ratio = q / p
    term = 1.0
    for i in range(i0, 0, -1):
        term *= i * ratio / (m - i + 1)
        total += term
        moment += (k - i + 1) * term
        if term < _TAIL * total:
            break
    ratio = p / q
    term = 1.0
    for i in range(i0, k):
        term *= (m - i) * ratio / (i + 1)
        total += term
        moment += (k - i - 1) * term
        if term < _TAIL * total:
            break
    return i0, total, moment


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
    i0, total, _ = _mode_sums(m, k, p, q)
    return p * math.exp(_log_pmf(i0, m, p, q)) * total


def maximize_objective(m: int, k: int) -> Tuple[float, float]:
    """Maximize the objective over p in [0,1]; return (argmax, maximum).

    k = 0 is the closed form m^m/(m+1)^(m+1) at p = 1/(m+1), and k = m
    is p itself, maximal at 1.  Otherwise Newton's method in
    s = log((1-p)/p) solves s + log R(e^s) = log(m-k), whose root is the
    unique maximizer (see the module docstring); its derivative
    1 + E[k - i | i <= k] comes from the same pass over the terms.
    """
    _validate_mk(m, k)
    if k == m:
        return 1.0, 1.0
    if k == 0:
        return 1.0 / (m + 1), exact_pvalue_k0(m)
    log_gap = math.log(m - k)
    s = math.log((m - k) / (k + 1))  # the rank-based rate p = (k+1)/(m+1)
    for _ in range(_MAX_NEWTON):
        p, q = _rates(s)
        i0, total, moment = _mode_sums(m, k, p, q)
        psi = s + math.log(total) - log_gap
        if i0 < k:
            psi += _log_pmf(i0, m, p, q) - _log_pmf(k, m, p, q)
        step = psi / (1.0 + moment / total)
        if abs(step) <= _STEP_TOL:
            return p, p * math.exp(_log_pmf(i0, m, p, q)) * total
        s -= step
    raise RuntimeError(f"Newton's method did not converge at m = {m}, k = {k}")


def verification_scan(m: int, k: int, points: int = 40960) -> Tuple[float, float]:
    """Exhaustive scan of the objective over an even grid of points in [0, 1].

    A slow check on maximize_objective that shares none of its code:
    every term is exp(lgamma sum + power logs), vectorized over the grid.
    Returns (argmax, maximum) over the grid.
    """
    _validate_mk(m, k)
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ValueError(f"points must be an integer >= 2, got {points!r}")
    if k == m:
        return 1.0, 1.0
    ps = np.linspace(0.0, 1.0, points)
    with np.errstate(divide="ignore"):
        log_p = np.log(ps)
        log_q = np.log1p(-ps)
    values = np.zeros_like(ps)
    for i in range(k + 1):
        log_c = math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
        values += np.exp(log_c + (i + 1) * log_p + (m - i) * log_q)
    best = int(np.argmax(values))
    return float(ps[best]), float(values[best])


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
    """
    total = 0.0
    term = 1.0 / c
    for j in range(k + 1):
        total += term
        term *= (k - j) / c
    return total - 1.0


def asymptotic_constant(k: int, cfg: Optional[EngineConfig] = None) -> AsymptoticConstant:
    """Solve the stationarity equation for c_star and compute a_k.

    Bisection on [1e-12, k+3]: the normalized residual is +inf near 0 and
    at c = k+3 the sum is below 1/(c-k) = 1/3, so the bracket always
    straddles the root.  Examples: c_star(0) = 1 with a_0 = exp(-1);
    c_star(1) is the golden ratio.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = 1e-12, float(k + 3)
    r_lo = _stationarity_residual(k, lo)
    r_hi = _stationarity_residual(k, hi)
    if not (r_lo > 0 > r_hi):
        raise RuntimeError(
            "stationarity-root bracket failed: "
            f"residual({lo}) = {r_lo}, residual({hi}) = {r_hi} for k = {k}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _stationarity_residual(k, mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= cfg.constant_tol * max(1.0, lo):
            break
    c = 0.5 * (lo + hi)

    # a_k = exp(-c) * sum_{i=0}^k c^(i+1)/i!, the i-th power term built
    # iteratively to keep every intermediate in range for k <= 64.
    terms = []
    term = c
    for i in range(k + 1):
        terms.append(term)
        term *= c / (i + 1)
    a_k = math.exp(-c) * math.fsum(terms)
    return AsymptoticConstant(k=k, c_star=c, a_k=a_k)


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
