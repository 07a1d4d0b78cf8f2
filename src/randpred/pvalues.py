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

    psi(s) = s + log R - log(m-k) = log F - log((k+1) b(k+1; m, p))

is convex and increasing.  Its derivatives are closed forms of psi
itself: with E[i | i <= k] = m p - q (k+1) b(k+1)/F = m p - q e^-psi,

    psi'  = 1 + E[k - i | i <= k] = 1 + k - m p + q e^-psi  >= 1,
    psi'' = Var[k - i | i <= k]   = m p q + p q e^-psi - q e^-psi psi'.

At the rank-based rate p = (k+1)/(m+1) every coefficient of R is below 1,
so psi < 0 there and the root lies at a smaller p.

maximize_objective starts near the root and takes Halley steps.  At k = 1
it starts at the closed form optimal_p_k1, and one pass confirms it.  For
k >= 2 the Normal approximation of the binomial, with F near 1 at the
root, puts the mean at m p = k + 1/2 - z sd, where sd = sqrt(k(m-k)/m)
and the Normal density at z is 1/sd; z is 0 when sd <= sqrt(2 pi), and
the start is capped at the rank-based rate.  One pass (_pass) evaluates
F and b(k+1), so psi, and psi' and psi'' follow.  With h = psi/psi' the
Newton step, the Halley step is h / (1 - h psi''/(2 psi')), which
converges cubically near the root.  Every step has the sign of psi, so
it heads for the root.  Where psi < 0 the denominator is at least 1 and
the step is no longer than Newton's; where psi > 0 the step is taken
only while the denominator is at least 1/2, so it is at most twice
Newton's, and the Newton step is taken otherwise.  Newton's method alone
converges from any start on a convex increasing psi; for the corrected
steps that is checked, not proved: at most 5 passes on every case the
tests try.  The steps move p and q themselves, each with its own digits.
The search ends at a step below _STEP_TOL once the value is within
_FLAT_TOL of the maximum, and raises after _MAX_NEWTON passes.

Below k = _FRACTION_K (180, where one pass of each kind took the same
time) a pass sums F outward from min(k, mode), where its largest term
sits, with binomial terms from Loader's saddle-point form (stirlerr and
bd0; C. Loader, Fast and Accurate Computation of Binomial Probabilities,
2000), so no term overflows and the sum stops once terms no longer
count: O(sqrt(k)) terms.  From it on, F = 1 - U with the upper tail
U = I_p(k+1, m-k) from its continued fraction (the tails module), at
most 54 steps at every iterate of the search: O(1) in k.  The fraction
slows as p nears the rank-based rate, and from k ~ 1e32 the maximizer
lies within an ulp or so of it: there a fraction that has not converged
in 2000 steps raises RuntimeError naming (m, k) within milliseconds, and
so does a search whose psi' has lost its digits to k - m p.  No input
runs for longer.

With p = c/m and m growing, the equation tends to a Poisson one.
asymptotic_constant reads its root c_star and the limit a_k of
m * pvalue(m, k) off the engine's maximum at m = max(k, 1) 2^60, by one
route at every k.  The module also provides the closed forms available
at k=0 and k=1, and the rank-based conformal p-value together with a
construction that strictly dominates it.

Importing the module loads only math, sys, functools and typing, so
`import randpred` stays cheap.  The tails module is loaded by the first
pass at k >= _FRACTION_K.  The rank-based functions return exact
Fractions and import fractions, which loads decimal, when called.
"""

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence, Tuple

if TYPE_CHECKING:
    # Annotations only: importing .audits at run time would load numpy, and
    # fractions (with decimal) is imported by the functions that need it.
    # Optional is quoted, as each new typing subscript costs import time.
    from fractions import Fraction
    from typing import Optional

    from .audits import SummarySequence

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
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
# The largest m, the largest float as an int, with which m compares fast.
M_MAX = int(sys.float_info.max)

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
# The root search stops at a step in s below _STEP_TOL, once the value is
# also within _FLAT_TOL of the maximum.  The log of the objective falls off
# the maximum at rate q |1 - exp(-psi)| in s, so the value is off by about
# that times the step, q psi' step^2 near the root: negligible while
# psi' ~ sqrt(k) is small, below k ~ 1e11.
_STEP_TOL = 1e-12
_FLAT_TOL = 2.0**-51
_MAX_NEWTON = 100
# From k = _FRACTION_K on, a pass takes F from a continued fraction in
# place of the sum, which costs O(sqrt(k)); see _pass.  At k = 180 one
# pass of each took the same time (timeit at the root, k/m from 1e-3 to
# 0.1).
_FRACTION_K = 180
# asymptotic_constant takes the engine's maximum at
# m = max(k, 1) * 2**_POISSON_SHIFT.
_POISSON_SHIFT = 60


class AsymptoticConstant(NamedTuple):
    """Limit constant a_k with m * pvalue(m, k) -> a_k as m grows.

    c_star is the optimal Bernoulli rate scaled by m (p ~ c_star/m),
    the unique positive root of  sum_{i=0}^k c^i/i! = c^(k+1)/k!,
    and a_k = sum_{i=0}^k c_star^(i+1) exp(-c_star)/i!.  An immutable
    tuple (k, c_star, a_k): it unpacks, and _asdict() gives its fields.
    """

    k: int
    c_star: float
    a_k: float


def m_error(m, least: int = 1) -> ValueError:
    """The ValueError for an m that is not an integer from least up to
    M_MAX: every evaluation converts m to a float."""
    return ValueError(
        f"m must be an integer from {least} to the largest float, {M_MAX:.6g}; got {m!r}"
    )


def _validate_mk(m: int, k: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= M_MAX:
        raise m_error(m)
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= m:
        raise ValueError(f"k must be an integer in [0, m={m}], got {k!r}")


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float, d: float) -> float:
    """The deviance x log(x/mean) + mean - x, given d = x - mean, by its
    series near x = mean.  The half sum keeps it finite up to the largest
    float."""
    half = 0.5 * x + 0.5 * mean
    if abs(d) < 0.2 * half:
        v = 0.5 * d / half
        total = d * v
        term = 2.0 * (x * v)
        v *= v
        j = 3
        while True:
            term *= v
            new = total + term / j
            if new == total:
                return total
            total = new
            j += 2
    return x * math.log(x / mean) - d


def _log_pmf(i: int, m: int, p: float, q: float) -> float:
    """log b(i; m, p) for 0 <= i < m, with q = 1 - p passed in separately.

    Loader's form: Stirling remainders and deviances, each small near the
    mode, in place of differences of large log-factorials.  Both
    deviances take the gap m p - i from the smaller mean, where it keeps
    its digits.  Taken as (m - i) - m q it would be off by up to an ulp
    of m, whose square over m swamps the pmf from m ~ 2^106.
    """
    if i == 0:
        return m * (math.log1p(-p) if p < 0.5 else math.log(q))
    mp = m * p
    gap = mp - i if p <= q else (m - i) - m * q
    return (
        _stirlerr(m)
        - _stirlerr(i)
        - _stirlerr(m - i)
        - _bd0(i, mp, -gap)
        - _bd0(m - i, m * q, gap)
        - 0.5 * (_LN_2PI + math.log(i * (m - i) / m))
    )


def _mode_sums(m: int, k: int, p: float, q: float) -> Tuple[int, float, float]:
    """F(k; m, p) relative to its top term, by summing the terms.

    Returns (i0, total, top) with i0 = min(k, mode), total = sum_{i<=k}
    b(i)/b(i0), and top = b(k)/b(i0) as the upward sum reached it, or 0.0
    where that sum stopped short of k.  The terms fall monotonically away
    from the mode, so each direction stops at the first term too small to
    count.  Requires 0 < p < 1, k < m.
    """
    i0 = min(k, int((m + 1) * p))
    total = 1.0
    ratio = q / p
    term = 1.0
    for i in range(i0, 0, -1):
        term *= i * ratio / (m - i + 1)
        total += term
        if term < _TAIL * total:
            break
    ratio = p / q
    term = 1.0
    for i in range(i0, k):
        term *= (m - i) * ratio / (i + 1)
        total += term
        if term < _TAIL * total:
            return i0, total, 0.0
    return i0, total, term


def _pass(m: int, k: int, p: float, q: float) -> "Tuple[float, Optional[int], float]":
    """One evaluation of F(k; m, p) for the root search and the objective.

    Returns (log_w, i0, total): log_w = log((k+1) b(k+1; m, p) / F), which
    is -psi, and F = total b(i0; m, p), or F = total where i0 is None.
    Below _FRACTION_K, F is summed by _mode_sums.  From it on, it comes
    from a continued fraction (tails.fraction_pass), a module loaded on
    the first pass that needs it.  Requires 0 < p < 1, k < m.
    """
    if k >= _FRACTION_K:
        from .tails import fraction_pass

        return fraction_pass(m, k, p, q)
    i0, total, top = _mode_sums(m, k, p, q)
    w = (m - k) * p * top / (q * total)
    if w > 0.0:
        return math.log(w), i0, total
    # the upward sum stopped short of k: b(k)/b(i0) from the pmf
    log_w = math.log((m - k) * p / (q * total))
    return log_w + _log_pmf(k, m, p, q) - _log_pmf(i0, m, p, q), i0, total


def _value(m: int, p: float, q: float, i0: "Optional[int]", total: float) -> float:
    """p F(k; m, p) from a pass's (i0, total)."""
    if i0 is None:
        return p * total
    return p * math.exp(_log_pmf(i0, m, p, q)) * total


def _shifted(p: float, q: float, step: float) -> Tuple[float, float]:
    """(p', q') with p' + q' = 1 and q'/p' = exp(-step) q/p, each to full
    relative precision: the move s -> s - step in s = log(q/p), made on
    p and q themselves, so that it keeps its digits where |s| is large."""
    e = math.exp(-abs(step))
    if step >= 0.0:
        q *= e
    else:
        p *= e
    total = p + q
    return p / total, q / total


def objective(m: int, k: int, p: float) -> float:
    """Evaluate p F(k; m, p) = sum_{i=0}^k C(m,i) p^(i+1) (1-p)^(m-i).

    F comes from the pass the root search makes (_pass): for k below
    _FRACTION_K its terms are summed outward from the largest one, each
    as a ratio to it, and that one comes from Loader's binomial pmf, so
    nothing overflows or underflows early at any m; from it on, F comes
    from a continued fraction whose cost hardly grows with k, and which
    raises RuntimeError where it does not converge (see tails).  Near
    the maximum the value is accurate to a few ulps; the relative error
    grows like |k - mp|/(1-p) ulps, which is how sensitive the objective
    itself is to the last bit of p.  The engine evaluates its maximum the
    same way.
    """
    _validate_mk(m, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k == m:
        return p
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    _, i0, total = _pass(m, k, p, q)
    return _value(m, p, q, i0, total)


def maximize_objective(m: int, k: int) -> Tuple[float, float]:
    """Maximize the objective over p in [0,1]; return (argmax, maximum).

    k = 0 is the closed form m^m/(m+1)^(m+1) at p = 1/(m+1), and k = m
    is p itself, maximal at 1.  Otherwise Halley's method in
    s = log((1-p)/p) solves psi(s) = 0, whose root is the unique
    maximizer, from a start near it; a step that the curvature term would
    more than double is a Newton step (see the module docstring).  Each
    pass (_pass) gives psi, and psi' and psi'' follow from it in closed
    form.  Iteration ends at a step below _STEP_TOL once the value is
    within _FLAT_TOL of the maximum: the argmax returned takes that last
    step, and the value is the last pass's.  Past the engine's range (the
    module docstring) it raises RuntimeError.
    """
    _validate_mk(m, k)
    if k == m:
        return 1.0, 1.0
    if k == 0:
        return 1.0 / (m + 1), exact_pvalue_k0(m)
    p, q = _start(m, k)
    for _ in range(_MAX_NEWTON):
        log_w, i0, total = _pass(m, k, p, q)
        v = q * math.exp(log_w)  # m p - E[i | i <= k]
        # k - m p, from the smaller rate, which has its digits
        slope = 1.0 + v + (k - m * p if p <= q else m * q - (m - k))
        if not slope > 0.0:
            break  # psi' >= 1 lost its digits to k - m p: k is past ~1e32
        newton = -log_w / slope
        halley = 1.0 - 0.5 * newton * (m * p * q + v * (p - slope)) / slope
        step = newton / halley if halley >= 0.5 else newton
        if abs(step) <= _STEP_TOL and abs((q - v) * step) <= _FLAT_TOL:
            return _shifted(p, q, step)[0], _value(m, p, q, i0, total)
        p, q = _shifted(p, q, step)
    raise RuntimeError(f"the root search did not converge at m = {m}, k = {k}")


def _start(m: int, k: int) -> Tuple[float, float]:
    """A starting (p, q) near the stationarity root, 0 < k < m.

    The closed form at k = 1; otherwise the Normal approximation of the
    module docstring, capped at the rank-based rate (k+1)/(m+1).  q comes
    from m - k, which keeps its digits where k is near m.
    """
    if k == 1:
        p = optimal_p_k1(m)
        return p, 1.0 - p
    sd = math.sqrt(k * ((m - k) / m))
    z = math.sqrt(2.0 * math.log(sd / _SQRT_2PI)) if sd > _SQRT_2PI else 0.0
    # (k + 1/2 - z sd)/m < (k+1)/(m+1), with its integer part exact
    if z * sd > (2 * k + 1 - m) / (2 * (m + 1)):
        return (k + 0.5 - z * sd) / m, (m - k - 0.5 + z * sd) / m
    return (k + 1) / (m + 1), (m - k) / (m + 1)


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

    Evaluated as exp(-m*log1p(1/m)) / (m+1): the exponent stays in
    [-1, -log 2], so its rounding error does not grow with log m as that
    of exp(-log1p(m) - m*log1p(1/m)) does.  Satisfies
    exact_pvalue_k0(m) <= exp(-1)/m for every m >= 1.
    """
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= M_MAX:
        raise m_error(m)
    return math.exp(-m * math.log1p(1.0 / m)) / (m + 1)


def optimal_p_k1(m: int) -> float:
    """Argmax of the k = 1 objective: (m - 2 + sqrt(5m^2 - 4m)) / (2(m^2 - 1)).

    The stationarity condition at k = 1 is a quadratic in p; this is its
    root in [0, 1].  Grows like phi/m with phi the golden ratio.  m = 1
    is rejected: the denominator vanishes and k = 1 = m is the degenerate
    case handled by binary_irp_pvalue.

    From m ~ 6e153, 5m^2 overflows a float.  There the terms in 1/m are
    far below an ulp of the root, which rounds to phi/m.
    """
    if not isinstance(m, int) or isinstance(m, bool) or not 2 <= m <= M_MAX:
        raise m_error(m, least=2)
    square = 5.0 * m * m
    if square == math.inf:
        return _PHI / m
    return (m - 2 + math.sqrt(square - 4.0 * m)) / (2.0 * (m * m - 1.0))


def asymptotic_constant(k: int) -> AsymptoticConstant:
    """The limit constants c_star and a_k, with m * pvalue(m, k) -> a_k.

    With p = c/m and m growing, the objective tends to its Poisson limit
    c P(N <= k) for N ~ Poisson(c), maximal at c_star, and
    m pvalue(m, k) tends to that maximum, a_k.  Both come from the engine
    (maximize_objective) at m = max(k, 1) 2^60: c_star = m p* and
    a_k = m p* F(k; m, p*).  The binomial terms near the mode are the
    Poisson ones times about exp(-(i - c)^2/(2m)), so both are off their
    limits by O(k/m), at most about 1e-18 relative, below the engine's
    own few ulps; and the engine's cost does not grow with k, so neither
    does this.  At k = 0, m = 2^60 gives c_star = 1.0 and a_0 = exp(-1)
    exactly; c_star(1) is the golden ratio.  A k whose m would pass M_MAX
    raises ValueError naming k; past the engine's range (the module
    docstring) it raises RuntimeError.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    m = max(k, 1) << _POISSON_SHIFT
    if m > M_MAX:
        raise ValueError(
            f"k must be at most the largest float over 2^{_POISSON_SHIFT}, "
            f"{M_MAX >> _POISSON_SHIFT:.6g}, for a_k; got {k!r}"
        )
    try:
        p, value = maximize_objective(m, k)
    except RuntimeError as exc:
        raise RuntimeError(
            f"a_k at k = {k} is past the engine's range: "
            f"it did not converge at m = k * 2**{_POISSON_SHIFT}"
        ) from exc
    return AsymptoticConstant(k=k, c_star=m * p, a_k=m * value)


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
    return binary_irp_pvalue(seq.m, seq.k)


def icp_pvariable(seq: "SummarySequence") -> "Fraction":
    """Rank-based conformal p-variable on a binary summary sequence."""
    return icp_pvalue(seq.calibration_summaries, seq.test_summary)


def dominating_pvariable(seq: "SummarySequence", threshold_a: float = 0.5) -> "Fraction":
    """Dominating p-variable on a binary summary sequence.

    Any threshold_a strictly between 0 and 1 identifies the same event on
    bits: test summary 1 with zero calibration ones.
    """
    return dominating_pvalue(seq.calibration_summaries, seq.test_summary, threshold_a)
