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

So are those of the log objective: with v = q e^-psi, u = p - psi' and
D = p q (p - q), its slope in s is g = v - q, zero at the root, and

    g'' = v (u^2 - p q - psi'') - D,      psi''' = g'' + (m + 1) D,
    g''' = v (u^3 - 3 u (p q + psi'') - D - psi''') - p q (1 - 6 p q).

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
steps that is checked, not proved: at most 4 passes on every case the
tests try.  The steps move p and q themselves, each with its own digits.
The search does not confirm its last step with one more pass: once a
step is small enough for the Taylor model of the pass to reach the
maximum within 2^-54 (maximize_objective), it takes the argmax and the
maximum from that model.  So most calls at k >= 2 end on their second
pass, and k = 1 ends on its first, where the model's corrections round
away.  From k ~ 1e24, where no model passes, a pass flat to first order
ends the search.  It raises after _MAX_NEWTON passes.

Below k = _FRACTION_K (180, where one pass of each kind took the same
time) a pass sums F outward from min(k, mode), where its largest term
sits, with binomial terms from Loader's saddle-point form (stirlerr and
bd0; C. Loader, Fast and Accurate Computation of Binomial Probabilities,
2000), so no term overflows and the sum stops once terms no longer
count: O(sqrt(k)) terms.  From it on, F = 1 - U with the upper tail
U = I_p(k+1, m-k) from its continued fraction (the tails module), at
most 54 steps at every iterate of the search: O(1) in k.  The fraction
slows as p nears the rank-based rate.  Every (m, k) with k or m - k below
about 1e32 returns.  From there the maximizer lies within an ulp or so
of the rank-based rate, and the maximum p F is k/m to double precision.
Whether such a call returns depends on where its iterates round, not on
a bound in (m, k): it returns a value within 7.3e-16 of k/m when every
pass's fraction converges and the flat test ends the search, and raises
RuntimeError naming (m, k), within milliseconds, when a fraction has not
converged in 2000 steps or psi' has lost its digits to k - m p.  On a
log grid of m up to the largest float (k = 10^j, m - 10^j and
m/2 + 10^j/7), 71% of the cases whose smaller of k and m - k lies in
[1e32, 1e36) return, and 2.4% of those where it is at least 1e36.  No
input runs for longer.

With p = c/m and m growing, the equation tends to a Poisson one.
asymptotic_constant reads its root c_star and the limit a_k of
m * pvalue(m, k) off the engine's maximum at m = max(k, 1) 2^60, by one
route at every k.  The module also provides the closed forms available
at k=0 and k=1.  The rank-based conformal p-value, the construction that
strictly dominates it and the p-variables are in the ranks module.

Importing the module loads only math, sys, functools and typing, so
`import randpred` stays cheap: it compiles this module from source where
no bytecode is kept.  The tails module is loaded by the first pass at
k >= _FRACTION_K.
"""

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Tuple

if TYPE_CHECKING:
    # Optional is quoted, as each new typing subscript costs import time.
    from typing import Optional

__all__ = [
    "AsymptoticConstant",
    "objective",
    "maximize_objective",
    "binary_irp_pvalue",
    "exact_pvalue_k0",
    "optimal_p_k1",
    "asymptotic_constant",
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
# The root search ends on a pass whose step in s is at most _MODEL_STEP,
# with |psi| at most _MODEL_PSI, once its Taylor model of the maximum drops
# at most _MODEL_TOL of it (see maximize_objective).  psi ~ psi' d is the
# step in units of the peak's width: further out the model does not see
# the fall of F at the root.  Where no model holds, a step below _STEP_TOL
# that moves the log of the value by at most _FLAT_TOL ends the search.
_MODEL_STEP = 1e-4
_MODEL_TOL = 2.0**-54
_MODEL_PSI = 8.0
_STEP_TOL = 1e-12
_FLAT_TOL = 2.0**-51
_MAX_NEWTON = 100
# Where the fraction raises, objective sums the terms up to k = _SUM_K,
# where the sum takes about 0.15 s, and lets the RuntimeError stand above.
_SUM_K = 10**10
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
    from a continued fraction whose cost hardly grows with k.  From
    k ~ 3e7 the fraction runs past its step cap within about half a
    binomial sd of the rank-based rate; there the terms are summed, up
    to k = _SUM_K, where the sum takes about 0.15 s, and above it the
    RuntimeError stands (see tails).  Near the maximum the value is
    accurate to a few ulps; the relative error grows like |k - mp|/(1-p)
    ulps, which is how sensitive the objective itself is to the last bit
    of p, and in the sum the rounding of q/p compounds over the terms
    that count: 8e-13 near the rate at k = 1e8.
    """
    _validate_mk(m, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k == m:
        return p
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    try:
        _, i0, total = _pass(m, k, p, q)
    except RuntimeError:
        if k > _SUM_K:
            raise
        i0, total, _ = _mode_sums(m, k, p, q)
    return _value(m, p, q, i0, total)


def maximize_objective(m: int, k: int) -> Tuple[float, float]:
    """Maximize the objective over p in [0,1]; return (argmax, maximum).

    k = 0 is the closed form m^m/(m+1)^(m+1) at p = 1/(m+1), and k = m
    is p itself, maximal at 1.  Otherwise Halley's method in
    s = log((1-p)/p) solves psi(s) = 0, whose root is the unique
    maximizer, from a start near it; a step that the curvature term would
    more than double is a Newton step (see the module docstring).  Each
    pass (_pass) gives psi, and its derivatives follow from it in closed
    form.  The search ends on the pass whose step d is at most
    _MODEL_STEP and whose model of the maximum drops at most _MODEL_TOL
    of it, and both results come from that pass's Taylor model: the
    argmax from the cubic model of psi, the maximum from
    log(p F)(s - d) = log(p F)(s) + (q - v) d/2 + g'' d^3/12, with the
    notation of the module docstring.  That drops -g''' d^4/24 + O(d^5),
    and the rest is smaller by a factor of about psi' |d|, so the exit
    bounds it by twice the first term: |g'''| d^4/12 <= _MODEL_TOL.  The
    model is taken only where |psi| <= _MODEL_PSI, as psi ~ psi' d is d
    in units of the peak's width, and psi' is above the rounding of
    k - m p.  Where |psi| <= 2^-28 the model's corrections round away:
    |d| <= 2 |psi|, as psi' >= 1, so they are at most about
    q psi d/2 <= psi^2 in the log of the value and psi^2 |d| in the
    argmax's s, below 2^-55.  There the pass's value and its Halley step
    are returned as they are; so is every k = 1 call, whose start is the
    root to within 3.2e-16 in s.  Where no model passes, a pass whose
    step is below _STEP_TOL and moves the log of the value by at most
    _FLAT_TOL to first order ends the search as it is: from k ~ 1e24,
    where psi' passes 1e12 and the bound asks for steps below 1e-12, and
    where the floats near the root leave psi units from 0.  Past the
    engine's range (the module docstring) it raises RuntimeError.
    """
    _validate_mk(m, k)
    return _maximize(m, k)


def _maximize(m: int, k: int) -> Tuple[float, float]:
    """maximize_objective for an (m, k) already checked."""
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
        u, pq = p - slope, p * q
        curve = m * pq + v * u  # psi''
        halley = 1.0 - 0.5 * newton * curve / slope
        step = newton / halley if halley >= 0.5 else newton
        if abs(log_w) <= 2.0**-28:  # the model's corrections round away
            return _shifted(p, q, step)[0], _value(m, p, q, i0, total)
        # the model needs a small step, within a few widths of the peak
        # (psi ~ psi' d), and a psi' above the rounding of k - m p
        if (
            abs(step) <= _MODEL_STEP
            and abs(log_w) <= _MODEL_PSI
            and slope > 2.0**-52 * m * min(p, q)
        ):
            big_d = pq * (p - q)
            w = u * u - pq - curve
            g2 = v * w - big_d
            third = g2 + (m + 1) * big_d  # psi'''
            g3 = v * (u * (w - 2 * (pq + curve)) - big_d - third) - pq * (1 - 6 * pq)
            if abs(g3) * (step * step) ** 2 <= 12 * _MODEL_TOL:
                t = step  # the root of the cubic model of psi(s - t)
                for _ in range(2):
                    t += (t * (slope - t * (curve / 2 - t * third / 6)) + log_w) / (
                        curve * t - slope - third * t * t / 2
                    )
                gain = math.exp(t * ((q - v) / 2 + g2 * t * t / 12))
                return _shifted(p, q, t)[0], _value(m, p, q, i0, total) * gain
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
    return _maximize(m, k)[1]


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
        p, value = _maximize(m, k)
    except RuntimeError as exc:
        raise RuntimeError(
            f"a_k at k = {k} is past the engine's range: "
            f"it did not converge at m = k * 2**{_POISSON_SHIFT}"
        ) from exc
    return AsymptoticConstant(k=k, c_star=m * p, a_k=m * value)
