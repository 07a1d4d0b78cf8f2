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

maximize_objective needs no search at k <= 2: the root is the closed
form optimal_p_k1 at k = 1, and at k = 2 the root of a cubic, by Newton's
method (_root_k2); one sum of the terms there gives the maximum.  For
k > 2 it starts near the root and takes Halley steps.  Below _FRACTION_K,
where m >= 10 k or k <= 7, the start is the Poisson root p = c_star(k)/m
(asymptotic_constant), from a table.  Elsewhere the Normal approximation
of the binomial, with F near 1 at the root, puts the mean at
m p = k + 1/2 - z sd, where sd = sqrt(k(m-k)/m) and the Normal density
at z is 1/sd; z is 0 when sd <= sqrt(2 pi), which starts k <= 6 at large
m a pass away.  Each start is capped at the rank-based rate.  One pass
(_pass) evaluates F and b(k+1), so psi, and psi' and psi'' follow.  With
h = psi/psi' the Newton step, the Halley step is
h / (1 - h psi''/(2 psi')), which converges cubically near the root.
Every step has the sign of psi, so it heads for the root.  Where psi < 0
the denominator is at least 1 and the step is no longer than Newton's;
where psi > 0 the step is taken only while the denominator is at least
1/2, so it is at most twice Newton's, and the Newton step is taken
otherwise.  Newton's method alone converges from any start on a convex
increasing psi; for the corrected steps that is checked, not proved: at
most 4 passes on every case the tests try.  The steps move p and q
themselves, each with its own digits.
The search does not confirm its last step with one more pass: once a
step is small enough for the Taylor model of the pass to reach the
maximum within 2^-54 (maximize_objective), it takes the argmax and the
maximum from that model.  So most calls at k > 2 end on their second
pass.  From k ~ 1e24, where no model passes, a pass flat to first order
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

_integer is the package's one integer rule: every public count, size
and seed, here and in the other modules, is checked and made a Python
int by it.  It accepts Python's and numpy's integers and 0-d integer
arrays, and no bool.

Importing the module loads only math, operator, sys, functools and
typing, so `import randpred` stays cheap: it compiles this module from
source where no bytecode is kept.  The tails module is loaded by the
first pass at k >= _FRACTION_K.
"""

import math
import operator
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
# c_star(k), the root of sum_{i<=k} c^i/i! = c^(k+1)/k!, for
# k = 2 .. _FRACTION_K - 1, each the float nearest a 40-digit root: the
# search starts there (_start).  Each entry takes 19 characters, so
# _c_star parses only the one it needs; a tuple literal would cost import
# time.
_C_STARS = """
2.2695308420811426  2.945186161156526 3.6395471264802954  4.349047605110898
 5.071184345957452   5.80411039330799  6.546411427031174 7.2969727221838445
 8.054895170257712  8.819439730366772  9.589989266697097 10.366021495216177
11.147089292444933 11.932806035775988  12.72283447464453  13.51687813689125
 14.31467459233471 15.115990101230963 15.920615311855048 16.728361764172337
17.539059020818843 18.352552291938057   19.1687004529271  19.98737437780373
20.808455528360014 21.631834752307462 22.457411253469814 23.285091704603193
 24.11478947922433 24.946423983342093 25.779920071530334 26.615207534582677
27.452220648223083  28.29089777413818 29.131181006045004  29.97301585468402
30.816350966589127 31.661137872276544  32.50733076014765  33.35488627294288
 34.20376332403613 35.053922931238105  35.90532806609563  36.75794351694369
37.611735764195096  38.46667286654715  39.32272435695097 40.179861147331216
  41.0380554411665 41.897280653146275  42.75751133521135  43.61872310836417
 44.48089259970434 45.343997384204364  46.20801593079371  47.07292755236485
47.938712359355804  48.80535121659896  49.67282570315768  50.54111807489988
 51.41021122958232 52.280088674241476  53.15073449470593 54.022133327062974
 54.89427033092738  55.76713116437408  56.64070196040913 57.514969304864266
58.389920215610466  59.26554212299493 60.141822851414005 61.018750601941925
61.896313935941755 62.774501759591224 63.653303309261204   64.5327081376898
 65.41270610089936  66.29328734580797  67.17444229849048  68.05616165304761
 68.93843636104512  69.82125762148696  70.70461687129026   71.5885057762309
 72.47291622233193  73.35784030766807  74.24327033456208  75.12919880215013
 76.01561839929468  76.90252199782562   77.7899026460906  78.67775356279762
 79.56606813113376  80.45483989314486  81.34406254436202   82.2337299286619
 83.12383603334823  84.01437498444302   84.9053410421766  85.79672859666613
 86.68853216377317  87.58074638113114  88.47336600433415   89.3663859032794
 90.25980105865523  91.15360655856831  92.04779759530267  92.94236946220465
 93.83731755068773  94.73263734735146   95.6283244312095  96.52437447102136
 97.42078322272343  98.31754652695454  99.21466030667203 100.11212056485411
 101.0099233822848 101.90806491541778 102.80654139431579 103.70534912066223
 104.6044844658419 105.50394386908805 106.40372383569269 107.30382093527788
 108.2042318001252 109.10495312356093 110.00598165839514  110.9073142154119
111.80894766190893 112.71087892028476 113.61310496667114 114.51562282960941
 115.4184295887687 116.32152237370461 117.22489836265663 118.12855478138303
119.03248890203156 119.93669804204474 120.84117956309848 121.74593087007277
 122.6509494100531 123.55623267136176 124.46177818261769 125.36758351182404
126.27364626548228 127.17996408773202 128.08653465951556 128.99335569776642
129.90042495462086  130.8077402166517  131.7152993041235 132.62310007026886
133.53114040058423 134.43941821214565 135.34793145294273 136.25667810123107
137.16565616490197  138.0748636808692 138.98429871447206 139.89395935889408
 140.8038437345975 141.71394998877216 142.62427629479885 143.53482085172658
144.44558188376337  145.3565576397799 146.26774639282598 147.17914643965898
148.09075610028447   149.002573717508  149.9145976564982 150.82682630436068
151.73925806972238 152.65189138232594  153.5647246926342   154.477756471444
155.39098520950938  156.3044094171738
"""


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


def _integer(x, low, high, error):
    """x as an int from low to high, or the exception error(x) raised: the
    package's one integer rule.  x must be an integer that is not a bool:
    Python's, numpy's or a 0-d integer array, read by operator.index, so
    no numpy is loaded.  A numpy integer out of range reaches error as
    its int."""
    if type(x) is not int:
        if isinstance(x, bool) or getattr(x, "dtype", None) == bool:
            raise error(x)
        try:
            x = operator.index(x)
        except TypeError:
            raise error(x) from None
    if low <= x <= high:
        return x
    raise error(x)


def _value_error(message: str):
    """The error builder of ValueError(f"{message}, got {x!r}")."""
    return lambda x: ValueError(f"{message}, got {x!r}")


def _m_and_k(m, k) -> Tuple[int, int]:
    """(m, k) as ints, m from 1 to M_MAX and k from 0 to m.  An int k in
    range skips the rule, whose error builder for k would cost more than
    the check on every engine call."""
    m = _integer(m, 1, M_MAX, m_error)
    if type(k) is not int or not 0 <= k <= m:
        k = _integer(k, 0, m, _value_error(f"k must be an integer in [0, m={m}]"))
    return m, k


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
    m, k = _m_and_k(m, k)
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
    are returned as they are.  k = 1 and k = 2 take no pass: the argmax is
    the closed form optimal_p_k1, or the root of a cubic (_root_k2), and
    the maximum one sum of the terms there.  Where no model passes, a
    pass whose step is below _STEP_TOL and moves the log of the value by
    at most _FLAT_TOL to first order ends the search as it is: from
    k ~ 1e24, where psi' passes 1e12 and the bound asks for steps below
    1e-12, and where the floats near the root leave psi units from 0.
    Past the engine's range (the module docstring) it raises
    RuntimeError.
    """
    return _maximize(*_m_and_k(m, k))


def _maximize(m: int, k: int) -> Tuple[float, float]:
    """maximize_objective for an (m, k) already checked."""
    if k == m:
        return 1.0, 1.0
    if k == 0:
        return 1.0 / (m + 1), exact_pvalue_k0(m)
    if k <= 2:
        # the root in closed form at k = 1 and by Newton's method on a
        # cubic at k = 2: one sum of the terms at it, and no pass
        if k == 1:
            p = optimal_p_k1(m)
            q = 1.0 - p
        else:
            p, q = _root_k2(m)
        i0, total, _ = _mode_sums(m, k, p, q)
        return p, _value(m, p, q, i0, total)
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


def _c_star(k: int) -> float:
    """c_star(k) for 2 <= k < _FRACTION_K, from _C_STARS."""
    at = 19 * (k - 2) + 1
    return float(_C_STARS[at : at + 18])


def _root_k2(m: int) -> Tuple[float, float]:
    """The stationarity root (p, q) at k = 2, 2 < m.

    In x = r/m, r = q/p, the equation r R(r) = m - 2 is the cubic
    x + a (x^2 + x^3) = (m - 2)/m with a = 2m/(m - 1).  Its left side is
    convex and increasing, so Newton's method converges from any start;
    from x = 1/c_star(2), the root's limit, it stops on a step of at most
    2^-30 x, after which the error, about the square of that step, is
    below an ulp of x.  a is 2 (m/(m - 1)), as 2m overflows at M_MAX.
    """
    a = 2 * (m / (m - 1))
    target = (m - 2) / m
    x = 1.0 / _c_star(2)
    for _ in range(_MAX_NEWTON):
        step = (x + a * (x * x) * (1.0 + x) - target) / (1.0 + a * x * (2.0 + 3.0 * x))
        x -= step
        if abs(step) <= 2.0**-30 * x:
            break
    r = m * x
    return 1.0 / (1.0 + r), r / (1.0 + r)


def _start(m: int, k: int) -> Tuple[float, float]:
    """A starting (p, q) near the stationarity root, 2 < k < m.

    Below _FRACTION_K, where m >= 10 k or k <= 7, the Poisson root
    p = c_star(k)/m; otherwise the Normal approximation of the module
    docstring.  Each is capped at the rank-based rate (k+1)/(m+1).  q
    comes from m - c_star or m - k, which keeps its digits where p is
    near 1.
    """
    if k < _FRACTION_K and (k <= 7 or m >= 10 * k):
        c = _c_star(k)
        if c / m < (k + 1) / (m + 1):
            return c / m, (m - c) / m
        return (k + 1) / (m + 1), (m - k) / (m + 1)
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
    m, k = _m_and_k(m, k)
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
    m = _integer(m, 1, M_MAX, m_error)
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
    m = _integer(m, 2, M_MAX, lambda m: m_error(m, least=2))
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
    k = _integer(k, 0, math.inf, _value_error("k must be a nonnegative integer"))
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
