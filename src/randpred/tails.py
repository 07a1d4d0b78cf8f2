"""F(k; m, p) from the continued fraction of the binomial upper tail.

The p-value engine (pvalues) sums F term by term below k = _FRACTION_K,
which costs O(sqrt(k)) per pass of its root search.  From it on, each
pass comes here, and costs O(1) in k.  The module is loaded on the first
such pass, so `import randpred` does not compile it.

F = 1 - U with the upper tail U = I_p(k+1, m-k) = q (k+1) b(k+1; m, p) r,
r the continued fraction of the regularized incomplete beta function in
DiDonato and Morris's form (bfrac; ACM TOMS 18(3), 1992, Algorithm 708):
the even part of the fraction of Numerical Recipes, section 6.4.  Its
terms take 1 - p and lam = (k+1) q - (m-k) p as given, so none of them
cancels where p is near 1.  It converges fast where lam is a few
sqrt(k (m-k)/m) or more from 0: at most 54 steps at every iterate of the
root search on log grids of m up to the largest float, for k and m - k
up to about 1e32.  Near lam = 0, at the rank-based rate (k+1)/(m+1), it
needs ever more steps, about 600 at k = 1e6.  Where lam is -1 or less,
F comes from the fraction for F itself, F = I_q(m-k, k+1) =
(m-k) p b(k; m, p) r.
"""

import math

from .pvalues import _log_pmf

# Steps allowed per fraction: at most 54 at the iterates of the root
# search, up to about 1300 for objective at k <= 1e7 at any p.  A fraction
# ends once a step moves it by less than an ulp.
_MAX_STEPS = 2000
_TOL = 2.0**-52


def fraction_pass(m: int, k: int, p: float, q: float):
    """(log_w, i0, total) as pvalues._pass returns them, for 0 < k < m and
    0 < p < 1: log_w = log((k+1) b(k+1) / F), and F = total b(i0), or
    F = total where i0 is None.  Raises RuntimeError naming (m, k) where
    the fraction does not converge."""
    # lam from the smaller rate, which has its digits
    lam = (k + 1) - (m + 1) * p if p <= q else (m + 1) * q - (m - k)
    r = _bfrac(m, k, p, q, lam)
    if lam <= -1.0:
        # (k+1) b(k+1) = (m-k) (p/q) b(k)
        return -math.log(q * r), k, (m - k) * p * r
    log_b = math.log((m - k) * p / q) + _log_pmf(k, m, p, q)  # of (k+1) b(k+1)
    total = 1.0 - q * math.exp(log_b) * r
    return log_b - math.log(total), None, total


def _bfrac(m: int, k: int, p: float, q: float, lam: float) -> float:
    """r with I_x(a, b) = x^a y^b r / B(a, b): for lam above -1, a = k+1,
    b = m-k and x = p, else a = m-k, b = k+1, x = q and lam = a y - b x
    its negative, with y = 1 - x.

    The numerators and denominators are rescaled at every step.  For
    lam > -1 every term is positive up to step b, where the fraction
    ends, so bnp1 >= 1.  Where a and b both pass about 1e150 a term can
    overflow; the NaN that follows never converges, and neither does a
    convergent 0.  Raises RuntimeError naming (m, k) after _MAX_STEPS.
    """
    if lam > -1.0:
        a, b, x, y = k + 1.0, float(m - k), p, q
    else:
        a, b, x, y, lam = float(m - k), k + 1.0, q, p, -lam
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    an = 0.0
    bn = 1.0
    anp1 = 1.0
    bnp1 = c / c1
    r = c1 / c
    for n in range(1, _MAX_STEPS + 1):
        t = n / a
        w = n * x * (b - n)
        e = a / s
        # (p + c0) w x is about n (b x)^2 / a, in range where p + c0 is not
        alpha = p * e * e * ((p + c0) * (w * x))
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0 = r
        r = anp1 / bnp1
        if abs(r - r0) < _TOL * r or alpha == 0.0:
            return r
        an /= bnp1
        bn /= bnp1
        anp1 = r
        bnp1 = 1.0
    raise RuntimeError(f"the continued fraction for F did not converge at m = {m}, k = {k}")
