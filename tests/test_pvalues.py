import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randpred.pvalues as pvalues_module
from randpred import (
    AsymptoticConstant,
    SummarySequence,
    asymptotic_constant,
    binary_irp_pvalue,
    binary_irp_pvariable,
    dominating_pvalue,
    dominating_pvariable,
    exact_pvalue_k0,
    icp_pvalue,
    icp_pvariable,
    maximize_objective,
    objective,
    optimal_p_k1,
)
from randpred.pvalues import M_MAX

# ---------------------------------------------------------------------------
# Independent oracles.  Nothing below reuses the engine's maximizer.
# ---------------------------------------------------------------------------


def objective_direct(m: int, k: int, p: float) -> float:
    """Direct-power evaluation of the objective (safe for small m)."""
    return sum(
        math.comb(m, i) * p ** (i + 1) * (1.0 - p) ** (m - i) for i in range(k + 1)
    )


def grid_argmax(m: int, k: int, coarse_step: float = 1e-4, fine_step: float = 1e-8) -> float:
    """Two-stage dense-grid argmax of the objective.

    A global coarse scan brackets the maximum (the peak width is of order
    1/m, far above the coarse step for the m used here), then a fine scan
    at fine_step resolution pins the argmax.  No derivative-based
    refinement — this is the brute-force cross-check.
    """

    def values(ps: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_p = np.log(ps)
            log_q = np.log1p(-ps)
        total = np.zeros_like(ps)
        for i in range(k + 1):
            log_c = math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1)
            total += np.exp(log_c + (i + 1) * log_p + (m - i) * log_q)
        return total

    coarse = np.arange(coarse_step, 1.0, coarse_step)
    center = coarse[int(np.argmax(values(coarse)))]
    lo = max(center - 2 * coarse_step, fine_step)
    hi = min(center + 2 * coarse_step, 1.0)
    fine = np.arange(lo, hi, fine_step)
    return float(fine[int(np.argmax(values(fine)))])


def verification_scan(m: int, k: int, points: int = 40960):
    """Exhaustive scan of the objective over an even grid of points in [0, 1].

    A slow check on maximize_objective that shares none of its code:
    every term is exp(lgamma sum + power logs), vectorized over the grid.
    Returns (argmax, maximum) over the grid.
    """
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


GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def radical_c2() -> float:
    """Closed form for the k=2 stationarity root (cubic radicals)."""
    s = 3.0 * math.sqrt(114.0)
    return (1.0 + (37.0 - s) ** (1.0 / 3.0) + (37.0 + s) ** (1.0 / 3.0)) / 3.0


def radical_c3() -> float:
    """Closed form for the k=3 stationarity root (quartic radicals)."""
    u = (math.sqrt(778.0) - 7.0) ** (1.0 / 3.0)
    r = math.sqrt(4.0 * u - 36.0 / u + 9.0)
    return 0.25 + r / 4.0 + math.sqrt(-u + 9.0 / u + 4.5 + 61.0 / (2.0 * r)) / 2.0


# High-precision a_k values, frozen from an independent 50-digit
# computation of the Poisson stationarity root c and of
# a_k = exp(-c) sum_{i<=k} c^(i+1)/i!.
A_K_REFERENCE = {
    0: 0.367879441171442,
    1: 0.839962094657175,
    2: 1.37110160490031,
    3: 1.94238093805015,
    4: 2.54353435408736,
    5: 3.16818481568948,
    6: 3.81202123019644,
    7: 4.47195396210389,
}


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


class TestObjective:
    def test_zero_at_p_zero(self):
        for m, k in [(1, 0), (5, 2), (50, 10)]:
            assert objective(m, k, 0.0) == 0.0

    def test_reduces_to_p_when_k_equals_m(self):
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert objective(6, 6, p) == pytest.approx(p, rel=1e-12, abs=1e-15)

    def test_direct_substitution(self):
        assert objective(2, 0, 1.0 / 3.0) == pytest.approx(4.0 / 27.0, rel=1e-12)

    def test_one_at_p_one_only_when_degenerate(self):
        assert objective(4, 4, 1.0) == 1.0
        assert objective(4, 2, 1.0) == 0.0

    @settings(max_examples=200)
    @given(
        m=st.integers(1, 25),
        p=st.floats(0.0, 1.0, allow_nan=False),
        data=st.data(),
    )
    def test_matches_direct_powers(self, m, p, data):
        k = data.draw(st.integers(0, m))
        log_space = objective(m, k, p)
        direct = objective_direct(m, k, p)
        assert log_space == pytest.approx(direct, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("m, k", [(2 * 10**8, 10**8), (10**9, 10**8)])
    def test_at_the_rank_based_rate_past_the_fraction(self, m, k):
        # the continued fraction runs past its step cap here, and the terms
        # are summed; the rounding of q/p compounds over the ~1e4 terms that
        # count, to 3.4e-13 at (2e8, 1e8)
        p = (k + 1) / (m + 1)
        start = time.perf_counter()
        value = objective(m, k, p)
        assert time.perf_counter() - start < 1.0
        reference = mpmath_tail_value(m, k, p)
        assert value == pytest.approx(reference, rel=2e-12)

    def test_past_the_sum_cap_the_fraction_error_stands(self):
        m, k = 10**12, 10**11
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"m = {m}, k = {k}"):
            objective(m, k, (k + 1) / (m + 1))
        assert time.perf_counter() - start < 0.25

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            objective(0, 0, 0.5)
        with pytest.raises(ValueError):
            objective(3, 4, 0.5)
        with pytest.raises(ValueError):
            objective(3, 1, 1.5)


# ---------------------------------------------------------------------------
# binary_irp_pvalue / maximize_objective
# ---------------------------------------------------------------------------


class TestBinaryIrpPvalue:
    def test_m1_k0(self):
        assert binary_irp_pvalue(1, 0) == pytest.approx(0.25, rel=1e-10)

    def test_degenerate_k_equals_m(self):
        for m in (1, 3, 17, 100):
            assert binary_irp_pvalue(m, m) == 1.0

    def test_k1_closed_form_argmax_at_m100(self):
        p_star = (98.0 + math.sqrt(49600.0)) / 19998.0
        assert optimal_p_k1(100) == pytest.approx(p_star, rel=1e-14)
        assert binary_irp_pvalue(100, 1) == pytest.approx(
            objective(100, 1, p_star), rel=1e-12
        )
        assert grid_argmax(100, 1) == pytest.approx(p_star, abs=1e-6)

    def test_agrees_with_exact_k0_sampled(self):
        # the engine's k = 0 closed form against the summed objective at 1/(m+1)
        for m in (1, 2, 7, 33, 250, 1000, 10**6):
            engine = binary_irp_pvalue(m, 0)
            assert engine == pytest.approx(objective(m, 0, 1.0 / (m + 1)), rel=1e-13)

    def test_agrees_with_verification_scan(self):
        for m in (3, 7, 12):
            for k in range(m):
                engine = binary_irp_pvalue(m, k)
                _, scanned = verification_scan(m, k)
                assert engine >= scanned - 1e-12
                assert engine - scanned <= 1e-7

    def test_argmax_reported_consistently(self):
        p_star, value = maximize_objective(9, 2)
        assert objective(9, 2, p_star) == pytest.approx(value, rel=1e-12)
        assert value == binary_irp_pvalue(9, 2)

    @settings(max_examples=60)
    @given(m=st.integers(1, 30), data=st.data())
    def test_monotone_in_k(self, m, data):
        k = data.draw(st.integers(0, m - 1)) if m > 1 else 0
        if m == 1:
            assert binary_irp_pvalue(1, 0) <= binary_irp_pvalue(1, 1)
        else:
            assert binary_irp_pvalue(m, k) <= binary_irp_pvalue(m, k + 1) + 1e-15

    @settings(max_examples=60)
    @given(m=st.integers(1, 40), data=st.data())
    def test_range(self, m, data):
        k = data.draw(st.integers(0, m))
        v = binary_irp_pvalue(m, k)
        assert 0.0 < v <= 1.0

    def test_large_m_sharp_peak(self):
        # at k = 1 the peak is about 1/m wide and sits near p = 2.4/m
        m = 10**6
        p_star, value = maximize_objective(m, 1)
        assert p_star == pytest.approx(optimal_p_k1(m), rel=1e-9)
        assert value == pytest.approx(objective(m, 1, optimal_p_k1(m)), rel=1e-13)


# ---------------------------------------------------------------------------
# the stationarity root: accuracy, unimodality and extreme cases
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def mpmath_pvalue(m: int, k: int) -> float:
    """max_p p F(k; m, p) from a bisection on the stationarity equation.

    (1-p) F(k; m, p) - p (m-k) b(k; m, p) has the sign of the objective's
    derivative.  Its sign change is bracketed, then bisected in log p to a
    relative width of 1e-12, where the flat maximum is exact far beyond
    double precision.  F is summed term by term from i = 0.  The working
    precision is 50 digits beyond those of m, so 1 - p keeps 50 digits at
    p ~ 1/m.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50 + len(str(m))):

        def cdf_and_pmf(p):
            ratio = p / (1 - p)
            term = (1 - p) ** m
            total = term
            for i in range(k):
                term = term * ratio * (m - i) / (i + 1)
                total += term
            return total, term

        def slope(p):
            cdf, pmf = cdf_and_pmf(p)
            return (1 - p) * cdf - p * (m - k) * pmf

        lo = mpmath.mpf(k + 1) / (m + 1)
        while slope(lo) <= 0:
            lo /= 2
        hi = lo
        while slope(hi) >= 0:
            hi = min(2 * hi, (1 + hi) / 2)
        log_lo, log_hi = mpmath.log(lo), mpmath.log(hi)
        while log_hi - log_lo > 1e-12:
            mid = (log_lo + log_hi) / 2
            if slope(mpmath.exp(mid)) > 0:
                log_lo = mid
            else:
                log_hi = mid
        p = mpmath.exp((log_lo + log_hi) / 2)
        return float(p * cdf_and_pmf(p)[0])


def mpmath_tail_value(m: int, k: int, p, stationarity: bool = False):
    """p (1 - U) at p to 60 digits, U = I_p(k+1, m-k) the upper tail.

    U = C(m, k+1) p^(k+1) (1-p)^(m-k) cf, with the binomial exact and cf
    the continued fraction of Numerical Recipes, section 6.4, evaluated
    from the bottom up with 2^j terms until two evaluations agree to 50
    digits: a different evaluation from the engine's forward one, in
    ample precision.  Returned as a float, or with stationarity as the
    mpf (1 - U) - (k+1) b(k+1; m, p), which has the sign of the
    derivative of the objective.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(p)
        a, b = mpmath.mpf(k + 1), mpmath.mpf(m - k)

        def fraction(terms):
            t = mpmath.mpf(1)
            for n in range(terms, 0, -1):
                j = n // 2
                if n % 2:
                    d = -(a + j) * (a + b + j) * x / ((a + 2 * j) * (a + 2 * j + 1))
                else:
                    d = j * (b - j) * x / ((a + 2 * j - 1) * (a + 2 * j))
                t = 1 + d / t
            return 1 / t

        terms, cf = 64, fraction(64)
        while True:
            terms *= 2
            previous, cf = cf, fraction(terms)
            if abs(cf - previous) <= abs(cf) * mpmath.mpf(10) ** -50:
                break
        pmf = mpmath.binomial(m, k + 1) * x ** (k + 1) * (1 - x) ** (m - k - 1)
        if stationarity:
            return 1 - (1 - x) * pmf * cf - (k + 1) * pmf
        return float(x * (1 - (1 - x) * pmf * cf))


def mpmath_root_near(m: int, k: int, p_star: float):
    """The maximizer of p F(k; m, p) to 60 digits, as an mpf, from a
    bisection on the sign of mpmath_tail_value's stationarity residual,
    to a relative width of 1e-40, in a bracket around p_star of half a
    standard deviation of the binomial each way, below the rank-based
    rate."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        half_sd = mpmath.mpf(1) / (2 * mpmath.sqrt(k))
        lo = mpmath.mpf(p_star) * (1 - half_sd)
        hi = mpmath.mpf(p_star) * (1 + half_sd)
        assert mpmath_tail_value(m, k, lo, True) > 0 > mpmath_tail_value(m, k, hi, True)
        while hi - lo > hi * mpmath.mpf(10) ** -40:
            mid = (lo + hi) / 2
            if mpmath_tail_value(m, k, mid, True) > 0:
                lo = mid
            else:
                hi = mid
        return lo


def mpmath_max_near(m: int, k: int, p_star: float) -> float:
    """The maximum of p F(k; m, p) to 60 digits, at mpmath_root_near."""
    return mpmath_tail_value(m, k, mpmath_root_near(m, k, p_star))


def mpmath_polynomial_max(m: int, k: int):
    """The maximizer of p F(k; m, p) and the maximum, to 60 digits, as
    mpfs, at any m.

    With r = q/p, q F = p (m-k) b(k) reads
    r sum_{i<=k} C(m, i) r^(k-i) = (m-k) C(m, k), a polynomial with
    exact integer coefficients; in x = r/m each is scaled by a power of m
    to O(1).  Its left side increases from 0, so x = 1, at r = m, lies
    above the root and Newton's method falls to it.  The maximum is
    p^(k+1) q^(m-k) sum_{i<=k} C(m, i) r^(k-i), with q^(m-k) from log1p,
    which keeps its digits at p ~ 1/m for every m.  Meant for small k,
    where the working precision need not grow with m as mpmath_pvalue's
    does.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        scale = mpmath.mpf(m)
        coefficients = [mpmath.mpf(math.comb(m, i)) / scale**i for i in range(k + 1)]
        target = mpmath.mpf((m - k) * math.comb(m, k)) / scale ** (k + 1)

        def residual(x):
            return x * mpmath.polyval(coefficients, x) - target

        x = mpmath.findroot(residual, mpmath.mpf(1), solver="newton")
        assert x > 0
        r = scale * x
        p = 1 / (1 + r)
        value = (
            p ** (k + 1)
            * mpmath.exp((m - k) * mpmath.log1p(-p))
            * mpmath.fsum(mpmath.mpf(math.comb(m, i)) * r ** (k - i) for i in range(k + 1))
        )
        return p, value


ACCURACY_GRID = [
    (m, k)
    for m in (10, 10**2, 10**3, 10**4, 10**5, 10**6, 10**7)
    for k in (1, 2, 3, 5, 30, 300, 1000)
    if k < m
] + [(1000, 341), (1000, 558), (1000, 571)]
# without the d^4 bound in the search's exit, the value at (1000, 558) is
# 3.8e-14 off

NEIGHBOUR_CASES = [
    (1, 0), (2, 1), (9, 2), (10, 0), (100, 1), (1000, 30),
    (10**5, 3), (10**6, 10**4), (10**6, 999999), (10**7, 1000),
]


PASS_CASES = sorted(
    {(m, k) for m, k in ACCURACY_GRID + NEIGHBOUR_CASES if 0 < k < m}
    | {(m, k) for m in (2, 3, 5, 10, 50, 1000) for k in range(1, m)}
    | {(10**6, 5 * 10**5), (10**6, 10**5), (10**7, 2)}
)


def assert_log_concave(m: int, k: int, ps) -> None:
    """Second differences of log objective on an even grid are <= 0.

    Points outside (0, 1) or where the objective underflows are dropped;
    both sets are contiguous, so the rest stays evenly spaced.
    """
    values = [objective(m, k, p) for p in ps if 0.0 < p < 1.0]
    logs = [math.log(v) for v in values if v > 1e-290]
    for left, mid, right in zip(logs, logs[1:], logs[2:]):
        assert left - 2.0 * mid + right <= 1e-12 * (1.0 + abs(mid)), (m, k)


class TestStationarityRoot:
    def test_matches_50_digit_reference(self):
        pytest.importorskip("mpmath")
        bad = []
        for m, k in ACCURACY_GRID:
            reference = mpmath_pvalue(m, k)
            error = abs(binary_irp_pvalue(m, k) - reference) / reference
            if not error <= 4e-15:  # a NaN fails too
                bad.append((m, k, error))
        assert not bad

    def test_passes_over_the_terms(self, monkeypatch):
        # every step of the root search is one _pass, a sum below
        # _FRACTION_K and a continued fraction from it on.  Newton's method
        # from the rank-based rate takes 7420 passes on these cases, up to
        # 13 on one; Halley steps that confirm their last step with one
        # more pass take 3843, up to 5; ending on the last pass's Taylor
        # model takes 2874, up to 4; solving k <= 2 without a pass and
        # starting 2 < k < _FRACTION_K at the Poisson root takes 2806
        one_pass = pvalues_module._pass
        calls = []

        def counted(*args):
            calls.append(None)
            return one_pass(*args)

        monkeypatch.setattr(pvalues_module, "_pass", counted)
        passes = {}
        for m, k in PASS_CASES:
            calls.clear()
            maximize_objective(m, k)
            passes[m, k] = len(calls)
        assert len(passes) == 1102
        assert {n for (m, k), n in passes.items() if k <= 2} == {0}
        assert max(passes.values()) <= 4
        assert sum(passes.values()) <= 2806

    def test_k5_takes_at_most_two_passes(self, monkeypatch):
        # from the Poisson root c_star(5) = 4.35; the Normal start at
        # m p = k + 1/2, where z = 0 while the sd is below sqrt(2 pi),
        # took a third pass on 288 of these 300 calls
        one_pass = pvalues_module._pass
        calls = []

        def counted(*args):
            calls.append(None)
            return one_pass(*args)

        monkeypatch.setattr(pvalues_module, "_pass", counted)
        rng = np.random.default_rng(26)
        most = 0
        for m in np.rint(10.0 ** rng.uniform(1.0, 6.0, 300)).astype(int):
            calls.clear()
            maximize_objective(int(m), 5)
            most = max(most, len(calls))
        assert most <= 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_up_to_2_matches_references_at_the_extremes(self, k):
        # the k <= 2 roots without a search, on a log grid of m up to the
        # largest float, where p is subnormal and 2 m overflows a float.
        # mpmath_pvalue, whose precision grows with the digits of m, checks
        # the value up to 1e60 and at the largest float
        pytest.importorskip("mpmath")
        ms = sorted(
            {k + 1, k + 2, M_MAX}
            | {int(10.0 ** (j / 8)) for j in range(8, 2401, 23)}
        )
        bad = []
        for m in ms:
            p_star, value = maximize_objective(m, k)
            root, maximum = mpmath_polynomial_max(m, k)
            references = [maximum]
            if m <= 10**60 or m == M_MAX:
                references.append(mpmath_pvalue(m, k))
            # written to fail on a NaN
            if not (
                abs(p_star - root) <= 4e-15 * root
                and all(abs(value - ref) <= 4e-15 * ref for ref in references)
            ):
                bad.append((m, p_star, value))
        assert not bad

    def test_both_sides_of_the_crossover_match_50_digits(self):
        pytest.importorskip("mpmath")
        k_c = pvalues_module._FRACTION_K
        for m in (10**3, 10**6):
            for k in (k_c - 1, k_c):
                reference = mpmath_pvalue(m, k)
                assert abs(binary_irp_pvalue(m, k) - reference) <= 4e-15 * reference, (m, k)

    @pytest.mark.parametrize("force_fraction", [False, True], ids=["engine", "fraction"])
    @pytest.mark.parametrize("m, k", [(100, 70), (1000, 500), (1000, 501), (5000, 4000)])
    def test_k_at_least_half_of_m(self, monkeypatch, force_fraction, m, k):
        # k >= m/2 puts the root near or above p = 1/2, where lam comes from
        # q once p passes it; with force_fraction every k takes the fraction
        pytest.importorskip("mpmath")
        if force_fraction:
            monkeypatch.setattr(pvalues_module, "_FRACTION_K", 1)
        _, value = maximize_objective(m, k)
        reference = mpmath_pvalue(m, k)
        assert abs(value - reference) <= 4e-15 * reference

    @pytest.mark.parametrize(
        "m, k",
        [
            (10**7, 10**5),
            (10**9, 10**8),
            (10**11, 10**10),
            (10**17, 10**16),
            (10**30, 10**29),
            (10**20, 10**20 - 10**4),
        ],
        ids=["1e7-1e5", "1e9-1e8", "1e11-1e10", "1e17-1e16", "1e30-1e29", "1e20-near-m"],
    )
    def test_large_k_matches_60_digits_at_the_argmax(self, m, k):
        # summing the terms is out of reach here, so the reference is the
        # 60-digit p (1 - U) at the engine's argmax, with an exact binomial
        # prefactor; the engine's cost does not grow with k
        start = time.perf_counter()
        p_star, value = maximize_objective(m, k)
        elapsed = time.perf_counter() - start
        reference = mpmath_tail_value(m, k, p_star)
        assert abs(value - reference) <= 4e-15 * reference
        assert value <= p_star
        assert elapsed < 0.05

    @pytest.mark.parametrize("m, k", [(2 * 10**23, 10**23), (10**30, 10**29)])
    def test_large_k_reaches_the_maximum(self, m, k):
        # psi' grows like sqrt(k), so a step of 1e-12 in s can still leave
        # the value 1e-13 below the maximum at k = 1e23: the search ends only
        # where its Taylor model drops at most _MODEL_TOL of the maximum, a
        # bound that grows with the derivatives of psi
        p_star, value = maximize_objective(m, k)
        reference = mpmath_max_near(m, k, p_star)
        assert abs(value - reference) <= 4e-15 * reference

    @pytest.mark.parametrize(
        "m, k",
        [(30, 6), (100, 3), (100, 29), (1000, 5), (1000, 150), (10**4, 29),
         (1000, 341), (1000, 558), (1000, 571)],
    )
    def test_argmax_matches_the_60_digit_root(self, m, k):
        # the argmax solves the last pass's cubic model of psi; its Halley
        # step alone is 2.7e-15 off the root at (1000, 341)
        p_star, _ = maximize_objective(m, k)
        root = mpmath_root_near(m, k, p_star)
        assert abs(p_star - root) <= 1e-15 * root

    @pytest.mark.parametrize("m, k", [(400, 200), (1000, 500), (5000, 4000), (1000, 999)])
    def test_objective_above_the_rank_based_rate(self, m, k):
        # above (k+2)/(m+1) the fraction for U turns slow, and F comes from
        # the one for F itself
        mpmath = pytest.importorskip("mpmath")
        rank = (k + 1) / (m + 1)
        for p in (rank * 0.98, rank * 1.002, rank * 1.02, rank * 1.2):
            p = min(p, 0.99999)
            with mpmath.workdps(50):
                mp = mpmath.mpf(p)
                term, total = (1 - mp) ** m, 0
                for i in range(k + 1):
                    total += term
                    term *= (m - i) * mp / ((i + 1) * (1 - mp))
                reference = mp * total
            assert objective(m, k, p) == pytest.approx(float(reference), rel=1e-12), p

    @pytest.mark.parametrize(
        "m, k", [(10**40, 5 * 10**39), (10**60, 10**59), (10**300, 10**299)]
    )
    def test_past_the_step_cap_raises_quickly(self, m, k):
        # the maximizer is within an ulp or so of where the fraction needs
        # ever more steps; the step cap ends the call instead of a hang
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"m = {m}, k = {k}"):
            maximize_objective(m, k)
        assert time.perf_counter() - start < 0.25

    def test_past_1e32_the_rounding_decides_between_return_and_raise(self):
        # two cases of the form of the module docstring's range grid, at one m: k
        # and m - k are past 1e36.  k = 1e37 returns k/m, the maximum to double
        # precision, and k = 1e36 raises, each within milliseconds
        m = 2511886431509571923140313473280443940864  # int(10.0 ** 39.4)
        k = 10**37
        start = time.perf_counter()
        p_star, value = maximize_objective(m, k)
        assert abs(value - k / m) <= 7.3e-16 * (k / m)
        assert value <= p_star
        with pytest.raises(RuntimeError, match=f"m = {m}, k = {10**36}"):
            maximize_objective(m, 10**36)
        assert time.perf_counter() - start < 0.25

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5000), data=st.data())
    def test_log_objective_is_concave(self, m, data):
        k = data.draw(st.integers(0, m - 1)) if m > 1 else 0
        assert_log_concave(m, k, [j / 200 for j in range(1, 200)])
        p_star, _ = maximize_objective(m, k)
        width = 0.9 / math.sqrt(k + 1)
        assert_log_concave(m, k, [p_star * (1.0 + width * t / 20) for t in range(-20, 21)])

    def test_argmax_beats_its_neighbours(self):
        for m, k in NEIGHBOUR_CASES:
            p_star, value = maximize_objective(m, k)
            for p in (p_star * (1.0 - 1e-6), p_star * (1.0 + 1e-6)):
                if p < 1.0:
                    assert objective(m, k, p) <= value, (m, k, p)

    def test_k_one_below_m_closed_form(self):
        # F(m-1; m, p) = 1 - p^m, so the maximizer solves p^m = 1/(m+1) and
        # the maximum is m (m+1)^(-1-1/m)
        for m in (2, 10, 1000, 10**6):
            p_closed = math.exp(-math.log1p(m) / m)
            p_star, value = maximize_objective(m, m - 1)
            assert value == pytest.approx(m / (m + 1) * p_closed, rel=1e-14)
            assert p_star == pytest.approx(p_closed, rel=1e-12)

    def test_half_ones_at_large_m(self):
        start = time.perf_counter()
        p_star, value = maximize_objective(10**6, 500000)
        elapsed = time.perf_counter() - start
        assert 0.49 < value < p_star < 0.5
        assert objective(10**6, 500000, p_star) == pytest.approx(value, rel=1e-12)
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "m, k",
        [
            (2**80 + 12345, 2),
            (10**155, 1),
            (10**300, 1),
            (2**600 + 3 * 2**547, 1),
            (2**600 + 3 * 2**547, 2),
            (10**308, 1),
            (10**308, 2),
            (M_MAX, 1),
        ],
        ids=["2^80+12345-2", "1e155-1", "1e300-1", "2^600+3*2^547-1", "2^600+3*2^547-2",
             "1e308-1", "1e308-2", "largest-float-1"],
    )
    def test_m_past_double_precision(self, m, k):
        # past 2^53 m - i and m (1 - p) round apart (by an ulp of m at
        # 2^600 + 3*2^547), past ~6e153 5 m^2 overflows in optimal_p_k1, and
        # past ~9e307 so does m - i + m (1 - p); the p-value keeps its digits
        reference = mpmath_pvalue(m, k)
        assert abs(binary_irp_pvalue(m, k) - reference) <= 4e-15 * reference

    def test_verification_scan_points(self):
        p_coarse, coarse = verification_scan(5, 1, points=101)
        assert p_coarse == pytest.approx(round(p_coarse, 2), abs=1e-12)
        assert coarse <= binary_irp_pvalue(5, 1)
        with pytest.raises(ValueError):
            verification_scan(5, 1, points=1)


# ---------------------------------------------------------------------------
# exact_pvalue_k0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda m: binary_irp_pvalue(m, 0),
        lambda m: binary_irp_pvalue(m, 1),
        lambda m: maximize_objective(m, 2),
        lambda m: objective(m, 2, 0.5),
        exact_pvalue_k0,
        optimal_p_k1,
    ],
    ids=["pvalue-k0", "pvalue-k1", "maximize", "objective", "k0", "k1"],
)
def test_m_past_the_float_range_is_rejected(call):
    # m is converted to a float, whose largest value M_MAX is about 1.8e308
    with pytest.raises(ValueError, match="largest float"):
        call(M_MAX + 1)


M_MESSAGE = "m must be an integer from 1 to the largest float, 1.79769e+308; got "


@pytest.mark.parametrize("call", [binary_irp_pvalue, maximize_objective])
@pytest.mark.parametrize(
    "m, k, message",
    [
        (0, 0, M_MESSAGE + "0"),
        (True, 0, M_MESSAGE + "True"),
        (2.0, 1, M_MESSAGE + "2.0"),
        (M_MAX + 1, 1, M_MESSAGE + str(M_MAX + 1)),
        (5, -1, "k must be an integer in [0, m=5], got -1"),
        (5, 6, "k must be an integer in [0, m=5], got 6"),
        (5, 1.0, "k must be an integer in [0, m=5], got 1.0"),
        (5, False, "k must be an integer in [0, m=5], got False"),
        # numpy integers are converted first, numpy bools and floats are not
        (np.int64(0), 0, M_MESSAGE + "0"),
        (np.True_, 0, M_MESSAGE + repr(np.True_)),
        (np.float64(2.0), 1, M_MESSAGE + repr(np.float64(2.0))),
        (np.int32(5), np.int64(6), "k must be an integer in [0, m=5], got 6"),
        (5, np.False_, "k must be an integer in [0, m=5], got " + repr(np.False_)),
    ],
    ids=["m0", "m-bool", "m-float", "m-past-float", "k-negative", "k-above-m",
         "k-float", "k-bool", "m0-numpy", "m-numpy-bool", "m-numpy-float",
         "k-above-m-numpy", "k-numpy-bool"],
)
def test_invalid_m_and_k_messages(call, m, k, message):
    with pytest.raises(ValueError) as info:
        call(m, k)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "integer", [np.int64, np.int32, np.uint16, np.array], ids=lambda t: t.__name__
)
def test_numpy_integers_are_accepted(monkeypatch, integer):
    # the engine converts them, 0-d integer arrays included, with
    # operator.index, so it runs, and its cache is keyed, on Python ints
    m, k = integer(30), integer(2)
    assert binary_irp_pvalue(m, k) == binary_irp_pvalue(30, 2)
    assert binary_irp_pvalue(m, m) == 1.0
    assert maximize_objective(m, k) == maximize_objective(30, 2)
    assert objective(m, k, 0.1) == objective(30, 2, 0.1)
    assert exact_pvalue_k0(m) == exact_pvalue_k0(30)
    assert optimal_p_k1(m) == optimal_p_k1(30)
    assert asymptotic_constant(k) == asymptotic_constant(2)
    engine = pvalues_module._maximize
    types = []

    def recorded(m, k):
        types.append((type(m), type(k)))
        return engine(m, k)

    monkeypatch.setattr(pvalues_module, "_maximize", recorded)
    pvalues_module._pvalue_cached.cache_clear()
    binary_irp_pvalue(m, k)
    maximize_objective(m, k)
    assert types == [(int, int)] * 2


def test_a_cold_call_checks_m_and_k_once(monkeypatch):
    # binary_irp_pvalue checks (m, k) before its cache; the engine behind
    # the cache does not check them again
    checks = []
    check = pvalues_module._m_and_k

    def counted(m, k):
        checks.append((m, k))
        return check(m, k)

    monkeypatch.setattr(pvalues_module, "_m_and_k", counted)
    pvalues_module._pvalue_cached.cache_clear()
    for m, k in [(1000, 0), (1000, 1), (1000, 7), (10**6, 500)]:
        binary_irp_pvalue(m, k)
    assert len(checks) == 4


@pytest.mark.parametrize(
    "m, k, bits",
    [
        (1, 0, "0x1.0000000000000p-2"),
        (2, 1, "0x1.8a2345cc04427p-2"),
        (7, 0, "0x1.921ee00000000p-5"),
        (7, 1, "0x1.d8bde031fc581p-4"),
        (100, 1, "0x1.12658aef1617cp-7"),
        (12345, 0, "0x1.f3f04caa35cc1p-16"),
        (10**6, 1, "0x1.c2f379bf13d04p-21"),
        (10**20, 1, "0x1.3d54262b4e3ebp-67"),
        (10**300, 0, "0x1.f88edd4ae42fdp-999"),
        (10**300, 1, "0x1.20022e238d208p-997"),
    ],
    ids=["1-0", "2-1", "7-0", "7-1", "100-1", "12345-0", "1e6-1", "1e20-1", "1e300-0", "1e300-1"],
)
def test_k0_and_k1_bits_are_pinned(m, k, bits):
    # k = 0 is a closed form, and at k = 1 the search ends on its first pass,
    # where the step is below 1e-15 and the model's correction rounds away
    assert binary_irp_pvalue(m, k).hex() == bits


class TestExactK0:
    def test_small_m_closed_forms(self):
        assert exact_pvalue_k0(1) == pytest.approx(0.25, rel=1e-14)
        assert exact_pvalue_k0(2) == pytest.approx(4.0 / 27.0, rel=1e-14)

    def test_matches_exact_rational(self):
        for m in range(1, 51):
            exact = Fraction(m**m, (m + 1) ** (m + 1))
            assert exact_pvalue_k0(m) == pytest.approx(float(exact), rel=1e-13)

    def test_upper_bound_and_asymptotic_sharpness(self):
        for m in (1, 10, 1000, 10**6):
            v = exact_pvalue_k0(m)
            assert v <= math.exp(-1.0) / m
        v = exact_pvalue_k0(10**6)
        assert v >= 0.9 * math.exp(-1.0) / 10**6

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            exact_pvalue_k0(0)
        with pytest.raises(ValueError):
            exact_pvalue_k0(2.0)

    @pytest.mark.parametrize(
        "m", [10**17, 10**100, 10**300, M_MAX], ids=["1e17", "1e100", "1e300", "M_MAX"]
    )
    def test_large_m_matches_50_digits(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50 + len(str(m))):
            reference = mpmath.mpf(m) ** m / mpmath.mpf(m + 1) ** (m + 1)
        # at M_MAX the value is subnormal, good only to half its spacing
        # 5e-324, which is 1.2e-15 of it there
        assert abs(exact_pvalue_k0(m) - reference) <= 1e-15 * reference + math.ulp(0.0)


# ---------------------------------------------------------------------------
# optimal_p_k1
# ---------------------------------------------------------------------------


class TestOptimalPK1:
    def test_m2_closed_form(self):
        assert optimal_p_k1(2) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_golden_ratio_scaling(self):
        assert optimal_p_k1(1000) == pytest.approx(GOLDEN_RATIO / 1000.0, rel=5e-3)

    def test_stationarity_by_finite_differences(self):
        h = 1e-8
        for m in (2, 10, 100, 1000):
            p_star = optimal_p_k1(m)
            derivative = (objective(m, 1, p_star + h) - objective(m, 1, p_star - h)) / (
                2.0 * h
            )
            assert abs(derivative) < 1e-7

    def test_matches_grid_oracle(self):
        assert optimal_p_k1(10) == pytest.approx(grid_argmax(10, 1), abs=1e-6)

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            optimal_p_k1(1)

    def test_closed_form_bits_below_the_square_overflow(self):
        # up to where 5 m^2 overflows the value is the quadratic's root as written
        for m in (3, 10**8 + 7, 10**17 + 1, 10**100, 5 * 10**153):
            closed = (m - 2 + math.sqrt(5.0 * m * m - 4.0 * m)) / (2.0 * (m * m - 1.0))
            assert optimal_p_k1(m) == closed

    @pytest.mark.parametrize("m", [6 * 10**153, 10**155, 10**300], ids=["6e153", "1e155", "1e300"])
    def test_past_the_square_overflow(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50 + len(str(m))):
            root = (m - 2 + mpmath.sqrt(5 * mpmath.mpf(m) ** 2 - 4 * m)) / (
                2 * (mpmath.mpf(m) ** 2 - 1)
            )
            assert abs(optimal_p_k1(m) - root) <= 4e-16 * root


# ---------------------------------------------------------------------------
# asymptotic_constant
# ---------------------------------------------------------------------------


class TestAsymptoticConstant:
    def test_k0_exact(self):
        c = asymptotic_constant(0)
        assert c.c_star == pytest.approx(1.0, abs=1e-12)
        assert c.a_k == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_k1_is_golden_ratio(self):
        assert asymptotic_constant(1).c_star == pytest.approx(GOLDEN_RATIO, abs=1e-10)

    def test_k2_matches_cubic_radicals(self):
        assert asymptotic_constant(2).c_star == pytest.approx(radical_c2(), abs=1e-8)

    def test_k3_matches_quartic_radicals(self):
        assert asymptotic_constant(3).c_star == pytest.approx(radical_c3(), abs=1e-8)

    def test_a_k_reference_values(self):
        for k, expected in A_K_REFERENCE.items():
            assert asymptotic_constant(k).a_k == pytest.approx(expected, rel=1e-10)

    def test_stationarity_residual(self):
        for k in range(13):
            c = asymptotic_constant(k).c_star
            lhs = math.fsum(c**i / math.factorial(i) for i in range(k + 1))
            rhs = c ** (k + 1) / math.factorial(k)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_numerator_is_stationary_at_c_star(self):
        def numerator(k, c):
            return math.exp(-c) * math.fsum(
                c ** (i + 1) / math.factorial(i) for i in range(k + 1)
            )

        h = 1e-6
        for k in range(8):
            c = asymptotic_constant(k).c_star
            derivative = (numerator(k, c + h) - numerator(k, c - h)) / (2.0 * h)
            assert abs(derivative) < 1e-8

    def test_superiority_below_rank_numerator(self):
        for k in range(8):
            assert asymptotic_constant(k).a_k < k + 1

    def test_solver_reaches_k64(self):
        c = asymptotic_constant(64)
        assert isinstance(c, AsymptoticConstant)
        assert 0.0 < c.c_star < 67.0
        assert math.isfinite(c.a_k) and 0.0 < c.a_k < 65.0
        # normalized residual of the stationarity equation at the root
        total = math.fsum(
            math.factorial(64) / (math.factorial(i) * c.c_star ** (65 - i))
            for i in range(65)
        )
        assert abs(total - 1.0) <= 1e-11

    def test_a_k_finite_past_the_float_range(self):
        # from k = 762 the Poisson sum of c^(i+1)/i! would overflow a
        # double; the engine forms no such power, so a_k stays finite
        previous = 0.0
        for k in (761, 762, 800, 914, 1200, 1298, 1299, 1300, 5000):
            a_k = asymptotic_constant(k).a_k
            assert math.isfinite(a_k) and previous < a_k < k + 1, k
            previous = a_k

    def test_a_k_at_large_k_matches_40_digits(self):
        mpmath = pytest.importorskip("mpmath")
        for k in (761, 762, 800, 1200, 2000):
            constant = asymptotic_constant(k)
            with mpmath.workdps(40):
                c = mpmath.mpf(constant.c_star)
                exact = mpmath.exp(-c) * mpmath.fsum(
                    c ** (i + 1) / mpmath.factorial(i) for i in range(k + 1)
                )
            assert constant.a_k == pytest.approx(float(exact), rel=4e-15), k

    def test_a_k_matches_mpmath(self):
        # both come from the engine at m = max(k, 1) * 2**60; the
        # reference solves Q(k+1, c) = exp(-c) c^(k+1)/k!, with Q the
        # regularized upper incomplete gamma function, and a_k = c Q(k+1, c)
        mpmath = pytest.importorskip("mpmath")
        for k in (1, 2, 5, 7, 30, 64, 65, 200, 1000):
            constant = asymptotic_constant(k)
            with mpmath.workdps(50):
                def residual(c):
                    q = mpmath.gammainc(k + 1, c, regularized=True)
                    return q - mpmath.exp(-c) * c ** (k + 1) / mpmath.factorial(k)

                root = mpmath.findroot(residual, (1, k + 3), solver="illinois")
                a_k = root * mpmath.gammainc(k + 1, root, regularized=True)
            assert constant.c_star == pytest.approx(float(root), rel=2e-15), k
            assert constant.a_k == pytest.approx(float(a_k), rel=2e-15), k

    def test_c_star_table_matches_40_digits(self):
        # the search's starts (pvalues._start): each entry is the float
        # nearest the root of sum_{i<=k} c^i/i! = c^(k+1)/k!, here the zero
        # of log sum_{i<=k} k!/(i! c^(k+1-i)), which falls through it, in a
        # bracket of two sds of Poisson(k + 1) below k + 1
        mpmath = pytest.importorskip("mpmath")
        k_c = pvalues_module._FRACTION_K
        assert len(pvalues_module._C_STARS.split()) == k_c - 2
        table = [pvalues_module._c_star(k) for k in range(2, k_c)]
        assert table[0] == pytest.approx(radical_c2(), abs=1e-8)
        assert table[1] == pytest.approx(radical_c3(), abs=1e-8)
        for k, entry in enumerate(table, start=2):
            with mpmath.workdps(40):
                weights = [mpmath.factorial(k) / mpmath.factorial(i) for i in range(k + 1)]

                def residual(c):
                    return mpmath.log(
                        mpmath.fsum(w / c ** (k + 1 - i) for i, w in enumerate(weights))
                    )

                bracket = (max(1, k + 1 - 2 * math.sqrt(k + 1)), k + 1)
                root = mpmath.findroot(residual, bracket, solver="anderson")
            assert entry == float(root), k

    def test_a_k_at_k_1e16_is_fast(self):
        start = time.perf_counter()
        constant = asymptotic_constant(10**16)
        assert time.perf_counter() - start < 1.0
        # the finite engine at a larger m has the same Poisson limit
        limit = 10**40 * binary_irp_pvalue(10**40, 10**16)
        assert constant.a_k == pytest.approx(limit, rel=1e-11)
        assert 0.0 < constant.a_k < constant.c_star < 10**16

    def test_k_past_the_float_range_names_k(self):
        k = (M_MAX >> 60) + 1
        with pytest.raises(ValueError, match=f"got {k}"):
            asymptotic_constant(k)
        asymptotic_constant(10**32)  # within the engine's range

    def test_past_the_engine_range_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match=f"a_k at k = {10**35} is past the engine's range"):
            asymptotic_constant(10**35)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            asymptotic_constant(-1)

    def test_record_contract(self):
        # an immutable named tuple: fields in order, the repr the CLI and
        # demos print, and _asdict() for the `pvalue --asymptotic` payload
        c = asymptotic_constant(0)
        assert AsymptoticConstant._fields == ("k", "c_star", "a_k")
        assert repr(c) == "AsymptoticConstant(k=0, c_star=1.0, a_k=0.36787944117144233)"
        assert list(c._asdict()) == ["k", "c_star", "a_k"]
        assert tuple(c) == (c.k, c.c_star, c.a_k)
        with pytest.raises(AttributeError):
            c.a_k = 0.0


# ---------------------------------------------------------------------------
# icp_pvalue / dominating_pvalue
# ---------------------------------------------------------------------------


class TestIcpPvalue:
    def test_only_test_counts_when_all_below(self):
        assert icp_pvalue([0.1, 0.2, 0.3], 0.9) == Fraction(1, 4)

    def test_all_equal_gives_one(self):
        assert icp_pvalue([0.5, 0.5, 0.5], 0.5) == Fraction(1, 1)

    def test_binary_ties_at_one(self):
        assert icp_pvalue([1, 1, 0, 0, 0], 1) == Fraction(3, 6)

    def test_returns_exact_rational(self):
        assert isinstance(icp_pvalue([0, 0], 1), Fraction)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            icp_pvalue([], 0.5)

    def test_rejects_nan_test_alpha(self):
        # a NaN test alpha counts no calibration alpha: 1/(m+1) at best
        with pytest.raises(ValueError, match="test_alpha must not be NaN"):
            icp_pvalue([0.1, 0.2], math.nan)

    def test_rejects_nan_calibration_alpha(self):
        with pytest.raises(ValueError, match=r"calibration_alphas\[1\] must not be NaN"):
            icp_pvalue([0.9, math.nan, 0.9], 0.5)


class TestDominatingPvalue:
    def test_special_configuration(self):
        value = dominating_pvalue([0.1, 0.1, 0.1, 0.1], 0.9, 0.5)
        assert value == Fraction(256, 3125)
        assert float(value) == pytest.approx(0.08192, rel=1e-15)

    def test_falls_through_to_rank_value(self):
        alphas = [0.1, 0.6, 0.1, 0.1]
        assert dominating_pvalue(alphas, 0.9, 0.5) == icp_pvalue(alphas, 0.9)

    def test_threshold_comparisons_are_strict(self):
        # test summary exactly at the threshold: not the special case
        assert dominating_pvalue([0.1, 0.1], 0.5, 0.5) == icp_pvalue([0.1, 0.1], 0.5)
        # a calibration summary exactly at the threshold: not the special case
        assert dominating_pvalue([0.5, 0.1], 0.9, 0.5) == icp_pvalue([0.5, 0.1], 0.9)

    def test_special_value_beats_rank_value_everywhere(self):
        for m in range(1, 51):
            special = Fraction(m**m, (m + 1) ** (m + 1))
            assert special < Fraction(1, m + 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dominating_pvalue([], 0.5, 0.5)

    def test_rejects_nan_test_alpha(self):
        with pytest.raises(ValueError, match="test_alpha must not be NaN"):
            dominating_pvalue([0.1, 0.1], math.nan, 0.5)

    def test_rejects_nan_calibration_alpha(self):
        # the NaN would pass neither threshold test nor the rank count
        with pytest.raises(ValueError, match=r"calibration_alphas\[0\] must not be NaN"):
            dominating_pvalue([math.nan, 0.1], 0.9, 0.5)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold_a must not be NaN"):
            dominating_pvalue([0.1, 0.1], 0.9, math.nan)


# ---------------------------------------------------------------------------
# p-variables over summary sequences
# ---------------------------------------------------------------------------


class TestPvariables:
    def test_conforming_test_summary_gives_one(self):
        seq = SummarySequence(calibration_summaries=(1, 0, 1), test_summary=0)
        assert binary_irp_pvariable(seq) == 1.0
        assert icp_pvariable(seq) == Fraction(1, 1)
        # in the type of each p-variable's other values
        assert type(binary_irp_pvariable(seq)) is float
        assert type(icp_pvariable(seq)) is Fraction

    def test_engine_pvariable_matches_pvalue(self):
        seq = SummarySequence(calibration_summaries=(1, 0, 0, 0, 1), test_summary=1)
        assert binary_irp_pvariable(seq) == binary_irp_pvalue(5, 2)

    def test_icp_pvariable_counts_ties(self):
        seq = SummarySequence(calibration_summaries=(1, 1, 0, 0), test_summary=1)
        assert icp_pvariable(seq) == Fraction(3, 5)

    def test_dominating_pvariable_special_and_fallthrough(self):
        special = SummarySequence(calibration_summaries=(0, 0, 0, 0), test_summary=1)
        assert dominating_pvariable(special) == Fraction(256, 3125)
        ordinary = SummarySequence(calibration_summaries=(1, 0, 0, 0), test_summary=1)
        assert dominating_pvariable(ordinary) == icp_pvariable(ordinary)

    @settings(max_examples=60)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=15), t=st.integers(0, 1))
    def test_domination_pointwise(self, bits, t):
        seq = SummarySequence(calibration_summaries=tuple(bits), test_summary=t)
        assert dominating_pvariable(seq) <= icp_pvariable(seq)

    def test_engine_below_rank_based_at_every_k(self):
        # The tightest case is k = m - 1, ratio (m+1)^(-1/m): 1 - 2.8e-11 at
        # m = 1e12, far above the engine's 4e-15 error.  The large-k middle
        # is left out for speed.
        for m in sorted({int(10 ** (e / 4)) for e in range(4, 49)}):
            for k in {0, 1, 2, 3, 10, 100, 1000, m - 1}:
                if k < m:
                    assert binary_irp_pvalue(m, k) < Fraction(k + 1, m + 1), (m, k)
