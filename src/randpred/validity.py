"""Verification harness.

Everything here recomputes guarantees by routes independent of the
p-value engine: the exact oracle enumerates binary outcome sequences and
maximizes the resulting coverage polynomial with a bounded scalar
minimizer, the Monte Carlo harness measures coverage frequencies on
seeded synthetic data, and the dominance checker compares p-variables
exhaustively over summary configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import DataSplit, Interval, SummarySequence
from .pvalues import asymptotic_constant
from .summaries import RegressorSpec

__all__ = [
    "ValidityCell",
    "ValidityReport",
    "BoundedNoiseLinearGenerator",
    "PipelineSpec",
    "DominanceWitness",
    "DominanceResult",
    "TableRow",
    "urp_binary_event",
    "audit_pvariable",
    "monte_carlo_coverage",
    "check_dominance",
    "reproduce_table_k",
]

EXACT_M_LIMIT = 20


@dataclass(frozen=True)
class ValidityCell:
    """One audited (threshold, probability) pair."""

    name: str
    epsilon: float
    probability: float
    passed: bool
    standard_error: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of an exact audit or a Monte Carlo coverage run.

    Exact reports carry no standard errors and no trial metadata;
    Monte Carlo reports record trials and seed so any cell can be
    reproduced bit-for-bit.
    """

    mode: str
    cells: Tuple[ValidityCell, ...]
    m: Optional[int] = None
    trials: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {self.mode!r}")
        if self.mode == "exact" and any(c.standard_error is not None for c in self.cells):
            raise ValueError("exact cells must not carry standard errors")
        if self.mode == "monte_carlo" and (self.trials is None or self.trials < 1):
            raise ValueError("Monte Carlo reports require trials >= 1")

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)


def _sup_coverage_polynomial(counts: Sequence[int], total_bits: int) -> float:
    """Supremum over p in [0,1] of sum_j counts[j] p^j (1-p)^(total_bits-j).

    Dense grid to bracket the global maximum, then a bounded scalar
    minimizer on the negated polynomial.  Direct power evaluation is safe
    here: exponents stay at or below total_bits <= 21.
    """
    # Imported here, its only use, so that importing the package skips scipy.
    from scipy.optimize import minimize_scalar

    if not any(counts):
        return 0.0
    ps = np.linspace(0.0, 1.0, 4097)
    values = np.zeros_like(ps)
    for j, count in enumerate(counts):
        if count:
            values += count * ps**j * (1.0 - ps) ** (total_bits - j)
    best = int(np.argmax(values))
    lo = ps[max(best - 1, 0)]
    hi = ps[min(best + 1, len(ps) - 1)]

    def negated(p: float) -> float:
        return -math.fsum(
            count * p**j * (1.0 - p) ** (total_bits - j)
            for j, count in enumerate(counts)
            if count
        )

    result = minimize_scalar(
        negated, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return max(float(values[best]), float(-result.fun))


def urp_binary_event(
    m: int, event: Callable[[Tuple[int, ...], int], bool]
) -> float:
    """Worst-case IID probability of an event over binary summaries.

    Enumerates all 2^(m+1) outcomes (m calibration bits plus a test bit),
    tallies member outcomes by their total one-count — the product
    probability p^j (1-p)^(m+1-j) depends on nothing else — and returns
    the supremum over p of the resulting polynomial.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > EXACT_M_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is capped at m = {EXACT_M_LIMIT}; "
            "use monte_carlo_coverage for larger m"
        )
    counts = [0] * (m + 2)
    for bits in itertools.product((0, 1), repeat=m):
        ones = sum(bits)
        for test_bit in (0, 1):
            if event(bits, test_bit):
                counts[ones + test_bit] += 1
    return _sup_coverage_polynomial(counts, m + 1)


def _class_value_table(pvariable, m: int) -> dict:
    """p-variable values per (calibration one-count, test bit) class."""
    table = {}
    for k in range(m + 1):
        bits = (1,) * k + (0,) * (m - k)
        for test_bit in (0, 1):
            seq = SummarySequence(calibration_summaries=bits, test_summary=test_bit)
            table[(k, test_bit)] = pvariable(seq)
    return table


def _assert_permutation_symmetric(pvariable, m: int, table: dict) -> None:
    """The grouped audit is only exact for permutation-symmetric p-variables."""
    for k in range(1, m):
        bits = (0,) * (m - k) + (1,) * k
        seq = SummarySequence(calibration_summaries=bits, test_summary=1)
        if pvariable(seq) != table[(k, 1)]:
            raise ValueError(
                "p-variable is not permutation-symmetric in the calibration "
                "summaries; the grouped exact audit does not apply"
            )


def audit_pvariable(
    pvariable: Callable[[SummarySequence], float], m: int, slack: float = 1e-9
) -> ValidityReport:
    """Exact audit of the defining contract: P(p-variable <= v) <= v.

    The p-variable's realized values over all (one-count, test bit)
    classes form the only thresholds where the exceedance probability can
    jump, so checking those checks every level.  Class probabilities are
    weighted by binomial counts computed directly — the oracle shares no
    code with the engine being audited.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > EXACT_M_LIMIT:
        raise ValueError(
            f"exact audits are capped at m = {EXACT_M_LIMIT}; "
            "use monte_carlo_coverage for larger m"
        )
    table = _class_value_table(pvariable, m)
    _assert_permutation_symmetric(pvariable, m, table)
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
                passed=probability <= level + slack,
                detail=f"{members}/{2 * (m + 1)} summary classes at or below threshold",
            )
        )
    return ValidityReport(mode="exact", cells=tuple(cells), m=m)


@dataclass(frozen=True)
class BoundedNoiseLinearGenerator:
    """IID sampler: uniform features, linear signal, uniform bounded noise.

    Bounded noise makes a zero calibration one-count the typical regime
    for the regression measure, the headline case for the engine.
    """

    coefficients: Tuple[float, ...] = (1.5, -2.0)
    intercept: float = 0.3
    noise_half_width: float = 0.25
    proper_size: int = 50
    calibration_size: int = 30
    feature_low: float = -1.0
    feature_high: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValueError("coefficients must be nonempty")
        if self.proper_size < 1 or self.calibration_size < 1:
            raise ValueError("proper_size and calibration_size must be >= 1")
        if self.noise_half_width < 0:
            raise ValueError("noise_half_width must be nonnegative")
        if not self.feature_low < self.feature_high:
            raise ValueError("feature_low must be below feature_high")

    def sample(self, rng: np.random.Generator) -> Tuple[DataSplit, np.ndarray, float]:
        """Draw one training split plus one test example (x, y), all IID."""
        n = self.proper_size + self.calibration_size + 1
        d = len(self.coefficients)
        features = rng.uniform(self.feature_low, self.feature_high, size=(n, d))
        noise = rng.uniform(-self.noise_half_width, self.noise_half_width, size=n)
        labels = features @ np.array(self.coefficients) + self.intercept + noise
        split = DataSplit(features[:-1], labels[:-1], self.proper_size)
        return split, features[-1], float(labels[-1])


@dataclass(frozen=True)
class PipelineSpec:
    """Which regression pipeline the Monte Carlo harness should exercise."""

    method: str = "both"
    predictor: RegressorSpec = field(default_factory=RegressorSpec)

    def __post_init__(self):
        if self.method not in ("irp", "icp", "both"):
            raise ValueError(f"method must be 'irp', 'icp', or 'both', got {self.method!r}")


def monte_carlo_coverage(
    pipeline_spec: Optional[PipelineSpec],
    data_generator_spec: Optional[BoundedNoiseLinearGenerator],
    epsilon: float,
    trials: int,
    seed: int,
) -> ValidityReport:
    """Seeded coverage experiment for the regression pipelines.

    Each trial draws fresh IID data, forms the level-epsilon prediction
    set, and records whether the true test label was excluded.  A
    coverage cell passes when the empirical miscoverage rate is at most
    epsilon + 3 standard errors.  Each trial fits one pipeline, forms the
    test row's interval once, and pairs it with every method's
    incertitude.  When both methods run, an interval-identity cell
    compares the two hedged predictions: it checks that the method
    changes only the incertitude, never the interval.  It does not compare
    independently fitted pipelines.

    Each trial derives its random stream from (seed, trial index), so the
    report is identical under any execution order.
    """
    from .pipelines import fit_regression_pipeline, prediction_set

    spec = pipeline_spec or PipelineSpec()
    generator = data_generator_spec or BoundedNoiseLinearGenerator()
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")

    methods = ("irp", "icp") if spec.method == "both" else (spec.method,)
    misses = dict.fromkeys(methods, 0)
    identical_intervals = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        split, x, y = generator.sample(rng)
        pipeline = fit_regression_pipeline(split, spec.predictor)
        (lower,), (upper,) = pipeline.interval_bounds(x[np.newaxis])
        interval = Interval(lower, upper)
        predictions = {}
        for method in methods:
            predictions[method] = pipeline.hedge(interval, method)
            if not prediction_set(predictions[method], epsilon).contains(y):
                misses[method] += 1
        if len(methods) == 2:
            if predictions["irp"].prediction_set == predictions["icp"].prediction_set:
                identical_intervals += 1

    cells = []
    for method in methods:
        rate = misses[method] / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        cells.append(
            ValidityCell(
                name=f"coverage-{method}",
                epsilon=epsilon,
                probability=rate,
                passed=rate <= epsilon + 3.0 * stderr,
                standard_error=stderr,
                detail=f"{misses[method]}/{trials} test labels excluded",
            )
        )
    if len(methods) == 2:
        rate = identical_intervals / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        cells.append(
            ValidityCell(
                name="interval-identity",
                epsilon=epsilon,
                probability=rate,
                passed=identical_intervals == trials,
                standard_error=stderr,
                detail=f"{identical_intervals}/{trials} trials with identical intervals",
            )
        )
    return ValidityReport(
        mode="monte_carlo",
        cells=tuple(cells),
        m=generator.calibration_size,
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class DominanceWitness:
    """Configuration where the two p-variables differ (or tie illegally)."""

    calibration_ones: int
    test_summary: int
    p1_value: float
    p2_value: float


@dataclass(frozen=True)
class DominanceResult:
    """Verdict of an exhaustive dominance comparison.

    verdict is "strict" (p1 <= p2 everywhere, strictly somewhere — the
    witness shows where), "weak" (equal everywhere), or "none" (the
    witness is a counterexample with p1 > p2).
    """

    verdict: str
    witness: Optional[DominanceWitness] = None


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
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > EXACT_M_LIMIT:
        raise ValueError(f"exhaustive dominance checks are capped at m = {EXACT_M_LIMIT}")
    table1 = _class_value_table(p1, m)
    table2 = _class_value_table(p2, m)
    _assert_permutation_symmetric(p1, m, table1)
    _assert_permutation_symmetric(p2, m, table2)
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


@dataclass(frozen=True)
class TableRow:
    """One column of the asymptotic-numerator table."""

    k: int
    a_k: float
    icp_numerator: int
    ratio: float

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
