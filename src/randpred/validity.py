"""Monte Carlo validity harness.

Measures coverage frequencies of the regression pipelines on seeded
synthetic data.  A trial fits its point predictor as
fit_regression_pipeline does and predicts all of its rows, its test row
included, in one pass.  The harness keeps the predictions and labels of
a block of trials in two arrays and applies the pipelines module's bit,
bounds, incertitude and level-set rules to the whole block at once.  The
exact audits, which need no sampling, are in the audits module.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Tuple

import numpy as np

from .core import DataSplit
from .pipelines import (
    RegressorSpec,
    _check_width,
    _incertitudes,
    _interval_bounds,
    _level_set_bounds,
    _regression_bits,
)
from .records import Record
from .reports import ValidityCell, ValidityReport

__all__ = [
    "BoundedNoiseLinearGenerator",
    "PipelineSpec",
    "monte_carlo_coverage",
]


# A block of trials holds at most this many data rows (each trial's
# training rows and its test row) and at least one trial, so the
# harness's arrays stay bounded at any calibration size and trial count.
_BLOCK_ROWS = 1 << 14


def _finite_float(name: str, value) -> float:
    """value as a float, or ValueError naming the field unless it is a
    finite real number (bools excluded)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{name} must be a finite float, got {value!r}")


def _is_int(value) -> bool:
    """Whether value is an int or a numpy integer (bools excluded)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_size(name: str, value) -> int:
    """value as an int, or ValueError naming the field unless it is a
    positive int (bools excluded)."""
    if _is_int(value) and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be a positive int, got {value!r}")


class BoundedNoiseLinearGenerator(Record):
    """IID sampler: uniform features, linear signal, uniform bounded noise.

    Bounded noise makes a zero calibration one-count the typical regime
    for the regression measure, the headline case for the engine.  Every
    parameter is checked when the generator is made: finite floats, and
    positive int sizes.  The features and the noise are then finite, but
    a label can still overflow, so labels are checked per draw.
    """

    __slots__ = (
        "coefficients",
        "intercept",
        "noise_half_width",
        "proper_size",
        "calibration_size",
        "feature_low",
        "feature_high",
    )

    def __init__(
        self,
        coefficients: Tuple[float, ...] = (1.5, -2.0),
        intercept: float = 0.3,
        noise_half_width: float = 0.25,
        proper_size: int = 50,
        calibration_size: int = 30,
        feature_low: float = -1.0,
        feature_high: float = 1.0,
    ):
        coefficients = tuple(_finite_float("coefficients", c) for c in coefficients)
        if not coefficients:
            raise ValueError("coefficients must be nonempty")
        intercept = _finite_float("intercept", intercept)
        noise_half_width = _finite_float("noise_half_width", noise_half_width)
        feature_low = _finite_float("feature_low", feature_low)
        feature_high = _finite_float("feature_high", feature_high)
        proper_size = _positive_size("proper_size", proper_size)
        calibration_size = _positive_size("calibration_size", calibration_size)
        if noise_half_width < 0:
            raise ValueError("noise_half_width must be nonnegative")
        if not feature_low < feature_high:
            raise ValueError("feature_low must be below feature_high")
        # numpy's uniform draws need a finite width high - low
        if not math.isfinite(2.0 * noise_half_width):
            raise ValueError("2 * noise_half_width must be finite")
        if not math.isfinite(feature_high - feature_low):
            raise ValueError("feature_high - feature_low must be finite")
        super().__init__(
            coefficients,
            intercept,
            noise_half_width,
            proper_size,
            calibration_size,
            feature_low,
            feature_high,
        )

    def _draw(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """The features (n + 1, d) and labels (n + 1,) of one training
        sequence plus one test example, all IID; the test example is the
        last row.  The rng draws the features, then the noise."""
        n = self.proper_size + self.calibration_size + 1
        d = len(self.coefficients)
        features = rng.uniform(self.feature_low, self.feature_high, size=(n, d))
        noise = rng.uniform(-self.noise_half_width, self.noise_half_width, size=n)
        return features, features @ np.array(self.coefficients) + self.intercept + noise

    def sample(self, rng: np.random.Generator) -> Tuple[DataSplit, np.ndarray, float]:
        """Draw one training split plus one test example (x, y), all IID."""
        features, labels = self._draw(rng)
        split = DataSplit(features[:-1], labels[:-1], self.proper_size)
        return split, features[-1], float(labels[-1])


class PipelineSpec(Record):
    """Which regression pipeline the Monte Carlo harness should exercise;
    predictor None is the default RegressorSpec()."""

    __slots__ = ("method", "predictor")

    def __init__(self, method: str = "both", predictor: Optional[RegressorSpec] = None):
        if method not in ("irp", "icp", "both"):
            raise ValueError(f"method must be 'irp', 'icp', or 'both', got {method!r}")
        super().__init__(method, RegressorSpec() if predictor is None else predictor)


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
    epsilon + 3 standard errors.  A trial checks that its training labels
    are finite (ValueError otherwise, as DataSplit raises), fits the
    point predictor on its proper rows and predicts all of its rows, its
    test row included, in one pass.  The harness keeps the predictions
    and labels of up to _BLOCK_ROWS data rows of trials, then takes the
    half-widths and calibration bits, the test rows' intervals, every
    method's incertitude and level sets, and the miss counts of the
    whole block, each by one array rule of the pipelines module.  Those
    are, value for value, the pipeline of fit_regression_pipeline and the
    sets of interval_bounds, hedge and prediction_set for
    generator.sample's split and test row.  A block raises the error the
    first failing trial raises in that trial-by-trial path, with its
    message: a label, fit or prediction error of a trial is raised after
    the trials before it are checked.  When both methods run, the
    interval-identity cell counts the trials whose methods hedge the same
    interval; every method hedges the one interval of its trial, so the
    method changes only the incertitude, never the interval.  It does not
    compare independently fitted pipelines.

    Each trial derives its random stream from (seed, trial index), so the
    report is identical under any execution order.  seed must be a
    nonnegative int, as trials must be a positive one; numpy integers
    count, bools do not.
    """
    spec = pipeline_spec or PipelineSpec()
    generator = data_generator_spec or BoundedNoiseLinearGenerator()
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    trials, seed = int(trials), int(seed)

    methods = ("irp", "icp") if spec.method == "both" else (spec.method,)
    proper, m = generator.proper_size, generator.calibration_size
    size = min(trials, max(1, _BLOCK_ROWS // (proper + m + 1)))
    predictions = np.empty((size, proper + m + 1))
    labels = np.empty_like(predictions)
    misses = dict.fromkeys(methods, 0)
    identical_intervals = 0
    for start in range(0, trials, size):
        filled = min(size, trials - start)
        for row in range(filled):
            try:
                X, y = generator._draw(np.random.default_rng([seed, start + row]))
                # the features are finite by the generator's checks
                if not np.isfinite(y[:-1]).all():
                    raise ValueError("features and labels must be finite")
                predictor = spec.predictor.build().fit(X[:proper], y[:proper])
                predictions[row] = predictor.predict_batch(X)
            except Exception:
                _block_misses(predictions[:row], labels[:row], proper, methods, epsilon)
                raise  # the trials before this one raised nothing
            labels[row] = y
        block = _block_misses(predictions[:filled], labels[:filled], proper, methods, epsilon)
        for method, count in zip(methods, block):
            misses[method] += count
        if len(methods) == 2:
            identical_intervals += filled

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


def _block_misses(predictions, labels, proper_size, methods, epsilon) -> list:
    """How many test labels each method's level sets exclude over a block
    of trials: predictions and labels are (trials, n + 1) arrays, a
    trial's test row last.  Raises the error of the first trial whose
    half-width is NaN (as FittedPipeline does) or whose test row's point
    prediction is not finite (as interval_bounds does)."""
    n = labels.shape[1] - 1
    m = n - proper_size
    width, k = _regression_bits(labels[:, :n], predictions[:, :n], proper_size)
    center, test_label = predictions[:, n:], labels[:, n:]
    invalid = ~(width >= 0)
    if invalid.any():
        first = int(np.argmax(invalid))
        _interval_bounds(center[:first], width[:first, np.newaxis])  # an earlier error first
        _check_width(float(width[first]))
    lower, upper = _interval_bounds(center, width[:, np.newaxis])
    counts = []
    for method in methods:
        level_lower, level_upper = _level_set_bounds(
            lower, upper, _incertitudes(method, m, k)[:, np.newaxis], epsilon
        )
        covered = (level_lower <= test_label) & (test_label <= level_upper)
        counts.append(len(covered) - int(np.count_nonzero(covered)))
    return counts
