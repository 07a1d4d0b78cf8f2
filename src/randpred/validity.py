"""Monte Carlo validity harness.

Measures coverage frequencies of the regression pipelines on seeded
synthetic data.  A trial fits its regression pipeline by the one-pass
fit of fit_regression_pipeline, with its test row in the pass.  The
exact audits, which need no sampling, are in the audits module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import DataSplit, Interval
from .pipelines import RegressorSpec, _fit_regression, _interval_bounds, prediction_set
from .reports import ValidityCell, ValidityReport

__all__ = [
    "BoundedNoiseLinearGenerator",
    "PipelineSpec",
    "monte_carlo_coverage",
]


def _finite_float(name: str, value) -> float:
    """value as a float, or ValueError naming the field unless it is a
    finite real number (bools excluded)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{name} must be a finite float, got {value!r}")


def _positive_size(name: str, value) -> int:
    """value as an int, or ValueError naming the field unless it is a
    positive int (bools excluded)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class BoundedNoiseLinearGenerator:
    """IID sampler: uniform features, linear signal, uniform bounded noise.

    Bounded noise makes a zero calibration one-count the typical regime
    for the regression measure, the headline case for the engine.  Every
    parameter is checked when the generator is made: finite floats, and
    positive int sizes.  The features and the noise are then finite, but
    a label can still overflow, so labels are checked per draw.
    """

    coefficients: Tuple[float, ...] = (1.5, -2.0)
    intercept: float = 0.3
    noise_half_width: float = 0.25
    proper_size: int = 50
    calibration_size: int = 30
    feature_low: float = -1.0
    feature_high: float = 1.0

    def __post_init__(self):
        coefficients = tuple(_finite_float("coefficients", c) for c in self.coefficients)
        if not coefficients:
            raise ValueError("coefficients must be nonempty")
        object.__setattr__(self, "coefficients", coefficients)
        for name in ("intercept", "noise_half_width", "feature_low", "feature_high"):
            object.__setattr__(self, name, _finite_float(name, getattr(self, name)))
        for name in ("proper_size", "calibration_size"):
            object.__setattr__(self, name, _positive_size(name, getattr(self, name)))
        if self.noise_half_width < 0:
            raise ValueError("noise_half_width must be nonnegative")
        if not self.feature_low < self.feature_high:
            raise ValueError("feature_low must be below feature_high")
        # numpy's uniform draws need a finite width high - low
        if not math.isfinite(2.0 * self.noise_half_width):
            raise ValueError("2 * noise_half_width must be finite")
        if not math.isfinite(self.feature_high - self.feature_low):
            raise ValueError("feature_high - feature_low must be finite")

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
    epsilon + 3 standard errors.  A trial checks that its training labels
    are finite (ValueError otherwise, as DataSplit raises), fits the
    regression pipeline with one prediction pass over its training rows
    and its test row, so that pass gives the half-width, the m
    calibration bits and the test row's point prediction, and forms the
    test row's interval by the rule of FittedPipeline.interval_bounds.
    That is the pipeline and the interval that fit_regression_pipeline
    and interval_bounds give for generator.sample's split and test row,
    value for value.  The interval is paired with every method's
    incertitude.  A level set is the interval or the whole line, so it
    can only exclude the label where the interval does; the level sets
    are formed on those trials only.  When both methods run, an
    interval-identity cell compares the two hedged predictions of every
    trial: it checks that the method changes only the incertitude, never
    the interval.  It does not compare independently fitted pipelines.

    Each trial derives its random stream from (seed, trial index), so the
    report is identical under any execution order.  seed must be a
    nonnegative int, as trials must be a positive one.
    """
    spec = pipeline_spec or PipelineSpec()
    generator = data_generator_spec or BoundedNoiseLinearGenerator()
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")

    methods = ("irp", "icp") if spec.method == "both" else (spec.method,)
    misses = dict.fromkeys(methods, 0)
    identical_intervals = 0
    for trial in range(trials):
        X, labels = generator._draw(np.random.default_rng([seed, trial]))
        y = labels[:-1]  # the training labels; X's last row is the test row
        if not np.isfinite(y).all():  # the features are finite by the generator's checks
            raise ValueError("features and labels must be finite")
        pipeline, center = _fit_regression(X, y, generator.proper_size, spec.predictor)
        lower, upper = _interval_bounds(center, pipeline.width)
        interval = Interval(lower.item(), upper.item())
        predictions = [pipeline.hedge(interval, method) for method in methods]
        test_label = labels[-1].item()
        if not interval.contains(test_label):  # else every level set holds it
            for method, prediction in zip(methods, predictions):
                if not prediction_set(prediction, epsilon).contains(test_label):
                    misses[method] += 1
        if len(predictions) == 2:
            identical_intervals += predictions[0].prediction_set == predictions[1].prediction_set

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
