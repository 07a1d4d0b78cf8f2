"""End-to-end prediction pipelines.

Each pipeline fits a binary nonconformity measure on the proper training
arrays, scores the calibration arrays once in one batch pass, and maps a
test object to a hedged prediction: a conforming set plus an incertitude.
The set never depends on the calibration sequence — only the incertitude
does, through the one-count k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    ALL_LABELS,
    FULL_LINE,
    DataSplit,
    HedgedPrediction,
    Interval,
    PredictionSet,
)
from .pvalues import binary_irp_pvalue
from .summaries import (
    ClassifierSpec,
    FittedMarginMeasure,
    FittedRegressionMeasure,
    RegressorSpec,
    fit_margin_measure,
    fit_regression_measure,
    score_margin_batch,
    score_regression_batch,
)

__all__ = [
    "FittedRegressionPipeline",
    "FittedClassificationPipeline",
    "fit_regression_pipeline",
    "fit_classification_pipeline",
    "prediction_set",
]

# The three label sets a margin pipeline predicts, by sign of the score
# (0: inside the margin, both labels).
_LABEL_SETS = {1: frozenset({1}), -1: frozenset({-1}), 0: ALL_LABELS}


class _FittedPipeline:
    """What both pipelines share: the calibration one-count k of m bits,
    and the incertitude it gives each method."""

    def incertitude(self, method: str = "irp") -> float:
        """The incertitude of every prediction: the engine p-value at
        (m, k) for irp, the rank-based (k+1)/(m+1) for icp."""
        if method == "irp":
            return binary_irp_pvalue(self.m, self.k)
        if method == "icp":
            return float(Fraction(self.k + 1, self.m + 1))
        raise ValueError(f"method must be 'irp' or 'icp', got {method!r}")


@dataclass(frozen=True)
class FittedRegressionPipeline(_FittedPipeline):
    """Regression measure fitted once; calibration already scored.

    predict() is pure, so one fitted pipeline can serve many test
    objects concurrently.  interval_bounds() gives the intervals of a
    whole array of test objects, equal bit for bit to the per-row ones.
    """

    measure: FittedRegressionMeasure
    k: int
    m: int
    fallback_reason: Optional[str] = None

    def interval(self, test_x) -> Interval:
        """[g(x) - h, g(x) + h]; ValueError if the point prediction g(x)
        is not finite, as an overflow or a NaN feature makes it."""
        center = self.measure.predictor.predict(test_x)
        if not math.isfinite(center):
            raise ValueError(f"invalid interval: point prediction {center!r} is not finite")
        h = self.measure.half_width
        return Interval(center - h, center + h)

    def interval_bounds(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """The lower and upper bounds of interval(x) for every row x of X.

        Raises ValueError, as interval does, naming the first row (counted
        from 1) whose point prediction is not finite.
        """
        h = self.measure.half_width
        # overflow to +-inf and inf - inf = NaN pass without a warning, as
        # in interval's Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            center = self.measure.predictor.predict_batch(X)
            lower, upper = center - h, center + h
        finite = np.isfinite(center)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"invalid interval: test row {i + 1}: "
                f"point prediction {float(center[i])!r} is not finite"
            )
        return lower, upper

    def predict(self, test_x, method: str = "irp") -> HedgedPrediction:
        """The hedged prediction for one test object.

        The interval is [g(x) - h, g(x) + h] with h the proper-training
        residual half-width; the incertitude is the same for every test
        object.  With k = 0 (the typical regime under bounded noise) the
        irp incertitude is m^m/(m+1)^(m+1), roughly 0.37/m.
        """
        return HedgedPrediction(
            prediction_set=self.interval(test_x),
            incertitude=self.incertitude(method),
            k=self.k,
            m=self.m,
        )


@dataclass(frozen=True)
class FittedClassificationPipeline(_FittedPipeline):
    """Margin measure fitted once; calibration already scored."""

    measure: FittedMarginMeasure
    k: int
    m: int
    fallback_reason: Optional[str] = None

    def label_set(self, test_x) -> frozenset:
        score = self.measure.classifier.predict(test_x)
        if abs(score) > self.measure.margin_width:
            return frozenset({1 if score > 0 else -1})
        return ALL_LABELS

    def label_sets(self, X) -> List[frozenset]:
        """label_set(x) for every row x of X, from one batch of scores."""
        with np.errstate(over="ignore", invalid="ignore"):  # as in label_set
            scores = self.measure.classifier.predict_batch(X)
        outside = np.abs(scores) > self.measure.margin_width
        signs = np.where(outside, np.where(scores > 0, 1, -1), 0)
        return [_LABEL_SETS[sign] for sign in signs.tolist()]

    def predict(self, test_x, method: str = "irp") -> HedgedPrediction:
        """The hedged prediction for one test object.

        A score outside the margin yields the singleton of its sign; a
        score inside the margin yields both labels, flagged vacuous (the
        incertitude is still reported; it excludes no label).
        """
        labels = self.label_set(test_x)
        return HedgedPrediction(
            prediction_set=labels,
            incertitude=self.incertitude(method),
            vacuous=labels == ALL_LABELS,
            k=self.k,
            m=self.m,
        )


def fit_regression_pipeline(
    split: DataSplit, predictor_spec: Optional[RegressorSpec] = None
) -> FittedRegressionPipeline:
    """Fit the regression measure on the split and score its calibration."""
    measure = fit_regression_measure(*split.proper, predictor_spec)
    bits = score_regression_batch(measure, *split.calibration)
    return FittedRegressionPipeline(
        measure=measure,
        k=int(bits.sum()),
        m=len(bits),
        fallback_reason=measure.fallback_reason,
    )


def fit_classification_pipeline(
    split: DataSplit, classifier_spec: Optional[ClassifierSpec] = None
) -> FittedClassificationPipeline:
    """Fit the margin measure on the split and score its calibration."""
    measure = fit_margin_measure(*split.proper, classifier_spec)
    bits = score_margin_batch(measure, *split.calibration)
    return FittedClassificationPipeline(
        measure=measure,
        k=int(bits.sum()),
        m=len(bits),
        fallback_reason=measure.fallback_reason,
    )


def prediction_set(prediction: HedgedPrediction, epsilon: float) -> PredictionSet:
    """The level-epsilon prediction set {y : f(y) > epsilon}, where f is
    the prediction's p-function: 1 on the conforming set, the incertitude
    elsewhere.

    That is the conforming set when the incertitude is at most epsilon
    (the boundary value epsilon is not strictly greater, so non-members
    drop out), and the whole label space otherwise.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    conforming = prediction.prediction_set
    if prediction.incertitude <= epsilon:
        return conforming
    return FULL_LINE if isinstance(conforming, Interval) else ALL_LABELS
