"""End-to-end prediction pipelines.

A pipeline fits a binary nonconformity measure on the proper training
arrays, scores the calibration arrays once in one batch pass, and maps a
test object to a hedged prediction: a conforming set plus an incertitude.
The set never depends on the calibration sequence — only the incertitude
does, through the one-count k.  The measure decides the kind of set: an
interval for the regression measure, a label set for the margin measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

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
    "FittedPipeline",
    "fit_regression_pipeline",
    "fit_classification_pipeline",
    "prediction_set",
]

# The three label sets a margin pipeline predicts, by sign of the score
# (0: inside the margin, both labels).
_LABEL_SETS = {1: frozenset({1}), -1: frozenset({-1}), 0: ALL_LABELS}


@dataclass(frozen=True)
class FittedPipeline:
    """A measure fitted once, and the one-count k of its m calibration bits.

    interval_bounds (regression measure) and label_sets (margin measure)
    give the sets of a whole array of test objects; predict is a one-row
    call of them, so per-row and batch sets agree by construction.  Every
    method is pure, so one fitted pipeline can serve many test objects
    concurrently.
    """

    measure: Union[FittedRegressionMeasure, FittedMarginMeasure]
    k: int
    m: int
    fallback_reason: Optional[str] = None

    def incertitude(self, method: str = "irp") -> float:
        """The incertitude of every prediction: the engine p-value at
        (m, k) for irp, the rank-based (k+1)/(m+1) for icp.  With k = 0
        (the typical regime under bounded noise) the irp incertitude is
        m^m/(m+1)^(m+1), roughly 0.37/m."""
        if method == "irp":
            return binary_irp_pvalue(self.m, self.k)
        if method == "icp":
            return float(Fraction(self.k + 1, self.m + 1))
        raise ValueError(f"method must be 'irp' or 'icp', got {method!r}")

    def interval_bounds(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """The bounds g(x) - h and g(x) + h of every row x of X, with h
        the proper-training residual half-width.

        Raises ValueError naming the first row (counted from 1) whose
        point prediction g(x) is not finite, as an overflow or a NaN
        feature makes it.
        """
        center = self.measure.predictor.predict_batch(X)
        finite = np.isfinite(center)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"invalid interval: test row {i + 1}: "
                f"point prediction {float(center[i])!r} is not finite"
            )
        h = self.measure.half_width
        # a finite center can still have a bound that overflows to +-inf
        with np.errstate(over="ignore"):
            return center - h, center + h

    def label_sets(self, X) -> List[frozenset]:
        """The label set of every row x of X: the singleton of the score's
        sign outside the margin, both labels inside it."""
        scores = self.measure.classifier.predict_batch(X)
        outside = np.abs(scores) > self.measure.margin_width
        signs = np.where(outside, np.where(scores > 0, 1, -1), 0)
        return [_LABEL_SETS[sign] for sign in signs.tolist()]

    def hedge(self, prediction_set: PredictionSet, method: str = "irp") -> HedgedPrediction:
        """prediction_set with the method's incertitude.  Both labels are
        flagged vacuous: the incertitude is still reported, but the set
        excludes no label."""
        return HedgedPrediction(
            prediction_set=prediction_set,
            incertitude=self.incertitude(method),
            vacuous=prediction_set == ALL_LABELS,
            k=self.k,
            m=self.m,
        )

    def predict(self, x, method: str = "irp") -> HedgedPrediction:
        """The hedged prediction for one test object x, from a one-row
        call of the batch set method."""
        X = np.asarray(x, dtype=np.float64)[np.newaxis]
        if isinstance(self.measure, FittedMarginMeasure):
            (labels,) = self.label_sets(X)
            return self.hedge(labels, method)
        (lower,), (upper,) = self.interval_bounds(X)
        return self.hedge(Interval(lower, upper), method)


def _fit_pipeline(fit_measure, score_batch, split: DataSplit, spec) -> FittedPipeline:
    """Fit a measure on the proper part and count the calibration ones."""
    measure = fit_measure(*split.proper, spec)
    bits = score_batch(measure, *split.calibration)
    return FittedPipeline(measure, int(bits.sum()), len(bits), measure.fallback_reason)


def fit_regression_pipeline(
    split: DataSplit, predictor_spec: Optional[RegressorSpec] = None
) -> FittedPipeline:
    """Fit the regression measure on the split and score its calibration."""
    return _fit_pipeline(fit_regression_measure, score_regression_batch, split, predictor_spec)


def fit_classification_pipeline(
    split: DataSplit, classifier_spec: Optional[ClassifierSpec] = None
) -> FittedPipeline:
    """Fit the margin measure on the split and score its calibration."""
    return _fit_pipeline(fit_margin_measure, score_margin_batch, split, classifier_spec)


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
