"""End-to-end prediction pipelines.

Each pipeline fits a binary nonconformity measure on the proper training
arrays, scores the calibration arrays once in one batch pass, and maps a
test object to a hedged prediction: a conforming set plus an incertitude.
The set never depends on the calibration sequence — only the incertitude
does, through the one-count k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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
    "PredictionPFunction",
    "FittedRegressionPipeline",
    "FittedClassificationPipeline",
    "fit_regression_pipeline",
    "fit_classification_pipeline",
    "irp_predict_regression",
    "icp_predict_regression",
    "irp_predict_classification",
    "icp_predict_classification",
    "prediction_set",
]


@dataclass(frozen=True)
class PredictionPFunction:
    """A prediction p-function in hedged form.

    Evaluates to 1 on the conforming set and to the incertitude
    elsewhere.  degenerate marks incertitude 1, where the function is
    identically 1 and hedging carries no information.
    """

    conforming_set: PredictionSet
    incertitude: float
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.incertitude <= 1.0:
            raise ValueError(f"incertitude must lie in [0, 1], got {self.incertitude!r}")
        if self.incertitude == 1.0 and not self.degenerate:
            object.__setattr__(self, "degenerate", True)

    @classmethod
    def from_hedged(cls, prediction: HedgedPrediction) -> "PredictionPFunction":
        return cls(
            conforming_set=prediction.prediction_set,
            incertitude=prediction.incertitude,
            degenerate=prediction.degenerate,
        )

    def __call__(self, y) -> float:
        if isinstance(self.conforming_set, Interval):
            member = self.conforming_set.contains(y)
        else:
            member = y in self.conforming_set
        return 1.0 if member else self.incertitude


@dataclass(frozen=True)
class FittedRegressionPipeline:
    """Regression measure fitted once; calibration already scored.

    predict() is pure, so one fitted pipeline can serve many test
    objects concurrently.
    """

    measure: FittedRegressionMeasure
    k: int
    m: int
    fallback_reason: Optional[str] = None

    def interval(self, test_x) -> Interval:
        center = self.measure.predictor.predict(test_x)
        h = self.measure.half_width
        return Interval(center - h, center + h)

    def predict(self, test_x, method: str = "irp") -> HedgedPrediction:
        if method == "irp":
            incertitude = binary_irp_pvalue(self.m, self.k)
        elif method == "icp":
            incertitude = float(Fraction(self.k + 1, self.m + 1))
        else:
            raise ValueError(f"method must be 'irp' or 'icp', got {method!r}")
        return HedgedPrediction(
            prediction_set=self.interval(test_x),
            incertitude=incertitude,
            k=self.k,
            m=self.m,
        )


@dataclass(frozen=True)
class FittedClassificationPipeline:
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

    def predict(self, test_x, method: str = "irp") -> HedgedPrediction:
        labels = self.label_set(test_x)
        if method == "irp":
            incertitude = binary_irp_pvalue(self.m, self.k)
        elif method == "icp":
            incertitude = float(Fraction(self.k + 1, self.m + 1))
        else:
            raise ValueError(f"method must be 'irp' or 'icp', got {method!r}")
        return HedgedPrediction(
            prediction_set=labels,
            incertitude=incertitude,
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


def irp_predict_regression(
    split: DataSplit,
    test_x,
    predictor_spec: Optional[RegressorSpec] = None,
) -> HedgedPrediction:
    """Predict an interval around the fitted point prediction.

    The interval is [g(x) - h, g(x) + h] with h the training residual
    half-width; the incertitude is the exact engine p-value at the
    observed calibration one-count.  With k = 0 (the typical regime under
    bounded noise) that is m^m/(m+1)^(m+1), roughly 0.37/m.
    """
    return fit_regression_pipeline(split, predictor_spec).predict(test_x, "irp")


def icp_predict_regression(
    split: DataSplit,
    test_x,
    predictor_spec: Optional[RegressorSpec] = None,
) -> HedgedPrediction:
    """Predict the same interval with the rank-based incertitude (k+1)/(m+1)."""
    return fit_regression_pipeline(split, predictor_spec).predict(test_x, "icp")


def irp_predict_classification(
    split: DataSplit,
    test_x,
    classifier_spec: Optional[ClassifierSpec] = None,
) -> HedgedPrediction:
    """Predict a label set from the margin classifier.

    A test score outside the margin yields the singleton of its sign; a
    score inside the margin yields both labels, flagged vacuous (the
    incertitude is still reported — it excludes no label).
    """
    return fit_classification_pipeline(split, classifier_spec).predict(test_x, "irp")


def icp_predict_classification(
    split: DataSplit,
    test_x,
    classifier_spec: Optional[ClassifierSpec] = None,
) -> HedgedPrediction:
    """Predict the same label set with the rank-based incertitude."""
    return fit_classification_pipeline(split, classifier_spec).predict(test_x, "icp")


def prediction_set(
    f: Union[PredictionPFunction, HedgedPrediction], epsilon: float
) -> PredictionSet:
    """The level-epsilon prediction set {y : f(y) > epsilon}.

    For a hedged p-function this is the conforming set when the
    incertitude is at most epsilon (the boundary value epsilon is not
    strictly greater, so non-members drop out), and the whole label space
    otherwise.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if isinstance(f, HedgedPrediction):
        conforming, incertitude = f.prediction_set, f.incertitude
    else:
        conforming, incertitude = f.conforming_set, f.incertitude
    if incertitude <= epsilon:
        return conforming
    return FULL_LINE if isinstance(conforming, Interval) else ALL_LABELS
