"""End-to-end prediction pipelines.

A pipeline is a binary nonconformity measure fitted on the proper
training arrays, plus k, the number of ones among the m calibration
bits.  It maps a test object to a hedged prediction: a conforming set
plus an incertitude.  The set never depends on the calibration sequence
— only the incertitude does, through k.  The task decides the measure
and the kind of set:

- regression: a bit is 1 iff the residual |y - g(x)| strictly exceeds the
  largest proper-training residual h, and the set is [g(x) - h, g(x) + h];
- classification: a bit is 1 iff the score asserts the wrong class
  outside the margin, and the set is the score's sign outside the margin,
  both labels inside it.

The regression pipeline takes its half-width and its calibration bits
from one prediction pass over all of the split's rows; the
classification pipeline predicts its calibration rows only.  The Monte
Carlo harness makes that pass for many trials at once, each trial's test
row added, by the predictors module's affine rule over a leading axis
(the pass of a fitted least-squares predictor's predict_batch), and
applies the rules below to a block of trials at once: the
bit rule (_regression_bits), the bounds rule (_interval_bounds), the
incertitude rule (_incertitudes) and the level-set rule
(_level_set_bounds) are written over a leading axis, and the pipeline's
own methods follow the same rules.  The errors are the pipeline's own:
the harness replays a failing block through fit_regression_pipeline and
interval_bounds, so it needs no copy of their checks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .core import (
    ALL_LABELS,
    FULL_LINE,
    DataSplit,
    HedgedPrediction,
    Interval,
    PredictionSet,
    _real,
)
from .predictors import (
    HingeLossLinearClassifier,
    LeastSquaresRegressor,
    MeanRegressor,
    PointPredictor,
)
from .pvalues import binary_irp_pvalue
from .records import Record

__all__ = [
    "RegressorSpec",
    "ClassifierSpec",
    "FittedPipeline",
    "fit_regression_pipeline",
    "fit_classification_pipeline",
    "prediction_set",
]

# The classifier scores with the raw affine output w.x + b, so the
# functional margin is 1 in score units.
_MARGIN = 1.0

# The three label sets a classification pipeline predicts, by sign of the
# score (0: inside the margin, both labels).
_LABEL_SETS = {1: frozenset({1}), -1: frozenset({-1}), 0: ALL_LABELS}


class RegressorSpec(Record):
    """Configuration for the regression point predictor."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "least_squares"):
        if kind not in ("least_squares", "mean"):
            raise ValueError(f"unknown regressor kind {kind!r}")
        super().__init__(kind)

    def build(self) -> PointPredictor:
        if self.kind == "mean":
            return MeanRegressor()
        return LeastSquaresRegressor()


class ClassifierSpec(Record):
    """Configuration for the margin classifier, checked when it is made:
    a setting HingeLossLinearClassifier rejects raises ValueError here,
    and each field holds the Python int or float the classifier keeps."""

    __slots__ = ("learning_rate", "epochs", "l2", "seed")

    def __init__(
        self,
        learning_rate: float = 0.5,
        epochs: int = 200,
        l2: float = 1e-3,
        seed: Optional[int] = None,
    ):
        # the classifier checks its own settings; the spec keeps them as checked
        checked = HingeLossLinearClassifier(learning_rate, epochs, l2, seed)
        super().__init__(checked.learning_rate, checked.epochs, checked.l2, checked.seed)

    def build(self) -> PointPredictor:
        return HingeLossLinearClassifier(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            l2=self.l2,
            seed=self.seed,
        )


class FittedPipeline(Record):
    """A point predictor fitted once on the proper training part, and the
    one-count k of the m calibration bits of its task's measure.

    task is "regression" or "classification".  width is the half-width of
    the conforming band: the largest proper-training residual for
    regression, the margin (1 in score units) for classification.
    interval_bounds (regression) and label_sets (classification) give the
    sets of a whole array of test objects; predict is a one-row call of
    them, so per-row and batch sets agree by construction.  Every method
    is pure, so one fitted pipeline can serve many test objects
    concurrently.
    """

    __slots__ = ("task", "predictor", "width", "k", "m")

    def __init__(self, task: str, predictor: PointPredictor, width: float, k: int, m: int):
        if task not in ("regression", "classification"):
            raise ValueError(f"task must be 'regression' or 'classification', got {task!r}")
        if not width >= 0:  # NaN is not
            raise ValueError(f"width must be nonnegative, got {width!r}")
        super().__init__(task, predictor, width, k, m)

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why the predictor fell back to a constant one, or None."""
        return getattr(self.predictor, "fallback_reason", None)

    def incertitude(self, method: str = "irp") -> float:
        """The incertitude of every prediction: the engine p-value at
        (m, k) for irp, the rank-based (k+1)/(m+1) for icp.  With k = 0
        (the typical regime under bounded noise) the irp incertitude is
        m^m/(m+1)^(m+1), roughly 0.37/m."""
        return _incertitude(method, self.m, self.k)

    def _check_task(self, task: str, method: str) -> None:
        if self.task != task:
            raise ValueError(f"{method} needs a {task} pipeline, not a {self.task} one")

    def interval_bounds(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """The bounds g(x) - h and g(x) + h of every row x of X, with h
        the proper-training residual half-width.

        Raises ValueError on a classification pipeline, and ValueError
        naming the first row (counted from 1) whose point prediction g(x)
        is not finite, as an overflow or a NaN feature makes it.
        """
        self._check_task("regression", "interval_bounds")
        return _interval_bounds(self.predictor.predict_batch(X), self.width)

    def label_sets(self, X) -> List[frozenset]:
        """The label set of every row x of X: the singleton of the score's
        sign outside the margin, both labels inside it.

        Raises ValueError on a regression pipeline, and ValueError naming
        the first row (counted from 1) whose score is NaN, as a NaN
        feature or an inf - inf overflow makes it: such a score is neither
        inside the margin nor signed.  A score of +-inf is outside the
        margin, as the single-class fallback's always is.
        """
        self._check_task("classification", "label_sets")
        scores = self.predictor.predict_batch(X)
        nan = np.isnan(scores)
        if nan.any():
            raise ValueError(
                f"invalid label set: test row {int(np.argmax(nan)) + 1}: score nan is not a number"
            )
        outside = np.abs(scores) > self.width
        signs = np.where(outside, np.where(scores > 0, 1, -1), 0)
        return [_LABEL_SETS[sign] for sign in signs.tolist()]

    def hedge(self, prediction_set: PredictionSet, method: str = "irp") -> HedgedPrediction:
        """prediction_set with the method's incertitude.  Both labels are
        flagged vacuous: the incertitude is still reported, but the set
        excludes no label."""
        return HedgedPrediction(prediction_set, self.incertitude(method), self.k, self.m)

    def predict(self, x, method: str = "irp") -> HedgedPrediction:
        """The hedged prediction for one test object x, from a one-row
        call of the batch set method."""
        X = np.asarray(x, dtype=np.float64)[np.newaxis]
        if self.task == "classification":
            (labels,) = self.label_sets(X)
            return self.hedge(labels, method)
        (lower,), (upper,) = self.interval_bounds(X)
        return self.hedge(Interval(lower, upper), method)


def _incertitude(method: str, m: int, k: int) -> float:
    """The incertitude at (m, k): the engine p-value for irp, the
    rank-based (k+1)/(m+1) for icp."""
    if method == "irp":
        return binary_irp_pvalue(m, k)
    if method == "icp":
        # int true division is correctly rounded: the float nearest the ratio
        return (k + 1) / (m + 1)
    raise ValueError(f"method must be 'irp' or 'icp', got {method!r}")


def _incertitudes(method: str, m: int, k: np.ndarray) -> np.ndarray:
    """_incertitude(method, m, k) at every entry of the 1-D int array k,
    from one call per distinct value."""
    distinct, inverse = np.unique(k, return_inverse=True)
    return np.array([_incertitude(method, m, j) for j in distinct.tolist()])[inverse]


def _regression_bits(y: np.ndarray, predictions: np.ndarray, proper_size: int):
    """The half-width h and the one-count k of the regression measure, over
    a leading axis: y and predictions are the labels and point
    predictions of the rows of one split, shape (n,), or of several,
    shape (splits, n).

    h is the largest of the first proper_size residuals |y - g(x)|, so
    every proper row conforms; a calibration bit is 1 iff its residual
    strictly exceeds h (a residual equal to h conforms).
    """
    residuals = np.abs(y - predictions)
    width = residuals[..., :proper_size].max(axis=-1)
    k = np.count_nonzero(residuals[..., proper_size:] > width[..., np.newaxis], axis=-1)
    return width, k


def _interval_bounds(center: np.ndarray, h) -> Tuple[np.ndarray, np.ndarray]:
    """The bounds center - h and center + h of the point predictions
    center, over a leading axis: center is (rows,) with a float h, or
    (splits, rows) with h of shape (splits, 1).  ValueError naming the
    first row (counted from 1, in the first split that has one) whose
    prediction is not finite."""
    finite = np.isfinite(center)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(
            f"invalid interval: test row {at[-1] + 1}: "
            f"point prediction {float(center[at])!r} is not finite"
        )
    # a finite center can still have a bound that overflows to +-inf
    with np.errstate(over="ignore"):
        return center - h, center + h


def _margin_bits(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The classification bits, as an int8 array: 1 iff the score asserts
    -y (the wrong class) with magnitude strictly above the margin.

    Correct classifications and anything inside the margin conform, as do
    exactly-zero scores (no class is asserted).  Every label must be
    exactly -1 or +1.
    """
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("classification labels must be -1 or +1")
    wrong_class = ((scores > 0) & (y == -1.0)) | ((scores < 0) & (y == 1.0))
    return (wrong_class & (np.abs(scores) > _MARGIN)).astype(np.int8)


def fit_regression_pipeline(
    split: DataSplit, predictor_spec: Optional[RegressorSpec] = None
) -> FittedPipeline:
    """Fit the regression measure on the split and score its calibration,
    in one prediction pass over all of its rows.

    The half-width and the calibration bits follow _regression_bits.  A
    degenerate design falls back to the mean-label predictor, recorded in
    its fallback_reason.
    """
    predictor = (predictor_spec or RegressorSpec()).build().fit(*split.proper)
    width, k = _regression_bits(split.y, predictor.predict_batch(split.X), split.proper_size)
    return FittedPipeline("regression", predictor, float(width), int(k), split.calibration_size)


def fit_classification_pipeline(
    split: DataSplit, classifier_spec: Optional[ClassifierSpec] = None
) -> FittedPipeline:
    """Fit the margin classifier on the proper part and score the
    calibration part.  A single-class proper part falls back to a
    constant classifier with infinite score, recorded in its
    fallback_reason."""
    classifier = (classifier_spec or ClassifierSpec()).build().fit(*split.proper)
    X, y = split.calibration
    k = int(np.count_nonzero(_margin_bits(classifier.predict_batch(X), y)))
    return FittedPipeline("classification", classifier, _MARGIN, k, len(y))


def prediction_set(prediction: HedgedPrediction, epsilon: float) -> PredictionSet:
    """The level-epsilon prediction set {y : f(y) > epsilon}, where f is
    the prediction's p-function: 1 on the conforming set, the incertitude
    elsewhere.

    That is the conforming set when the incertitude is at most epsilon
    (the boundary value epsilon is not strictly greater, so non-members
    drop out), and the whole label space otherwise.
    """
    level = _real(epsilon)
    if not 0.0 < level < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    conforming = prediction.prediction_set
    if _keeps_conforming_set(prediction.incertitude, level):
        return conforming
    return FULL_LINE if isinstance(conforming, Interval) else ALL_LABELS


def _keeps_conforming_set(incertitude, epsilon: float):
    """Whether the level-epsilon set is the conforming set, elementwise
    over an array of incertitudes: iff the incertitude is at most
    epsilon.  Elsewhere it is the whole label space."""
    return incertitude <= epsilon


def _level_set_bounds(lower, upper, incertitude, epsilon: float):
    """The bounds of the level-epsilon sets of intervals [lower, upper]
    with their incertitudes, all arrays of one shape: prediction_set's
    rule, with FULL_LINE's bounds where the set is the whole line."""
    keep = _keeps_conforming_set(incertitude, epsilon)
    return np.where(keep, lower, FULL_LINE.lower), np.where(keep, upper, FULL_LINE.upper)
