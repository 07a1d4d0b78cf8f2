"""Binary nonconformity measures.

Both measures score a fresh example against state fitted on the proper
training sequence alone and emit a bit: 1 means nonconforming.  The
regression measure flags residuals that strictly exceed the largest
proper-training residual; the margin measure flags confident
misclassifications (wrong class, outside the margin).

Measures are fitted on arrays, and ``score_*_batch`` scores a whole
array of examples in one pass; one example is a one-row array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import xy_arrays
from .predictors import (
    HingeLossLinearClassifier,
    LeastSquaresRegressor,
    MeanRegressor,
    PointPredictor,
)

__all__ = [
    "RegressorSpec",
    "ClassifierSpec",
    "FittedRegressionMeasure",
    "FittedMarginMeasure",
    "fit_regression_measure",
    "fit_margin_measure",
    "score_regression_batch",
    "score_margin_batch",
]


@dataclass(frozen=True)
class RegressorSpec:
    """Configuration for the regression point predictor."""

    kind: str = "least_squares"

    def __post_init__(self):
        if self.kind not in ("least_squares", "mean"):
            raise ValueError(f"unknown regressor kind {self.kind!r}")

    def build(self) -> PointPredictor:
        if self.kind == "mean":
            return MeanRegressor()
        return LeastSquaresRegressor()


@dataclass(frozen=True)
class ClassifierSpec:
    """Configuration for the margin classifier, checked when it is made:
    a setting HingeLossLinearClassifier rejects raises ValueError here."""

    kind: str = "hinge"
    learning_rate: float = 0.5
    epochs: int = 200
    l2: float = 1e-3
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind != "hinge":
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        self.build()  # the classifier checks its own settings

    def build(self) -> PointPredictor:
        return HingeLossLinearClassifier(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            l2=self.l2,
            seed=self.seed,
        )


@dataclass(frozen=True)
class FittedRegressionMeasure:
    """Fitted regressor plus the half-width of its training residual band.

    half_width is the largest absolute residual on the proper training
    sequence, so every proper-training example conforms under its own
    measure.
    """

    predictor: PointPredictor
    half_width: float
    fallback_reason: Optional[str] = None

    def __post_init__(self):
        if not self.half_width >= 0:
            raise ValueError(f"half_width must be nonnegative, got {self.half_width!r}")


@dataclass(frozen=True)
class FittedMarginMeasure:
    """Fitted margin classifier; a score is outside the margin iff its
    magnitude strictly exceeds margin_width."""

    classifier: PointPredictor
    margin_width: float
    fallback_reason: Optional[str] = None

    def __post_init__(self):
        if not self.margin_width > 0:
            raise ValueError(f"margin_width must be positive, got {self.margin_width!r}")


def _nonconforming(residuals: np.ndarray, half_width: float) -> np.ndarray:
    """The regression bits, as an int8 array: 1 iff the residual strictly
    exceeds half_width."""
    return (residuals > half_width).astype(np.int8)


def _fit_regression(
    X: np.ndarray, y: np.ndarray, proper_size: int, predictor_spec: Optional[RegressorSpec]
) -> Tuple[FittedRegressionMeasure, np.ndarray, np.ndarray]:
    """The measure fitted on the first proper_size rows of the checked
    arrays X and y, the bits of the rows of y after them, and the point
    predictions of the rows of X past the end of y (unlabelled test rows),
    from one predict_batch pass over all rows of X.  A prediction does
    not depend on the other rows of its batch, so the values are those of
    separate passes."""
    spec = predictor_spec or RegressorSpec()
    predictor = spec.build().fit(X[:proper_size], y[:proper_size])
    predictions = predictor.predict_batch(X)
    residuals = np.abs(y - predictions[: len(y)])
    measure = FittedRegressionMeasure(
        predictor=predictor,
        half_width=float(residuals[:proper_size].max()),
        fallback_reason=getattr(predictor, "fallback_reason", None),
    )
    bits = _nonconforming(residuals[proper_size:], measure.half_width)
    return measure, bits, predictions[len(y) :]


def fit_regression_measure(
    X, y, predictor_spec: Optional[RegressorSpec] = None
) -> FittedRegressionMeasure:
    """Fit the regression measure on the proper training arrays.

    Trains the point predictor on the proper part only, then sets
    half_width = max_i |y_i - g(x_i)| over that same part, in one batch
    pass.  A degenerate design falls back to the mean-label predictor,
    recorded in fallback_reason.
    """
    X, y = xy_arrays(X, y)
    return _fit_regression(X, y, len(y), predictor_spec)[0]


def fit_margin_measure(
    X, y, classifier_spec: Optional[ClassifierSpec] = None
) -> FittedMarginMeasure:
    """Fit the margin measure on the proper training arrays.

    The reference classifier scores with the raw affine output, so the
    functional margin is 1 in score units.  A single-class proper part
    falls back to a constant classifier with infinite score, recorded in
    fallback_reason.
    """
    spec = classifier_spec or ClassifierSpec()
    classifier = spec.build().fit(X, y)
    return FittedMarginMeasure(
        classifier=classifier,
        margin_width=1.0,
        fallback_reason=getattr(classifier, "fallback_reason", None),
    )


def _batch_arrays(X, y):
    X, y = xy_arrays(X, y)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and labels must be finite")
    return X, y


def score_regression_batch(measure: FittedRegressionMeasure, X, y) -> np.ndarray:
    """The bit of every row of (X, y), as an int8 array: 1 iff
    |y - g(x)| strictly exceeds half_width.

    A residual exactly equal to half_width conforms: the boundary is
    sharp and belongs to the conforming side.
    """
    X, y = _batch_arrays(X, y)
    residuals = np.abs(y - measure.predictor.predict_batch(X))
    return _nonconforming(residuals, measure.half_width)


def score_margin_batch(measure: FittedMarginMeasure, X, y) -> np.ndarray:
    """The bit of every row of (X, y), as an int8 array: 1 iff x is
    classified as -y with |score| > margin_width.

    Correct classifications and anything inside the margin conform, as
    do exactly-zero scores (no class is asserted).  Every label must be
    exactly -1 or +1.
    """
    X, y = _batch_arrays(X, y)
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("classification labels must be -1 or +1")
    scores = measure.classifier.predict_batch(X)
    wrong_class = ((scores > 0) & (y == -1.0)) | ((scores < 0) & (y == 1.0))
    return (wrong_class & (np.abs(scores) > measure.margin_width)).astype(np.int8)
