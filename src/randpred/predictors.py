"""Reference point predictors.

The nonconformity measures treat the point predictor as a black box with a
``fit(X, y)`` / ``predict_batch(X)`` surface, so anything honouring that
protocol can be plugged in.  Two deterministic references are provided:
ordinary least squares for regression and a hinge-loss linear classifier
for binary classification.

The linear predictors evaluate w.x + b in one fixed order, column by
column with the intercept last, one IEEE operation per step.  A row's
prediction is therefore the same whichever batch it is in, and equals the
plain Python-float sum taken in that order; a BLAS matrix-vector product
promises no such order.  The rule (_affine_batch) also takes a stack of
batches, each with its own (w, b): the Monte Carlo harness predicts the
trials of a block in one pass of it, from each fitted least-squares
predictor's affine_map.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .core import _real, xy_arrays
from .pvalues import _integer, _value_error

__all__ = [
    "PointPredictor",
    "LeastSquaresRegressor",
    "MeanRegressor",
    "HingeLossLinearClassifier",
    "ConstantClassifier",
]


@runtime_checkable
class PointPredictor(Protocol):
    """Protocol for pluggable point predictors.

    ``fit`` takes an (n, d) feature array and n labels.  ``predict_batch``
    maps an (n, d) array to n predictions; it must be deterministic given
    the fitted state, and row i's prediction must not depend on the other
    rows.  The fitted state must not change after ``fit`` returns.
    """

    def fit(self, X, y) -> "PointPredictor": ...

    def predict_batch(self, X) -> np.ndarray: ...


def _training_arrays(X, y):
    """X and y as float64 arrays of shapes (n, d) and (n,), n >= 1."""
    X, y = xy_arrays(X, y)
    if len(y) == 0:
        raise ValueError("cannot fit on an empty training sequence")
    return X, y


def _feature_array(X, width: int) -> np.ndarray:
    """X as a float64 array of shape (n, width), or ValueError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"expected X of shape (n, {width}), got {X.shape}")
    return X


def _affine_batch(coef, intercept, X: np.ndarray) -> np.ndarray:
    """sum_j coef[..., j] * X[..., j], then + intercept, for every row of X.

    X is an (..., n, d) float64 array, and coef[..., j] and intercept
    broadcast against X[..., j]: d floats and a float are one affine map
    for all of X; (stack, 1, d) and (stack, 1) arrays are one map per
    (n, d) slice of a (stack, n, d) X.  Every element takes the same IEEE
    operations in the same order either way, so a row's value is the same
    alone, in its batch or in a stack of batches.  A row that overflows
    gives +-inf, or NaN from inf - inf, without a warning: the caller
    decides what a non-finite prediction means.
    """
    coef = np.asarray(coef, dtype=np.float64)
    total = np.zeros(X.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(X.shape[-1]):
            total += coef[..., j] * X[..., j]
        return total + intercept


def _mean(y: np.ndarray) -> float:
    """The mean of the finite labels y, always finite: np.mean's value
    wherever that is finite.  Where the sum overflows, the sum of y / 2n,
    doubled and kept within [min y, max y] (where the mean lies)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(y))
    if math.isfinite(mean):
        return mean
    # each term is at most max|y| / 2n, so no partial sum overflows
    mean = 2.0 * float(np.sum(y / (2 * len(y))))
    return min(max(mean, float(y.min())), float(y.max()))


class MeanRegressor:
    """Constant predictor returning the mean training label.

    It answers rows of the width it was fitted on, as the linear
    predictors do.
    """

    def __init__(self):
        self._mean = None
        self._width = None

    def fit(self, X, y):
        X, y = _training_arrays(X, y)
        self._mean = _mean(y)
        self._width = X.shape[1]
        return self

    def predict_batch(self, X) -> np.ndarray:
        if self._mean is None:
            raise RuntimeError("predictor is not fitted")
        return np.full(len(_feature_array(X, self._width)), self._mean)


class LeastSquaresRegressor:
    """Ordinary least squares with an intercept.

    A rank-deficient design matrix (too few rows, collinear features) falls
    back to the mean-label constant predictor; ``fallback_reason`` records
    when that happened.  The rank is the one ``lstsq`` reports, which
    counts singular values above eps * max(n, d + 1) * sigma_max, the
    ``matrix_rank`` default.
    """

    def __init__(self):
        self._coef = None
        self._intercept = None
        self._fallback = None
        self.fallback_reason = None

    def fit(self, X, y):
        # a refit keeps nothing of an earlier fit, its fallback included
        self._coef = self._intercept = self._fallback = self.fallback_reason = None
        X, y = _training_arrays(X, y)
        design = np.empty((len(y), X.shape[1] + 1))
        design[:, :-1] = X
        design[:, -1] = 1.0
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            self._fallback = MeanRegressor().fit(X, y)
            self.fallback_reason = (
                f"rank-deficient design (rank {rank} < {design.shape[1]}); "
                "using the mean-label constant predictor"
            )
            return self
        self._coef = tuple(beta[:-1].tolist())
        self._intercept = float(beta[-1])
        return self

    @property
    def affine_map(self):
        """The fitted (coefficients, intercept), a tuple of floats and a
        float, that predict_batch applies to every row; None before a fit
        and after the rank fallback."""
        return None if self._coef is None else (self._coef, self._intercept)

    def predict_batch(self, X) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.predict_batch(X)
        if self._coef is None:
            raise RuntimeError("predictor is not fitted")
        return _affine_batch(self._coef, self._intercept, _feature_array(X, len(self._coef)))


class ConstantClassifier:
    """Degenerate classifier that always predicts one class with an
    infinite margin score.  Used as the single-class fallback.

    The label is fixed at construction, so it predicts unfitted, on rows
    of any width; once fitted it answers rows of the fitted width only.
    """

    def __init__(self, label: int):
        if label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {label!r}")
        self._score = math.inf if label > 0 else -math.inf
        self._width = None

    def fit(self, X, y):
        self._width = _training_arrays(X, y)[0].shape[1]
        return self

    def predict_batch(self, X) -> np.ndarray:
        if self._width is not None:
            X = _feature_array(X, self._width)
        return np.full(len(X), self._score)


class HingeLossLinearClassifier:
    """Large-margin linear classifier trained by full-batch hinge-loss
    subgradient descent for a fixed number of epochs.

    The score is the raw affine output w.x + b, so the functional margin is
    1 in score units.  Zero initialization keeps training deterministic; a
    seed switches to small random initial weights.  Training on a
    single-class sequence falls back to :class:`ConstantClassifier`.
    """

    def __init__(self, learning_rate=0.5, epochs=200, l2=1e-3, seed=None):
        rate = _real(learning_rate)
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
        epochs = _integer(epochs, 1, math.inf, _value_error("epochs must be an int of at least 1"))
        penalty = _real(l2)
        if not (penalty >= 0 and math.isfinite(penalty)):
            raise ValueError(f"l2 must be nonnegative and finite, got {l2!r}")
        if seed is not None:
            seed = _integer(
                seed, 0, math.inf, _value_error("seed must be None or a nonnegative integer")
            )
        self.learning_rate = rate
        self.epochs = epochs
        self.l2 = penalty
        self.seed = seed
        self._weights = None
        self._bias = None
        self._fallback = None
        self.fallback_reason = None

    def fit(self, X, y):
        # a refit keeps nothing of an earlier fit, its fallback included
        self._weights = self._bias = self._fallback = self.fallback_reason = None
        X, y = _training_arrays(X, y)
        bad = (y != 1.0) & (y != -1.0)
        if bad.any():
            raise ValueError(
                "classification labels must be -1 or +1, got "
                f"{np.unique(y[bad]).tolist()}"
            )
        if (y == y[0]).all():
            only = int(y[0])
            self._fallback = ConstantClassifier(only).fit(X, y)
            self.fallback_reason = (
                f"single-class training sequence (all labels {only:+d}); "
                "using a constant classifier with infinite margin score"
            )
            return self

        n, d = X.shape
        if self.seed is None:
            w = np.zeros(d)
        else:
            w = 0.01 * np.random.default_rng(self.seed).standard_normal(d)
        b = 0.0
        # Row i of yX is y[i] * X[i], the same products the subgradient
        # took per epoch, so hoisting them leaves every sum bit-identical.
        # compress builds the array that yX[violating] builds, and einsum
        # sums its columns in row order as .sum(axis=0) does, only without
        # re-entering a loop per row; the sum of the violating labels, each
        # +-1, is the exact integer 2 * (violating positives) - (violating
        # rows).  The margin and mask buffers take the same IEEE operations
        # as y * (X @ w + b) < 1.0, in place.
        yX = y[:, None] * X
        positive = y > 0.0
        margins = np.empty(n)
        violating = np.empty(n, dtype=bool)
        for _ in range(self.epochs):
            np.matmul(X, w, out=margins)
            margins += b
            margins *= y
            np.less(margins, 1.0, out=violating)
            grad_w = self.l2 * w
            grad_b = 0.0
            violations = np.count_nonzero(violating)
            if violations:
                picked = np.compress(violating, yX, axis=0)
                # one column is a contiguous reduction, which .sum(axis=0)
                # adds pairwise and einsum would not: keep the sum there
                total = picked.sum(axis=0) if d == 1 else np.einsum("ij->j", picked)
                grad_w = grad_w - total / n
                positives = np.count_nonzero(violating & positive)
                grad_b = -(2 * positives - violations) / n
            w = w - self.learning_rate * grad_w
            b = b - self.learning_rate * grad_b
        self._weights = tuple(w.tolist())
        self._bias = float(b)
        return self

    def predict_batch(self, X) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.predict_batch(X)
        if self._weights is None:
            raise RuntimeError("classifier is not fitted")
        return _affine_batch(self._weights, self._bias, _feature_array(X, len(self._weights)))
