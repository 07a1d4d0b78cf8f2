"""Reference point predictors.

The nonconformity measures treat the point predictor as a black box with a
``fit(X, y)`` / ``predict_batch(X)`` surface, so anything honouring that
protocol can be plugged in.  Four deterministic references are provided,
on two private bases that hold every fitted-state rule once:

- _Affine: a fitted map (w, b) or a constant fallback with its
  fallback_reason, the affine_map property and one predict_batch.
  Ordinary least squares for regression (LeastSquaresRegressor) and a
  hinge-loss linear classifier for binary classification
  (HingeLossLinearClassifier) share it; each writes only its own fit.
  The least-squares fit is its design (_design: the features and a
  column of ones) and one rule (_least_squares: one lstsq call, whose
  solution is None below full rank), which the Monte Carlo harness
  applies to the trials of a staged part without building a predictor.
- _Constant: one value for every row of the fitted width.  The mean-label
  regressor (MeanRegressor) and the infinite-margin classifier
  (ConstantClassifier) share it; they are the two fallbacks.

The linear predictors evaluate w.x + b in one fixed order, column by
column with the intercept last, one IEEE operation per step.  A row's
prediction is therefore the same whichever batch it is in, and equals the
plain Python-float sum taken in that order; a BLAS matrix-vector product
promises no such order.  The rule (_affine_batch) also takes a stack of
batches, each with its own (w, b): the Monte Carlo harness predicts the
trials of a staged part in one pass of it, from each trial's
least-squares solution.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .core import xy_arrays
from .pvalues import _integer, _real, _value_error

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


class _Constant:
    """A predictor of one value for every row.

    It answers rows of the width it was fitted on, as the linear
    predictors do; unfitted, it answers rows of any width if its value is
    fixed at construction, and raises RuntimeError if not.
    """

    def __init__(self, value=None):
        self._value = value
        self._width = None

    def predict_batch(self, X) -> np.ndarray:
        if self._value is None:
            raise RuntimeError("predictor is not fitted")
        if self._width is not None:
            X = _feature_array(X, self._width)
        return np.full(len(X), self._value)


class MeanRegressor(_Constant):
    """Constant predictor returning the mean training label."""

    def fit(self, X, y):
        X, y = _training_arrays(X, y)
        self._value = _mean(y)
        self._width = X.shape[1]
        return self


class ConstantClassifier(_Constant):
    """Degenerate classifier that always predicts one class with an
    infinite margin score.  Used as the single-class fallback.

    The label is fixed at construction, so it predicts unfitted, on rows
    of any width; once fitted it answers rows of the fitted width only.
    """

    def __init__(self, label: int):
        error = _value_error("label must be -1 or +1")
        label = _integer(label, -1, 1, error)
        if label == 0:
            raise error(label)
        super().__init__(math.inf if label > 0 else -math.inf)

    def fit(self, X, y):
        self._width = _training_arrays(X, y)[0].shape[1]
        return self


class _Affine:
    """A predictor of w.x + b, whose fit sets the map (w, b) or falls back
    to a constant predictor, recorded in fallback_reason.

    A refit keeps nothing of an earlier fit, its fallback included.
    """

    def _clear(self):
        """Forget any fit: a new predictor and every fit start here."""
        self._fall_back(None, None)

    __init__ = _clear

    def _fall_back(self, predictor, reason):
        """Predict by predictor, the fitted constant one, with no affine
        map, and say why in fallback_reason; with neither, the predictor
        is unfitted."""
        self._map, self._fallback, self.fallback_reason = None, predictor, reason
        return self

    @property
    def affine_map(self):
        """The fitted (coefficients, intercept), a tuple of floats and a
        float, that predict_batch applies to every row; None before a fit
        and after a fallback."""
        return self._map

    def predict_batch(self, X) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.predict_batch(X)
        if self._map is None:
            raise RuntimeError("predictor is not fitted")
        coef, intercept = self._map
        return _affine_batch(coef, intercept, _feature_array(X, len(coef)))


def _design(X: np.ndarray) -> np.ndarray:
    """The least-squares design of (..., n, d) features over any leading
    axes: a new C-contiguous (..., n, d + 1) array, each row its features
    and then 1.0 for the intercept."""
    design = np.empty(X.shape[:-1] + (X.shape[-1] + 1,))
    design[..., :-1] = X
    design[..., -1] = 1.0
    return design


def _least_squares(design: np.ndarray, y: np.ndarray):
    """The least-squares rule: (solution, rank) of y on an (n, d + 1)
    design.  The solution is the d + 1 floats of lstsq, the coefficients
    and then the intercept, or None when the rank lstsq reports is below
    d + 1."""
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return (None if rank < design.shape[1] else solution), rank


class LeastSquaresRegressor(_Affine):
    """Ordinary least squares with an intercept.

    A rank-deficient design matrix (too few rows, collinear features) falls
    back to the mean-label constant predictor.  The rank is the one
    ``lstsq`` reports, which counts singular values above
    eps * max(n, d + 1) * sigma_max, the ``matrix_rank`` default.
    """

    def fit(self, X, y):
        self._clear()
        X, y = _training_arrays(X, y)
        design = _design(X)
        solution, rank = _least_squares(design, y)
        if solution is None:
            return self._fall_back(
                MeanRegressor().fit(X, y),
                f"rank-deficient design (rank {rank} < {design.shape[1]}); "
                "using the mean-label constant predictor",
            )
        self._map = (tuple(solution[:-1].tolist()), float(solution[-1]))
        return self


class HingeLossLinearClassifier(_Affine):
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
        self._clear()

    def fit(self, X, y):
        self._clear()
        X, y = _training_arrays(X, y)
        bad = (y != 1.0) & (y != -1.0)
        if bad.any():
            raise ValueError(
                "classification labels must be -1 or +1, got "
                f"{np.unique(y[bad]).tolist()}"
            )
        if (y == y[0]).all():
            only = int(y[0])
            return self._fall_back(
                ConstantClassifier(only).fit(X, y),
                f"single-class training sequence (all labels {only:+d}); "
                "using a constant classifier with infinite margin score",
            )

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
        self._map = (tuple(w.tolist()), float(b))
        return self
