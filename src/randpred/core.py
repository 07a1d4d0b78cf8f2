"""Shared domain types: train/calibration splits and hedged prediction
sets, and the exact oracle's calibration-size cap.

All types are records (the records module): immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from .pvalues import _integer, _real, _value_error
from .records import Record

__all__ = [
    "EXACT_M_LIMIT",
    "DataSplit",
    "Interval",
    "FULL_LINE",
    "ALL_LABELS",
    "HedgedPrediction",
]

# The largest m of the exact audits (urp_binary_event enumerates 2^(m+1)
# outcomes, and every audit maximizes a polynomial of degree m + 1).  Here, not
# in the audits module, because the CLI bounds `dominate --m` by it when
# it is imported, before any audit runs.
EXACT_M_LIMIT = 20


def xy_arrays(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """X and y as float64 arrays, checked to have shapes (n, d) and (n,)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ValueError(
            f"expected X of shape (n, d) and y of shape (n,), got {X.shape} and {y.shape}"
        )
    return X, y


def _size_type_error(size) -> TypeError:
    return TypeError(f"proper_size must be an int, got {type(size).__name__}")


class DataSplit(Record):
    """A training sequence split into a proper part (fits the point
    predictor) and a calibration part (drives the p-value).

    The sequence is held as arrays: ``X`` is the (n, d) feature matrix and
    ``y`` the n labels, in order; the first ``proper_size`` rows are the
    proper part.  Both are float64 copies, checked once here (finite, and
    both parts nonempty) and read-only afterwards.  Two splits are equal
    only if they are the same object.
    """

    __slots__ = ("X", "y", "proper_size")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, X: np.ndarray, y: np.ndarray, proper_size: int):
        proper_size = _integer(proper_size, -math.inf, math.inf, _size_type_error)
        # np.array copies, so freezing X and y below leaves the caller's arrays writable.
        X = np.array(X, dtype=np.float64)
        y = np.array(y, dtype=np.float64)
        X, y = xy_arrays(X, y)
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("features and labels must be finite")
        if not 1 <= proper_size <= len(X) - 1:
            raise ValueError(
                "both proper and calibration parts need at least one example "
                f"(got {proper_size} and {len(X) - proper_size})"
            )
        X.setflags(write=False)
        y.setflags(write=False)
        super().__init__(X, y, proper_size)

    @property
    def proper(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, y) of the proper training part."""
        return self.X[: self.proper_size], self.y[: self.proper_size]

    @property
    def calibration(self) -> Tuple[np.ndarray, np.ndarray]:
        """(X, y) of the calibration part."""
        return self.X[self.proper_size :], self.y[self.proper_size :]

    @property
    def calibration_size(self) -> int:
        return len(self.y) - self.proper_size

    @property
    def total_size(self) -> int:
        return len(self.y)


class Interval(Record):
    """A closed real interval; endpoints may be infinite."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        lo, hi = _real(lower), _real(upper)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval [{lower!r}, {upper!r}]")
        super().__init__(lo, hi)

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


FULL_LINE = Interval(-math.inf, math.inf)

ALL_LABELS = frozenset({-1, 1})

PredictionSet = Union[Interval, frozenset]


_set_error = _value_error("prediction_set must be an Interval or a nonempty frozenset of -1 and 1")
_m_field_error = _value_error("m must be None or a positive integer")
_k_field_error = _value_error("k must be None or an integer from 0 to m")


class HedgedPrediction(Record):
    """A prediction set together with its incertitude.

    The induced prediction p-function takes the value 1 on the set and the
    incertitude elsewhere.  Incertitude 1 marks the degenerate case where
    every label conforms; it is allowed but flagged.  A vacuous prediction
    (both labels, as for a classification test object inside the margin)
    keeps its computed incertitude but excludes no label.  Both flags are
    read from the fields.  The set is an Interval or a nonempty frozenset
    of the labels -1 and +1.  k and m, the calibration one-count and size
    behind the incertitude, are each None or an int, with m >= 1 and
    0 <= k <= m.
    """

    __slots__ = ("prediction_set", "incertitude", "k", "m")

    def __init__(
        self, prediction_set: PredictionSet, incertitude: float, k: int = None, m: int = None
    ):
        labels = isinstance(prediction_set, frozenset) and prediction_set
        if not (isinstance(prediction_set, Interval) or labels and labels <= ALL_LABELS):
            raise _set_error(prediction_set)
        value = _real(incertitude)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"incertitude must lie in [0, 1], got {incertitude!r}")
        if m is not None:
            m = _integer(m, 1, math.inf, _m_field_error)
        if k is not None:
            k = _integer(k, 0, math.inf if m is None else m, _k_field_error)
        super().__init__(prediction_set, value, k, m)

    @property
    def degenerate(self) -> bool:
        return self.incertitude == 1.0

    @property
    def vacuous(self) -> bool:
        return self.prediction_set == ALL_LABELS

    def contains(self, y: float) -> bool:
        s = self.prediction_set
        if isinstance(s, Interval):
            return s.contains(y)
        return y in s
