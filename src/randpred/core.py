"""Shared domain types: train/calibration splits and hedged prediction
sets, and the exact oracle's calibration-size cap.

All types are records (the records module): immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from .records import Record

__all__ = [
    "EXACT_M_LIMIT",
    "DataSplit",
    "Interval",
    "FULL_LINE",
    "ALL_LABELS",
    "HedgedPrediction",
]

# The largest m the exact audits enumerate (2^(m+1) outcomes).  Here, not
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
        if not isinstance(proper_size, (int, np.integer)):
            raise TypeError(f"proper_size must be an int, got {type(proper_size).__name__}")
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
        super().__init__(X, y, int(proper_size))

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
        lo, hi = float(lower), float(upper)
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


class HedgedPrediction(Record):
    """A prediction set together with its incertitude.

    The induced prediction p-function takes the value 1 on the set and the
    incertitude elsewhere.  Incertitude 1 marks the degenerate case where
    every label conforms; it is allowed but flagged.  A vacuous prediction
    (classification test object inside the margin) keeps its computed
    incertitude but excludes no label.
    """

    __slots__ = ("prediction_set", "incertitude", "degenerate", "vacuous", "k", "m")

    def __init__(
        self,
        prediction_set: PredictionSet,
        incertitude: float,
        degenerate: bool = False,
        vacuous: bool = False,
        k: int = None,
        m: int = None,
    ):
        c = float(incertitude)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"incertitude must lie in [0, 1], got {incertitude!r}")
        super().__init__(prediction_set, c, c == 1.0 or degenerate, vacuous, k, m)

    def contains(self, y: float) -> bool:
        s = self.prediction_set
        if isinstance(s, Interval):
            return s.contains(y)
        return y in s
