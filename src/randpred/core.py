"""Shared domain types: train/calibration splits and hedged prediction
sets, and the exact oracle's calibration-size cap.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

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


@dataclass(frozen=True, eq=False)
class DataSplit:
    """A training sequence split into a proper part (fits the point
    predictor) and a calibration part (drives the p-value).

    The sequence is held as arrays: ``X`` is the (n, d) feature matrix and
    ``y`` the n labels, in order; the first ``proper_size`` rows are the
    proper part.  Both are float64 copies, checked once here (finite, and
    both parts nonempty) and read-only afterwards.
    """

    X: np.ndarray
    y: np.ndarray
    proper_size: int

    def __post_init__(self):
        if not isinstance(self.proper_size, (int, np.integer)):
            raise TypeError(
                f"proper_size must be an int, got {type(self.proper_size).__name__}"
            )
        # np.array copies, so freezing X and y below leaves the caller's arrays writable.
        X = np.array(self.X, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        X, y = xy_arrays(X, y)
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("features and labels must be finite")
        if not 1 <= self.proper_size <= len(X) - 1:
            raise ValueError(
                "both proper and calibration parts need at least one example "
                f"(got {self.proper_size} and {len(X) - self.proper_size})"
            )
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "proper_size", int(self.proper_size))

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


@dataclass(frozen=True)
class Interval:
    """A closed real interval; endpoints may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval [{self.lower!r}, {self.upper!r}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


FULL_LINE = Interval(-math.inf, math.inf)

ALL_LABELS = frozenset({-1, 1})

PredictionSet = Union[Interval, frozenset]


@dataclass(frozen=True)
class HedgedPrediction:
    """A prediction set together with its incertitude.

    The induced prediction p-function takes the value 1 on the set and the
    incertitude elsewhere.  Incertitude 1 marks the degenerate case where
    every label conforms; it is allowed but flagged.  A vacuous prediction
    (classification test object inside the margin) keeps its computed
    incertitude but excludes no label.
    """

    prediction_set: PredictionSet
    incertitude: float
    degenerate: bool = False
    vacuous: bool = False
    k: int = None
    m: int = None

    def __post_init__(self):
        c = float(self.incertitude)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"incertitude must lie in [0, 1], got {self.incertitude!r}")
        object.__setattr__(self, "incertitude", c)
        if c == 1.0:
            object.__setattr__(self, "degenerate", True)

    def contains(self, y: float) -> bool:
        s = self.prediction_set
        if isinstance(s, Interval):
            return s.contains(y)
        return y in s
