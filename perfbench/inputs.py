"""Seeded inputs for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng(seed)`` only, so one
seed always yields byte-identical files.  CSV cells are written with
``%.17g``, which round-trips every float64 exactly: the program parses the
very arrays the reference checks use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# The plastic number; (1/g, 1/g^2) is the R2 Kronecker lattice step, the
# most even low-discrepancy rank-1 lattice in two dimensions.
_PLASTIC = 1.324717957244746

# The p-value stream: STREAM_QUERIES pairs, SMALL_K_SHARE of them with k in
# {0, 1, 2}, m log-uniform over 10^STREAM_LOG10_M and k/m log-uniform over
# 10^STREAM_LOG10_RATIO.  The m span must be the wider of the two.
STREAM_QUERIES = 1000
SMALL_K_SHARE = 0.4
STREAM_LOG10_M = (1.0, 6.0)
STREAM_LOG10_RATIO = (-4.0, -2.5)

# Both datasets: uniform features on [-1, 1]^FEATURES.  Regression noise is
# uniform on +-NOISE_HALF_WIDTH; FLIP_RATE of the class labels are flipped.
FEATURES = 5
NOISE_HALF_WIDTH = 0.25
FLIP_RATE = 0.02


@dataclass(frozen=True)
class RegressionSizes:
    train_rows: int = 2000
    split_at: int = 1000
    test_rows: int = 30_000


@dataclass(frozen=True)
class ClassificationSizes:
    train_rows: int = 25_000
    split_at: int = 12_500
    test_rows: int = 250


@dataclass(frozen=True)
class Dataset:
    """Generated arrays plus the CSV files written from them."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    split_at: int
    train_csv: Path
    test_csv: Path


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(x.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def _dataset(directory: Path, split_at, train_x, train_y, test_x, test_y) -> Dataset:
    directory.mkdir(parents=True, exist_ok=True)
    train_csv, test_csv = directory / "train.csv", directory / "test.csv"
    _write_csv(train_csv, train_x, train_y)
    _write_csv(test_csv, test_x, test_y)
    return Dataset(train_x, train_y, test_x, test_y, split_at, train_csv, test_csv)


def regression_dataset(seed: int, directory: Path,
                       sizes: RegressionSizes = RegressionSizes()) -> Dataset:
    """Uniform features, a random linear signal, uniform bounded noise."""
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-2.0, 2.0, FEATURES)
    intercept = rng.uniform(-1.0, 1.0)
    rows = sizes.train_rows + sizes.test_rows
    x = rng.uniform(-1.0, 1.0, (rows, FEATURES))
    noise = rng.uniform(-NOISE_HALF_WIDTH, NOISE_HALF_WIDTH, rows)
    y = x @ coef + intercept + noise
    n = sizes.train_rows
    return _dataset(directory, sizes.split_at, x[:n], y[:n], x[n:], y[n:])


def test_chunks(data: Dataset, parts: int) -> list:
    """data once per part of its test rows, each part in a file of its own."""
    chunks = []
    for i, (x, y) in enumerate(zip(np.array_split(data.test_x, parts),
                                   np.array_split(data.test_y, parts))):
        path = data.test_csv.with_name(f"test{i}.csv")
        _write_csv(path, x, y)
        chunks.append(replace(data, test_x=x, test_y=y, test_csv=path))
    return chunks


def classification_dataset(seed: int, directory: Path,
                           sizes: ClassificationSizes = ClassificationSizes()) -> Dataset:
    """Labels of a random hyperplane, a share of them flipped at random.

    Flipped rows far from the hyperplane are confident misclassifications,
    so the calibration one-count k is well above zero.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=FEATURES)
    b = rng.uniform(-0.2, 0.2)
    rows = sizes.train_rows + sizes.test_rows
    x = rng.uniform(-1.0, 1.0, (rows, FEATURES))
    y = np.where(x @ w + b >= 0.0, 1.0, -1.0)
    y[rng.random(rows) < FLIP_RATE] *= -1.0
    n = sizes.train_rows
    return _dataset(directory, sizes.split_at, x[:n], y[:n], x[n:], y[n:])


def _lattice(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points of the R2 lattice in [0, 1)^2 under a seeded random shift:
    evenly spread whatever the seed."""
    step = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])
    return (rng.random(2) + np.arange(1, n + 1)[:, None] * step) % 1.0


def _sum_of_uniforms(t: float, a: float, b: float) -> float:
    """Inverse CDF at t of U(0, a) + U(0, b), for a >= b > 0 (a trapezoid)."""
    if t <= b / (2 * a):
        return (2 * a * b * t) ** 0.5
    if t <= 1 - b / (2 * a):
        return a * t + b / 2
    return a + b - (2 * a * b * (1 - t)) ** 0.5


def pvalue_stream(seed: int) -> list:
    """Distinct (m, k) pairs with m log-uniform over STREAM_LOG10_M.

    A SMALL_K_SHARE of them have k in {0, 1, 2}; the rest have k/m
    log-uniform over STREAM_LOG10_RATIO, independent of m.  Those are drawn
    through log10 k first, the sum of the two log-uniform exponents taken
    at the midpoints of equal-probability strata, and log10 m given log10 k
    second, at random.  The cost of a query grows with k and hardly
    depends on m, so every seed gives a stream of the same cost and the
    same slowest queries, while the pairs themselves differ.  Returned in
    seeded random order.
    """
    rng = np.random.default_rng(seed)
    small = int(round(STREAM_QUERIES * SMALL_K_SHARE))
    big = STREAM_QUERIES - small
    lo, hi = STREAM_LOG10_M
    rlo, rhi = STREAM_LOG10_RATIO
    a, b = hi - lo, rhi - rlo
    pairs = []
    for u, v in _lattice(rng, small):
        pairs.append((int(round(10 ** (lo + a * u))), int(3 * v)))
    for t, w in zip((np.arange(big) + 0.5) / big, rng.random(big)):
        s = _sum_of_uniforms(t, a, b)
        log_m = max(0.0, s - b) + w * (min(a, s) - max(0.0, s - b))
        pairs.append((int(round(10 ** (lo + log_m))), int(round(10 ** (lo + rlo + s)))))
    seen, distinct = set(), []
    for m, k in pairs:
        while (m, k) in seen:
            m += 1
        seen.add((m, k))
        distinct.append((m, k))
    return [distinct[i] for i in rng.permutation(len(distinct))]


def write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{m} {k}\n" for m, k in pairs))
