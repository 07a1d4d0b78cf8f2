"""Monte Carlo validity harness.

Measures coverage frequencies of the regression pipelines on seeded
synthetic data.  A trial draws its features and noise and fits its
point predictor as fit_regression_pipeline does.  Everything else is
taken for many trials at once: the labels by the generator's label
rule, the predictions of all of the trials' rows, test rows included,
by the predictors module's affine rule, and the pipelines module's bit,
bounds, incertitude and level-set rules over a block of trials.  Each
rule is the one the per-trial path applies, written over a leading
axis, so every value is the same bit for bit.  The harness hashes the
seed words of all of a block's trial streams in one array pass of
numpy's SeedSequence algorithm, so each trial's generator is
default_rng([seed, trial]) bit for bit without its per-call cost.  A
block in which anything raises is replayed trial by trial through the
public path (generator.sample, fit_regression_pipeline,
interval_bounds), so the harness raises that path's first error.  The
exact audits, which need no sampling, are in the audits module.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import DataSplit, _real
from .pipelines import (
    RegressorSpec,
    _incertitudes,
    _interval_bounds,
    _level_set_bounds,
    _regression_bits,
    fit_regression_pipeline,
)
from .predictors import _affine_batch
from .pvalues import _integer, _value_error
from .records import Record
from .reports import ValidityCell, ValidityReport

__all__ = [
    "BoundedNoiseLinearGenerator",
    "PipelineSpec",
    "monte_carlo_coverage",
]


# A block of trials holds at most this many data rows (each trial's
# training rows and its test row) and at least one trial, and is staged
# in parts of at most twice as many feature cells and at least one trial,
# so the harness's arrays stay bounded at any calibration size, feature
# count and trial count.
_BLOCK_ROWS = 1 << 14

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# running hashes of mix_entropy and generate_state start at _INIT_A and
# _INIT_B and are multiplied by _MULT_A and _MULT_B at every step; the
# pool holds 4 words and PCG64 asks for 4 uint64 seed words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL_SIZE = 4


def _finite_float(name: str, value) -> float:
    """value as a float, or ValueError naming the field unless it is a
    finite real number (bools excluded)."""
    real = _real(value)
    if math.isfinite(real):
        return real
    raise ValueError(f"{name} must be a finite float, got {value!r}")


def _words(value: int) -> list:
    """The 32-bit words of a nonnegative int, least significant first, as
    SeedSequence reads an int of its entropy (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(value: int, multiplier: int):
    """SeedSequence's running hash constant from value on: each step's
    (xor, multiplier) pair as uint32 scalars.  The running value is a
    masked Python int, so no numpy scalar arithmetic can overflow."""
    while True:
        xor = value
        value = value * multiplier & _MASK32
        yield np.uint32(xor), np.uint32(value)


def _hash(words: np.ndarray, constants) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 array with the next constants."""
    xor, multiplier = next(constants)
    words = (words ^ xor) * multiplier
    return words ^ words >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = _MIX_LEFT * x - _MIX_RIGHT * y
    return result ^ result >> _SHIFT


def _seed_words(entropy: list) -> np.ndarray:
    """The (count, 4) uint64 PCG64 seed words of count SeedSequences whose
    entropy is given column by column: entropy[i] is a uint32 array of
    every sequence's word i.  SeedSequence.__init__'s mix_entropy into a
    pool of 4, then generate_state(4, np.uint64), one array step at a
    time; every sequence's entropy has the same length, so the hash
    constants are shared."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zeros = np.zeros_like(entropy[0])
    pool = [_hash(word, constants) for word in (entropy + [zeros] * _POOL_SIZE)[:_POOL_SIZE]]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = _mix(pool[target], _hash(pool[source], constants))
    for word in entropy[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = _mix(pool[target], _hash(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hash(word, constants) for word in pool + pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _trial_states(seed: int, first: int, count: int) -> np.ndarray:
    """The C-contiguous (count, 4) uint64 array whose row t is
    SeedSequence([seed, first + t]).generate_state(4, np.uint64), the
    seed words of the PCG64 of default_rng([seed, first + t]).  The
    entropy is seed's words, then the trial's; the trials are split at
    multiples of 2**32, so within a part only the trial's low word
    varies."""
    parts = []
    stop = first + count
    while first < stop:
        high = first >> 32
        end = min(stop, (high + 1) << 32)
        low = np.uint32(first & _MASK32) + np.arange(end - first, dtype=np.uint32)
        seed_columns = [np.full_like(low, word) for word in _words(seed)]
        high_columns = [np.full_like(low, word) for word in _words(high)] if high else []
        parts.append(_seed_words(seed_columns + [low] + high_columns))
        first = end
    return np.concatenate(parts)


class _TrialState(ISeedSequence):
    """A seed sequence whose only state is one row of _trial_states: the
    PCG64 it seeds is that of default_rng([seed, trial])."""

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial state holds exactly 4 uint64 words")
        return self._row


class BoundedNoiseLinearGenerator(Record):
    """IID sampler: uniform features, linear signal, uniform bounded noise.

    Bounded noise makes a zero calibration one-count the typical regime
    for the regression measure, the headline case for the engine.  Every
    parameter is checked when the generator is made: finite floats, and
    positive int sizes.  The features and the noise are then finite, but
    a label can still overflow, so every use of the labels checks them.
    """

    __slots__ = (
        "coefficients",
        "intercept",
        "noise_half_width",
        "proper_size",
        "calibration_size",
        "feature_low",
        "feature_high",
    )

    def __init__(
        self,
        coefficients: Tuple[float, ...] = (1.5, -2.0),
        intercept: float = 0.3,
        noise_half_width: float = 0.25,
        proper_size: int = 50,
        calibration_size: int = 30,
        feature_low: float = -1.0,
        feature_high: float = 1.0,
    ):
        coefficients = tuple(_finite_float("coefficients", c) for c in coefficients)
        if not coefficients:
            raise ValueError("coefficients must be nonempty")
        intercept = _finite_float("intercept", intercept)
        noise_half_width = _finite_float("noise_half_width", noise_half_width)
        feature_low = _finite_float("feature_low", feature_low)
        feature_high = _finite_float("feature_high", feature_high)
        proper_size, calibration_size = (
            _integer(size, 1, math.inf, _value_error(f"{name} must be a positive int"))
            for name, size in (("proper_size", proper_size), ("calibration_size", calibration_size))
        )
        if noise_half_width < 0:
            raise ValueError("noise_half_width must be nonnegative")
        if not feature_low < feature_high:
            raise ValueError("feature_low must be below feature_high")
        # numpy's uniform draws need a finite width high - low
        if not math.isfinite(2.0 * noise_half_width):
            raise ValueError("2 * noise_half_width must be finite")
        if not math.isfinite(feature_high - feature_low):
            raise ValueError("feature_high - feature_low must be finite")
        super().__init__(
            coefficients,
            intercept,
            noise_half_width,
            proper_size,
            calibration_size,
            feature_low,
            feature_high,
        )

    def _uniforms(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """The features (n + 1, d) and the noise (n + 1,) of one training
        sequence plus one test example, in the order the rng draws them:
        the features, then the noise."""
        n = self.proper_size + self.calibration_size + 1
        features = rng.uniform(self.feature_low, self.feature_high, size=(n, len(self.coefficients)))
        return features, rng.uniform(-self.noise_half_width, self.noise_half_width, size=n)

    def _labels(self, features: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The labels of (..., n + 1, d) features and (..., n + 1) noise,
        over any leading axes.  A stack of draws takes one BLAS
        matrix-vector product per draw, so every label is the same as
        that of its draw alone."""
        return features @ np.array(self.coefficients) + self.intercept + noise

    def _draw(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """The features (n + 1, d) and labels (n + 1,) of one training
        sequence plus one test example, all IID; the test example is the
        last row."""
        features, noise = self._uniforms(rng)
        return features, self._labels(features, noise)

    def sample(self, rng: np.random.Generator) -> Tuple[DataSplit, np.ndarray, float]:
        """Draw one training split plus one test example (x, y), all IID."""
        features, labels = self._draw(rng)
        split = DataSplit(features[:-1], labels[:-1], self.proper_size)
        return split, features[-1], float(labels[-1])


class PipelineSpec(Record):
    """Which regression pipeline the Monte Carlo harness should exercise;
    predictor None is the default RegressorSpec()."""

    __slots__ = ("method", "predictor")

    def __init__(self, method: str = "both", predictor: Optional[RegressorSpec] = None):
        if method not in ("irp", "icp", "both"):
            raise ValueError(f"method must be 'irp', 'icp', or 'both', got {method!r}")
        super().__init__(method, RegressorSpec() if predictor is None else predictor)


def monte_carlo_coverage(
    pipeline_spec: Optional[PipelineSpec],
    data_generator_spec: Optional[BoundedNoiseLinearGenerator],
    epsilon: float,
    trials: int,
    seed: int,
) -> ValidityReport:
    """Seeded coverage experiment for the regression pipelines.

    Each trial draws fresh IID data, forms the level-epsilon prediction
    set, and records whether the true test label was excluded.  A
    coverage cell passes when the empirical miscoverage rate is at most
    epsilon + 3 standard errors.  The harness counts the trials in blocks
    of up to _BLOCK_ROWS data rows, and stages a block in parts of up to
    2 * _BLOCK_ROWS feature cells (_stage_trials): each trial's two
    draws, the labels of the part in one pass, each trial's fit on its
    proper rows, and the point predictions of all of the part's rows,
    test rows included, in one pass.  It then takes the half-widths and
    calibration bits, the test rows' intervals, every method's
    incertitude and level sets, and the miss counts of the whole block,
    each by one array rule of the pipelines module.  Those are, value for
    value, the pipeline of fit_regression_pipeline and the sets of
    interval_bounds, hedge and prediction_set for generator.sample's
    split and test row.  If anything in a block raises (a non-finite
    training label, a fit or prediction error, a NaN half-width or a
    non-finite test centre), the block's trials are replayed in order
    through generator.sample, fit_regression_pipeline and
    interval_bounds, which raise the first failing trial's error with its
    own message.  When both methods run, the interval-identity cell
    reports every trial: each method hedges the one interval of its
    trial, so the method changes only the incertitude, never the
    interval.  It does not compare independently fitted pipelines.

    Each trial derives its random stream from (seed, trial index), so the
    report is identical under any execution order.  The stream is
    default_rng([seed, trial]); the harness seeds a block's PCG64
    generators from _trial_states, one array pass of numpy's
    SeedSequence hashing over the block's trial indices.  seed must be a
    nonnegative int, as trials must be a positive one; numpy integers
    count, bools do not.
    """
    spec = pipeline_spec or PipelineSpec()
    generator = data_generator_spec or BoundedNoiseLinearGenerator()
    epsilon, given = _real(epsilon), epsilon
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {given!r}")
    trials = _integer(trials, 1, math.inf, _value_error("trials must be a positive integer"))
    seed = _integer(seed, 0, math.inf, _value_error("seed must be a nonnegative integer"))

    methods = ("irp", "icp") if spec.method == "both" else (spec.method,)
    proper, n = generator.proper_size, generator.proper_size + generator.calibration_size + 1
    size = min(trials, max(1, _BLOCK_ROWS // n))
    stage = max(1, 2 * _BLOCK_ROWS // (n * len(generator.coefficients)))
    misses = dict.fromkeys(methods, 0)
    for start in range(0, trials, size):
        filled = min(size, trials - start)
        try:
            states = _trial_states(seed, start, filled)
            staged = [
                _stage_trials(spec.predictor, generator, states[first : first + stage])
                for first in range(0, filled, stage)
            ]
            predictions, labels = (np.concatenate(arrays) for arrays in zip(*staged))
            block = _block_misses(predictions, labels, proper, methods, epsilon)
        except Exception:
            # the per-trial path raises the first failing trial's error
            for trial in range(start, start + filled):
                split, x, _ = generator.sample(np.random.default_rng([seed, trial]))
                fit_regression_pipeline(split, spec.predictor).interval_bounds(x[np.newaxis])
            raise
        for method, count in zip(methods, block):
            misses[method] += count

    cells = []
    for method in methods:
        rate = misses[method] / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        cells.append(
            ValidityCell(
                name=f"coverage-{method}",
                epsilon=epsilon,
                probability=rate,
                passed=rate <= epsilon + 3.0 * stderr,
                standard_error=stderr,
                detail=f"{misses[method]}/{trials} test labels excluded",
            )
        )
    if len(methods) == 2:
        cells.append(
            ValidityCell(
                name="interval-identity",
                epsilon=epsilon,
                probability=1.0,
                passed=True,
                standard_error=0.0,
                detail=f"{trials}/{trials} trials with identical intervals",
            )
        )
    return ValidityReport(
        mode="monte_carlo",
        cells=tuple(cells),
        m=generator.calibration_size,
        trials=trials,
        seed=seed,
    )


def _stage_trials(
    predictor_spec, generator: BoundedNoiseLinearGenerator, states: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The point predictions and labels, two (trials, n + 1) arrays with
    each trial's test row last, of the trials whose streams the rows of
    states seed: bit for bit those of the trial's own generator._draw and
    its fitted predictor's predict_batch.

    Each step runs once for all of the trials where it can: the two draws
    per trial, in trial order; the labels and their finiteness check in
    one pass each; the fit per trial; the predictions in one pass of the
    affine rule, for every trial whose predictor exposes an affine_map.
    A predictor without one (the mean kind, the rank fallback) predicts
    by its own predict_batch.  Raises ValueError if a training label is
    not finite.
    """
    proper = generator.proper_size
    n, d = proper + generator.calibration_size + 1, len(generator.coefficients)
    trials = len(states)
    features, noise = np.empty((trials, n, d)), np.empty((trials, n))
    for row in range(trials):
        rng = np.random.Generator(np.random.PCG64(_TrialState(states[row])))
        features[row], noise[row] = generator._uniforms(rng)
    labels = generator._labels(features, noise)
    # the features are finite by the generator's checks
    if not np.isfinite(labels[:, :-1]).all():
        raise ValueError("a training label is not finite")
    # a trial without an affine map keeps the zero map, whose predictions
    # its predictor's own replace
    coefs, intercepts = np.zeros((trials, d)), np.zeros(trials)
    own = {}
    for row in range(trials):
        predictor = predictor_spec.build().fit(features[row, :proper], labels[row, :proper])
        affine = getattr(predictor, "affine_map", None)
        if affine is None:
            own[row] = predictor.predict_batch(features[row])
        else:
            coefs[row], intercepts[row] = affine
    if len(own) < trials:
        predictions = _affine_batch(coefs[:, np.newaxis], intercepts[:, np.newaxis], features)
    else:
        predictions = np.empty((trials, n))
    for row, values in own.items():
        predictions[row] = values
    return predictions, labels


def _block_misses(predictions, labels, proper_size, methods, epsilon) -> list:
    """How many test labels each method's level sets exclude over a block
    of trials: predictions and labels are (trials, n + 1) arrays, a
    trial's test row last.  Raises ValueError if a trial's half-width is
    NaN or its test row's point prediction is not finite."""
    n = labels.shape[1] - 1
    m = n - proper_size
    width, k = _regression_bits(labels[:, :n], predictions[:, :n], proper_size)
    if np.isnan(width).any():
        raise ValueError("a half-width is nan")
    lower, upper = _interval_bounds(predictions[:, n:], width[:, np.newaxis])
    test_label = labels[:, n:]
    counts = []
    for method in methods:
        level_lower, level_upper = _level_set_bounds(
            lower, upper, _incertitudes(method, m, k)[:, np.newaxis], epsilon
        )
        covered = (level_lower <= test_label) & (test_label <= level_upper)
        counts.append(len(covered) - int(np.count_nonzero(covered)))
    return counts
