"""The binary summaries: how each task's measure turns a calibration row
into a bit, checked through the pipelines and the private margin rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    ClassifierSpec,
    DataSplit,
    RegressorSpec,
    fit_classification_pipeline,
    fit_regression_pipeline,
)
from randpred.pipelines import _margin_bits


class FixedScore:
    """Stub classifier with a preset score, for sharp margin cases."""

    def __init__(self, score):
        self.score = score

    def fit(self, X, y):
        return self

    def predict_batch(self, X):
        return np.full(len(X), self.score)


def reg_arrays(labels, feature=0.0):
    """(X, y) with every feature equal to `feature`."""
    return np.full((len(labels), 1), feature), np.array(labels, dtype=float)


def regression_pipeline(proper, calibration, spec=RegressorSpec("mean")):
    """The pipeline fitted on the proper labels and calibrated on the
    calibration labels, every feature 0."""
    X, y = reg_arrays(list(proper) + list(calibration))
    return fit_regression_pipeline(DataSplit(X, y, len(proper)), spec)


def regression_bits(proper, labels):
    """The bit of each label under the measure fitted on proper: the k of
    a one-row calibration part."""
    return [regression_pipeline(proper, [label]).k for label in labels]


def margin_bit(classifier, x, y):
    """The bit of one example, from a one-row batch of the margin rule."""
    (bit,) = _margin_bits(classifier.predict_batch([x]), np.array([y], dtype=float))
    return bit


def classification_pipeline(proper_X, proper_y, cal_X, cal_y, spec=None):
    """The pipeline fitted on the proper rows and calibrated on the others."""
    X = np.array(list(proper_X) + list(cal_X), dtype=float)
    y = np.array(list(proper_y) + list(cal_y), dtype=float)
    return fit_classification_pipeline(DataSplit(X, y, len(proper_y)), spec)


class TestFitRegressionMeasure:
    def test_half_width_is_max_residual(self):
        # mean predictor over {0, 1} predicts 0.5: residuals {0.5, 0.5}
        assert regression_pipeline([0.0, 1.0], [0.3]).width == 0.5

    def test_interpolating_fit_gives_zero_half_width(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pipeline = fit_regression_pipeline(DataSplit(x[:, None], 2.0 * x + 1.0, 3))
        assert pipeline.width == pytest.approx(0.0, abs=1e-10)

    def test_single_example_constant_predictor(self):
        assert regression_pipeline([3.7], [1.0]).width == 0.0

    def test_fallback_reported(self):
        split = DataSplit(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([5.0, 1.0]), 1)
        assert fit_regression_pipeline(split).fallback_reason is not None

    def test_rejects_empty_proper(self):
        with pytest.raises(ValueError):
            RegressorSpec().build().fit(np.empty((0, 1)), [])
        with pytest.raises(ValueError, match="proper and calibration"):
            DataSplit(*reg_arrays([1.0, 2.0]), 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegressorSpec("boosted")


class TestScoreRegression:
    """The mean predictor over {0, 1}: g == 0.5, half-width 0.5."""

    PROPER = [0.0, 1.0]

    def test_strict_exceedance_scores_one(self):
        assert regression_bits(self.PROPER, [1.1]) == [1]

    def test_boundary_residual_conforms(self):
        assert regression_bits(self.PROPER, [1.0, 0.0]) == [0, 0]

    def test_perfect_prediction_conforms(self):
        assert regression_bits(self.PROPER, [0.5]) == [0]

    def test_rejects_nonfinite(self):
        # DataSplit checks the calibration rows once, for both tasks
        X, y = reg_arrays(self.PROPER + [0.5])
        X[2, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            DataSplit(X, y, 2)
        with pytest.raises(ValueError, match="finite"):
            DataSplit(*reg_arrays(self.PROPER + [math.inf]), 2)


class TestFitMarginMeasure:
    def test_functional_margin_is_one(self):
        pipeline = classification_pipeline([[-1.0], [1.0]], [-1, 1], [[0.5]], [1])
        assert pipeline.width == 1.0
        assert pipeline.fallback_reason is None

    def test_two_point_threshold_at_zero(self):
        pipeline = classification_pipeline([[-1.0], [1.0]], [-1, 1], [[0.5]], [1])
        assert pipeline.predictor.predict_batch([[0.0]])[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_class_fallback(self):
        def k(label):
            return classification_pipeline([[0.0], [1.0]], [1, 1], [[9.9]], [label]).k

        pipeline = classification_pipeline([[0.0], [1.0]], [1, 1], [[9.9]], [-1])
        assert pipeline.fallback_reason is not None
        # every test object is classified +1 outside the margin
        assert k(-1) == 1
        assert k(1) == 0

    def test_rejects_empty_proper(self):
        with pytest.raises(ValueError):
            ClassifierSpec().build().fit(np.empty((0, 1)), [])

    def test_classifier_spec_flows_through(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(30, 2))
        y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
        a = classification_pipeline(X[:25], y[:25], X[25:], y[25:], ClassifierSpec(seed=5))
        b = classification_pipeline(X[:25], y[:25], X[25:], y[25:], ClassifierSpec(seed=5))
        assert a.predictor.predict_batch([[0.4, -0.2]]) == b.predictor.predict_batch([[0.4, -0.2]])


class TestClassifierSpecDomain:
    """A spec is checked when it is made, by the classifier's own rules."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("seed", True),
            ("learning_rate", 0.0),
            ("epochs", 0),
            ("l2", -1.0),
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("l2", math.nan),
            ("l2", math.inf),
            ("epochs", 2.5),
            ("epochs", True),
        ],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClassifierSpec(**{field: value})

    def test_defaults_and_seeds_accepted(self):
        assert ClassifierSpec().seed is None
        assert ClassifierSpec(seed=0, epochs=1, l2=0.0).seed == 0
        assert ClassifierSpec(epochs=np.int64(3)).build().epochs == 3

    def test_kind_is_not_an_option(self):
        with pytest.raises(TypeError):
            ClassifierSpec(kind="hinge")


class TestScoreMargin:
    def test_wrong_class_outside_margin(self):
        assert margin_bit(FixedScore(2.0), (0.0,), -1) == 1

    def test_inside_margin_conforms(self):
        assert margin_bit(FixedScore(0.5), (0.0,), -1) == 0

    def test_correct_class_conforms(self):
        assert margin_bit(FixedScore(2.0), (0.0,), 1) == 0

    def test_boundary_score_conforms(self):
        assert margin_bit(FixedScore(-1.0), (0.0,), 1) == 0
        assert margin_bit(FixedScore(1.0), (0.0,), -1) == 0

    def test_zero_score_conforms(self):
        assert margin_bit(FixedScore(0.0), (0.0,), 1) == 0
        assert margin_bit(FixedScore(0.0), (0.0,), -1) == 0

    def test_rejects_bad_label(self):
        for bad in (0, 0.5, 2):
            with pytest.raises(ValueError, match="^classification labels must be -1 or \\+1$"):
                classification_pipeline([[-1.0], [1.0]], [-1, 1], [[0.0]], [bad])
            with pytest.raises(ValueError, match="-1 or \\+1"):
                margin_bit(FixedScore(2.0), (0.0,), bad)


class TestSummarize:
    """A pipeline fit reduces the calibration part to bits and counts the
    ones; the test example scores as any other row."""

    # mean predictor over {-0.55, 0.55}: g == 0, half-width 0.55
    PROPER = [-0.55, 0.55]

    def pipeline(self, calibration):
        return regression_pipeline(self.PROPER, calibration)

    def test_counting(self):
        calibration = [0.5, 1.0, -0.2, -1.0]  # bits (0, 1, 0, 1)
        assert regression_bits(self.PROPER, calibration) == [0, 1, 0, 1]
        pipeline = self.pipeline(calibration)
        assert (pipeline.k, pipeline.m) == (2, 4)
        assert regression_bits(self.PROPER, [2.0]) == [1]

    def test_all_conforming(self):
        pipeline = self.pipeline([0.1, -0.1, 0.3])
        assert pipeline.k == 0
        assert regression_bits(self.PROPER, [0.2]) == [0]

    def test_rejects_empty_calibration(self):
        X, y = reg_arrays(self.PROPER)
        with pytest.raises(ValueError, match="calibration"):
            fit_regression_pipeline(DataSplit(X, y, 2))

    @settings(max_examples=40)
    @given(labels=st.lists(st.floats(-2, 2), min_size=1, max_size=12), data=st.data())
    def test_k_invariant_under_calibration_permutation(self, labels, data):
        permuted = data.draw(st.permutations(labels))
        assert self.pipeline(labels).k == self.pipeline(permuted).k


class TestProperSelfConsistency:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_proper_examples_conform_under_own_measure(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(12, 2))
        y = X @ [1.0, -0.5] + rng.uniform(-0.3, 0.3, size=12)
        # the proper rows again, as the calibration part
        split = DataSplit(np.vstack([X, X]), np.concatenate([y, y]), 12)
        assert fit_regression_pipeline(split).k == 0


class FirstFeature:
    """Stub classifier scoring each object by its first feature."""

    def fit(self, X, y):
        return self

    def predict_batch(self, X):
        return np.asarray(X, dtype=float)[:, 0].copy()


class TestBatchScoring:
    """A pipeline's k counts the bits each row has in a one-row batch,
    boundaries included."""

    def test_residual_exactly_at_half_width_conforms(self):
        # mean predictor over {0, 1}: g == 0.5, half-width 0.5
        calibration = [1.0, 0.0, 1.1, -0.1, 0.5]
        bits = regression_bits([0.0, 1.0], calibration)
        assert bits == [0, 0, 1, 1, 0]
        assert regression_pipeline([0.0, 1.0], calibration).k == sum(bits)

    def test_zero_score_and_score_at_margin_conform(self):
        scores = [0.0, 0.0, 1.0, -1.0, 1.5, -1.5, 1.5, -1.0000000000000002]
        labels = [1, -1, -1, 1, -1, 1, 1, 1]
        X = np.array(scores)[:, None]
        bits = _margin_bits(FirstFeature().predict_batch(X), np.array(labels, dtype=float))
        assert bits.tolist() == [0, 0, 0, 0, 1, 1, 0, 1]
        assert bits.tolist() == [margin_bit(FirstFeature(), x, v) for x, v in zip(X, labels)]

    def test_infinite_scores_of_the_constant_fallback(self):
        pipeline = classification_pipeline([[0.0], [1.0]], [1, 1], [[5.0], [-5.0]], [-1, 1])
        scores = pipeline.predictor.predict_batch([[5.0], [-5.0]])
        assert scores.tolist() == [math.inf, math.inf]
        assert _margin_bits(scores, np.array([-1.0, 1.0])).tolist() == [1, 0]
        assert (pipeline.k, pipeline.m) == (1, 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["least_squares", "mean"]))
    def test_regression_batch_matches_scalar(self, seed, kind):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3, 3, size=(40, 3))
        y = X @ rng.standard_normal(3) + rng.uniform(-0.5, 0.5, size=40)
        pipeline = fit_regression_pipeline(DataSplit(X, y, 20), RegressorSpec(kind))
        residuals = [abs(v - pipeline.predictor.predict_batch([x])[0]) for x, v in zip(X, y)]
        scalar = [int(r > pipeline.width) for r in residuals]
        assert pipeline.k == sum(scalar[20:])
        # every proper row conforms, the one at the half-width included
        assert not any(scalar[:20])
        assert max(residuals[:20]) == pipeline.width

    def test_batch_input_checks(self):
        with pytest.raises(ValueError):
            DataSplit(*reg_arrays([0.0, 1.0, math.nan]), 2)
        with pytest.raises(ValueError):
            DataSplit(np.zeros((2, 1)), np.zeros(3), 1)
        with pytest.raises(ValueError):
            _margin_bits(np.array([0.0]), np.array([0.5]))
