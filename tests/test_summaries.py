import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    ClassifierSpec,
    DataSplit,
    FittedMarginMeasure,
    RegressorSpec,
    fit_margin_measure,
    fit_regression_measure,
    fit_regression_pipeline,
    score_margin_batch,
    score_regression_batch,
)


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


class TestFitRegressionMeasure:
    def test_half_width_is_max_residual(self):
        # mean predictor over {0, 1} predicts 0.5: residuals {0.5, 0.5}
        measure = fit_regression_measure(*reg_arrays([0.0, 1.0]), RegressorSpec("mean"))
        assert measure.half_width == 0.5

    def test_interpolating_fit_gives_zero_half_width(self):
        x = np.array([0.0, 1.0, 2.0])
        measure = fit_regression_measure(x[:, None], 2.0 * x + 1.0)
        assert measure.half_width == pytest.approx(0.0, abs=1e-10)

    def test_single_example_constant_predictor(self):
        measure = fit_regression_measure(*reg_arrays([3.7]), RegressorSpec("mean"))
        assert measure.half_width == 0.0

    def test_fallback_reported(self):
        measure = fit_regression_measure([[1.0, 2.0]], [5.0])
        assert measure.fallback_reason is not None

    def test_rejects_empty_proper(self):
        with pytest.raises(ValueError):
            fit_regression_measure(np.empty((0, 1)), [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegressorSpec("boosted")


def regression_bit(measure, x, y):
    """The bit of one example, from a one-row batch."""
    (bit,) = score_regression_batch(measure, [x], [y])
    return bit


def margin_bit(measure, x, y):
    """The bit of one example, from a one-row batch."""
    (bit,) = score_margin_batch(measure, [x], [y])
    return bit


class TestScoreRegression:
    @pytest.fixture
    def measure(self):
        # mean predictor over {0, 1}: g == 0.5, half_width == 0.5
        return fit_regression_measure(*reg_arrays([0.0, 1.0]), RegressorSpec("mean"))

    def test_strict_exceedance_scores_one(self, measure):
        assert regression_bit(measure, (0.0,), 1.1) == 1

    def test_boundary_residual_conforms(self, measure):
        assert regression_bit(measure, (0.0,), 1.0) == 0
        assert regression_bit(measure, (0.0,), 0.0) == 0

    def test_perfect_prediction_conforms(self, measure):
        assert regression_bit(measure, (0.0,), 0.5) == 0

    def test_rejects_nonfinite(self, measure):
        with pytest.raises(ValueError, match="finite"):
            regression_bit(measure, (math.nan,), 0.5)
        with pytest.raises(ValueError, match="finite"):
            regression_bit(measure, (0.0,), math.inf)


class TestFitMarginMeasure:
    def test_functional_margin_is_one(self):
        measure = fit_margin_measure([[-1.0], [1.0]], [-1, 1])
        assert measure.margin_width == 1.0
        assert measure.fallback_reason is None

    def test_two_point_threshold_at_zero(self):
        measure = fit_margin_measure([[-1.0], [1.0]], [-1, 1])
        assert measure.classifier.predict_batch([[0.0]])[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_class_fallback(self):
        measure = fit_margin_measure([[0.0], [1.0]], [1, 1])
        assert measure.fallback_reason is not None
        # every test object is classified +1 outside the margin
        assert margin_bit(measure, (9.9,), -1) == 1
        assert margin_bit(measure, (9.9,), 1) == 0

    def test_rejects_empty_proper(self):
        with pytest.raises(ValueError):
            fit_margin_measure(np.empty((0, 1)), [])

    def test_classifier_spec_flows_through(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(30, 2))
        y = np.where(X[:, 0] - X[:, 1] > 0, 1, -1)
        a = fit_margin_measure(X, y, ClassifierSpec(seed=5))
        b = fit_margin_measure(X, y, ClassifierSpec(seed=5))
        assert a.classifier.predict_batch([[0.4, -0.2]]) == b.classifier.predict_batch([[0.4, -0.2]])


class TestClassifierSpecDomain:
    """A spec is checked when it is made, by the classifier's own rules."""

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("seed", True), ("learning_rate", 0.0), ("epochs", 0), ("l2", -1.0)],
    )
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClassifierSpec(**{field: value})

    def test_defaults_and_seeds_accepted(self):
        assert ClassifierSpec().seed is None
        assert ClassifierSpec(seed=0, epochs=1, l2=0.0).seed == 0


class TestScoreMargin:
    def test_wrong_class_outside_margin(self):
        measure = FittedMarginMeasure(classifier=FixedScore(2.0), margin_width=1.0)
        assert margin_bit(measure, (0.0,), -1) == 1

    def test_inside_margin_conforms(self):
        measure = FittedMarginMeasure(classifier=FixedScore(0.5), margin_width=1.0)
        assert margin_bit(measure, (0.0,), -1) == 0

    def test_correct_class_conforms(self):
        measure = FittedMarginMeasure(classifier=FixedScore(2.0), margin_width=1.0)
        assert margin_bit(measure, (0.0,), 1) == 0

    def test_boundary_score_conforms(self):
        measure = FittedMarginMeasure(classifier=FixedScore(-1.0), margin_width=1.0)
        assert margin_bit(measure, (0.0,), 1) == 0

    def test_zero_score_conforms(self):
        measure = FittedMarginMeasure(classifier=FixedScore(0.0), margin_width=1.0)
        assert margin_bit(measure, (0.0,), 1) == 0
        assert margin_bit(measure, (0.0,), -1) == 0

    def test_rejects_bad_label(self):
        measure = FittedMarginMeasure(classifier=FixedScore(2.0), margin_width=1.0)
        for bad in (0, 0.5, 2):
            with pytest.raises(ValueError, match="-1 or \\+1"):
                margin_bit(measure, (0.0,), bad)

    def test_margin_width_must_be_positive(self):
        with pytest.raises(ValueError):
            FittedMarginMeasure(classifier=FixedScore(1.0), margin_width=0.0)


class TestSummarize:
    """A pipeline fit reduces the calibration part to bits and counts the
    ones; the test example scores as any other row."""

    @pytest.fixture
    def measure(self):
        # mean predictor over {-0.55, 0.55}: g == 0, half_width == 0.55
        return fit_regression_measure(*reg_arrays([-0.55, 0.55]), RegressorSpec("mean"))

    @staticmethod
    def pipeline(calibration):
        X, y = reg_arrays([-0.55, 0.55] + list(calibration))
        return fit_regression_pipeline(DataSplit(X, y, 2), RegressorSpec("mean"))

    def test_counting(self, measure):
        calibration = [0.5, 1.0, -0.2, -1.0]  # bits (0, 1, 0, 1)
        assert score_regression_batch(measure, *reg_arrays(calibration)).tolist() == [0, 1, 0, 1]
        pipeline = self.pipeline(calibration)
        assert (pipeline.k, pipeline.m) == (2, 4)
        assert regression_bit(measure, (0.0,), 2.0) == 1

    def test_all_conforming(self, measure):
        pipeline = self.pipeline([0.1, -0.1, 0.3])
        assert pipeline.k == 0
        assert regression_bit(measure, (0.0,), 0.2) == 0

    def test_rejects_empty_calibration(self):
        X, y = reg_arrays([-0.55, 0.55])
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
        measure = fit_regression_measure(X, y)
        assert not score_regression_batch(measure, X, y).any()


class FirstFeature:
    """Stub classifier scoring each object by its first feature."""

    def fit(self, X, y):
        return self

    def predict_batch(self, X):
        return np.asarray(X, dtype=float)[:, 0].copy()


class TestBatchScoring:
    """The batch scorers give every row the bit of its one-row batch,
    boundaries included."""

    def test_residual_exactly_at_half_width_conforms(self):
        # mean predictor over {0, 1}: g == 0.5, half_width == 0.5
        measure = fit_regression_measure(*reg_arrays([0.0, 1.0]), RegressorSpec("mean"))
        X, y = reg_arrays([1.0, 0.0, 1.1, -0.1, 0.5])
        bits = score_regression_batch(measure, X, y)
        assert bits.tolist() == [0, 0, 1, 1, 0]
        assert bits.tolist() == [regression_bit(measure, x, v) for x, v in zip(X, y)]

    def test_zero_score_and_score_at_margin_conform(self):
        measure = FittedMarginMeasure(classifier=FirstFeature(), margin_width=1.0)
        scores = [0.0, 0.0, 1.0, -1.0, 1.5, -1.5, 1.5, -1.0000000000000002]
        labels = [1, -1, -1, 1, -1, 1, 1, 1]
        X = np.array(scores)[:, None]
        bits = score_margin_batch(measure, X, labels)
        assert bits.tolist() == [0, 0, 0, 0, 1, 1, 0, 1]
        assert bits.tolist() == [margin_bit(measure, x, v) for x, v in zip(X, labels)]

    def test_infinite_scores_of_the_constant_fallback(self):
        measure = fit_margin_measure([[0.0], [1.0]], [1, 1])
        bits = score_margin_batch(measure, [[5.0], [-5.0]], [-1, 1])
        assert bits.tolist() == [1, 0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["least_squares", "mean"]))
    def test_regression_batch_matches_scalar(self, seed, kind):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3, 3, size=(40, 3))
        y = X @ rng.standard_normal(3) + rng.uniform(-0.5, 0.5, size=40)
        measure = fit_regression_measure(X[:20], y[:20], RegressorSpec(kind))
        scalar = [regression_bit(measure, x, v) for x, v in zip(X, y)]
        assert score_regression_batch(measure, X, y).tolist() == scalar
        # every proper row conforms, the one at the half-width included
        assert not any(scalar[:20])

    def test_batch_input_checks(self):
        measure = fit_regression_measure(*reg_arrays([0.0, 1.0]), RegressorSpec("mean"))
        with pytest.raises(ValueError):
            score_regression_batch(measure, [[0.0]], [math.nan])
        with pytest.raises(ValueError):
            score_regression_batch(measure, [[0.0], [1.0]], [0.0])
        margin = FittedMarginMeasure(classifier=FirstFeature(), margin_width=1.0)
        with pytest.raises(ValueError):
            score_margin_batch(margin, [[0.0]], [0.5])
