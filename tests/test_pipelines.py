import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    ALL_LABELS,
    FULL_LINE,
    ClassifierSpec,
    DataSplit,
    HedgedPrediction,
    Interval,
    RegressorSpec,
    binary_irp_pvalue,
    exact_pvalue_k0,
    fit_classification_pipeline,
    fit_regression_pipeline,
    prediction_set,
    score_margin_batch,
    score_regression_batch,
)


def predict_regression(split, test_x, method="irp", spec=None):
    """Fit a regression pipeline on split and predict one test object."""
    return fit_regression_pipeline(split, spec).predict(test_x, method)


def predict_classification(split, test_x, method="irp"):
    """Fit a classification pipeline on split and predict one test object."""
    return fit_classification_pipeline(split).predict(test_x, method)


def mean_split(proper_labels, calibration_labels):
    """A split driving the mean predictor: g == mean(proper), h == max residual."""
    y = np.array(list(proper_labels) + list(calibration_labels))
    return DataSplit(np.zeros((len(y), 1)), y, len(proper_labels))


def linear_split(seed=0, l=20, m=12, noise=0.2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(l + m, 2))
    y = X @ [1.0, -1.5] + 0.2 + rng.uniform(-noise, noise, size=l + m)
    return DataSplit(X, y, l)


def cls_split(seed=3, l=30, m=10, gap=0.2):
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < l + m:
        x = rng.uniform(-1, 1, size=2)
        if abs(x[0] + x[1]) < gap:
            continue
        rows.append(x)
    X = np.array(rows)
    return DataSplit(X, np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0), l)


class TestRegressionPipelines:
    def test_interval_identity_between_methods(self):
        split = linear_split(seed=1)
        test_x = (0.3, -0.4)
        # two independent fits of the same split
        irp = predict_regression(split, test_x, "irp")
        icp = predict_regression(split, test_x, "icp")
        assert irp.prediction_set == icp.prediction_set
        assert irp.incertitude != icp.incertitude

    def test_interval_centered_on_point_prediction(self):
        split = mean_split([-1.0, 1.0], [0.1, -0.2])  # g == 0, h == 1
        pred = predict_regression(split, (0.0,), spec=RegressorSpec("mean"))
        assert pred.prediction_set == Interval(-1.0, 1.0)

    def test_k0_incertitude_is_closed_form(self):
        # calibration labels all well inside the residual band: k = 0
        split = mean_split([-1.0, 1.0], [0.2, -0.3, 0.1, 0.0, 0.4])
        pred = predict_regression(split, (0.0,), spec=RegressorSpec("mean"))
        assert pred.k == 0 and pred.m == 5
        assert pred.incertitude == pytest.approx(exact_pvalue_k0(5), rel=1e-9)

    def test_icp_incertitude_counts_ranks(self):
        # 2 of 9 calibration labels fall outside the band |y| <= 1
        calibration = [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 0.0, 2.0, -3.0]
        split = mean_split([-1.0, 1.0], calibration)
        pred = predict_regression(split, (0.0,), "icp", spec=RegressorSpec("mean"))
        assert pred.k == 2 and pred.m == 9
        assert pred.incertitude == pytest.approx(float(Fraction(3, 10)), abs=1e-15)

    def test_irp_incertitude_matches_engine(self):
        split = linear_split(seed=4)
        pred = predict_regression(split, (0.0, 0.0))
        assert pred.incertitude == binary_irp_pvalue(pred.m, pred.k)

    def test_degenerate_when_every_calibration_example_misses(self):
        split = mean_split([-0.1, 0.1], [5.0, -5.0, 6.0])
        pred = predict_regression(split, (0.0,), spec=RegressorSpec("mean"))
        assert pred.k == pred.m == 3
        assert pred.incertitude == 1.0
        assert pred.degenerate

    def test_set_independent_of_calibration(self):
        proper = [-1.0, 1.0]
        mean = RegressorSpec("mean")
        a = predict_regression(mean_split(proper, [0.0, 0.1]), (0.0,), spec=mean)
        b = predict_regression(mean_split(proper, [9.0, -9.0, 4.0]), (0.0,), spec=mean)
        assert a.prediction_set == b.prediction_set
        assert a.incertitude != b.incertitude

    def test_fallback_surfaced(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        pipeline = fit_regression_pipeline(DataSplit(X, np.array([2.0, 4.0, 1.0]), 2))
        assert pipeline.fallback_reason is not None

    def test_unknown_method_rejected(self):
        pipeline = fit_regression_pipeline(linear_split())
        with pytest.raises(ValueError):
            pipeline.predict((0.0, 0.0), method="bayes")
        with pytest.raises(ValueError):
            pipeline.incertitude("bayes")

    @settings(max_examples=20)
    @given(seed=st.integers(0, 5000))
    def test_identity_property_over_random_data(self, seed):
        split = linear_split(seed=seed, l=12, m=8)
        test_x = (0.1, 0.2)
        # two independent fits of the same split
        irp = predict_regression(split, test_x, "irp")
        icp = predict_regression(split, test_x, "icp")
        assert irp.prediction_set == icp.prediction_set


class TestClassificationPipelines:
    def test_confident_prediction_outside_margin(self):
        split = cls_split()
        pred = predict_classification(split, (0.9, 0.9))
        assert pred.prediction_set == frozenset({1})
        assert not pred.vacuous

    def test_vacuous_inside_margin(self):
        split = cls_split()
        pred = predict_classification(split, (0.0, 0.0))
        assert pred.prediction_set == ALL_LABELS
        assert pred.vacuous
        assert 0.0 < pred.incertitude <= 1.0

    def test_methods_share_label_set(self):
        split = cls_split(seed=9)
        for test_x in [(0.8, 0.7), (-0.9, -0.8), (0.01, -0.02)]:
            irp = predict_classification(split, test_x, "irp")
            icp = predict_classification(split, test_x, "icp")
            assert irp.prediction_set == icp.prediction_set

    def test_k_equals_m_is_degenerate(self):
        # single-class proper set, oppositely labeled calibration: every
        # calibration summary is 1
        X = np.array([[0.0], [1.0]] + [[float(i)] for i in range(4)])
        split = DataSplit(X, np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]), 2)
        pred = predict_classification(split, (0.5,))
        assert pred.k == pred.m == 4
        assert pred.incertitude == 1.0
        assert pred.degenerate
        # with incertitude 1 the level set is the whole label space
        assert prediction_set(pred, 0.9) == ALL_LABELS

    def test_icp_incertitude_value(self):
        split = cls_split(seed=11)
        pred = predict_classification(split, (0.9, 0.9), "icp")
        assert pred.incertitude == pytest.approx((pred.k + 1) / (pred.m + 1), abs=1e-15)


class TestPipelineKMatchesScalarScores:
    """k from the pipeline's batch pass equals the count of one-row bits."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(3, 40), m=st.integers(1, 30))
    def test_regression(self, seed, l, m):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(l + m, 2))
        y = X @ [1.0, -1.5] + 0.2 + rng.uniform(-0.4, 0.4, size=l + m)
        # calibration rows that repeat proper rows, the largest residual
        # among them, score exactly as those rows do under their own measure
        X = np.vstack([X, X[:l]])
        y = np.concatenate([y, y[:l]])
        pipeline = fit_regression_pipeline(DataSplit(X, y, l))
        cal_X, cal_y = X[l:], y[l:]
        bits = [score_regression_batch(pipeline.measure, [x], [v])[0] for x, v in zip(cal_X, cal_y)]
        assert pipeline.m == m + l
        assert pipeline.k == sum(bits)
        assert not any(bits[m:])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(2, 30), m=st.integers(1, 30))
    def test_classification(self, seed, l, m):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(l + m, 2))
        y = np.where(X[:, 0] + X[:, 1] + rng.normal(0, 0.3, l + m) > 0, 1.0, -1.0)
        pipeline = fit_classification_pipeline(
            DataSplit(X, y, l), ClassifierSpec(epochs=30)
        )
        bits = [score_margin_batch(pipeline.measure, [x], [v])[0] for x, v in zip(X[l:], y[l:])]
        assert pipeline.k == sum(bits)


def random_pipeline(seed, task, fallback, n, d, scale):
    """A pipeline fitted on random data, and 30 test rows.

    fallback makes the regression design rank-deficient (a constant
    column) or the proper classification labels all +1."""
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((n + 30, d))
    if fallback and task == "regression":
        X[:, 0] = 1.0
    X, test_X = X[:n], X[n:]
    l = n // 2
    scores = X @ rng.standard_normal(d) + scale * rng.standard_normal(n)
    if task == "regression":
        pipeline = fit_regression_pipeline(DataSplit(X, scores, l))
    else:
        y = np.where(scores > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        if fallback:
            y[:l] = 1.0
        pipeline = fit_classification_pipeline(DataSplit(X, y, l), ClassifierSpec(epochs=30))
    return pipeline, test_X


class TestBatchSetsMatchScalar:
    """predict(X[i], method) has row i of the batch sets, the method's
    incertitude and the pipeline's (k, m)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        task=st.sampled_from(["regression", "classification"]),
        fallback=st.booleans(),
        n=st.integers(4, 40),
        d=st.integers(1, 3),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
    )
    def test_batch_sets_equal_per_row_sets(self, seed, task, fallback, n, d, scale):
        pipeline, test_X = random_pipeline(seed, task, fallback, n, d, scale)
        if task == "regression":
            sets = [Interval(lo, hi) for lo, hi in zip(*pipeline.interval_bounds(test_X))]
        else:
            sets = pipeline.label_sets(test_X)
        for method in ("irp", "icp"):
            for x, expected in zip(test_X, sets):
                prediction = pipeline.predict(x, method)
                assert prediction.prediction_set == expected
                assert prediction.incertitude == pipeline.incertitude(method)
                assert (prediction.k, prediction.m) == (pipeline.k, pipeline.m)
                assert prediction.vacuous == (expected == ALL_LABELS)

    def test_interval_bounds_reject_nan(self):
        pipeline = fit_regression_pipeline(linear_split())
        X = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="test row 2: point prediction nan"):
            pipeline.interval_bounds(X)
        with pytest.raises(ValueError, match="invalid interval"):
            pipeline.predict(X[1])

    @pytest.mark.parametrize("row", [[1e308, -1e308], [-1e308, 1e308]], ids=["inf", "-inf"])
    def test_interval_bounds_reject_overflowing_center(self, row):
        # the center overflows to +-inf: a point interval at infinity
        pipeline = fit_regression_pipeline(linear_split())
        X = np.array([[0.0, 0.0], row])
        with pytest.raises(ValueError, match="test row 2: point prediction -?inf is not finite"):
            pipeline.interval_bounds(X)
        with pytest.raises(ValueError, match="point prediction -?inf is not finite"):
            pipeline.predict(X[1])

    def test_label_sets_match_per_row_on_overflow(self):
        # scores that overflow to +-inf, or to inf - inf, warn nowhere
        pipeline = fit_classification_pipeline(cls_split())
        X = np.array([[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308], [1.7e308, -1.7e308]])
        sets = pipeline.label_sets(X)
        assert sets == [pipeline.predict(x).prediction_set for x in X]
        assert sets[:2] == [frozenset({1}), frozenset({-1})]

    def test_overflowing_bound_matches_per_row(self):
        # a finite center whose upper bound overflows is a valid interval
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        split = DataSplit(X, np.array([0.0, 1e307, 2.1e307, 3e307, 4e307]), 4)
        pipeline = fit_regression_pipeline(split)
        test_X = np.array([[17.785]])
        lower, upper = pipeline.interval_bounds(test_X)
        interval = pipeline.predict(test_X[0]).prediction_set
        assert math.isfinite(lower[0]) and upper[0] == math.inf
        assert (lower[0], upper[0]) == (interval.lower, interval.upper)


class TestPredictionSet:
    def test_small_incertitude_keeps_set(self):
        pred = HedgedPrediction(prediction_set=Interval(0.0, 1.0), incertitude=0.01)
        assert prediction_set(pred, 0.05) == Interval(0.0, 1.0)

    def test_large_incertitude_returns_whole_space(self):
        pred = HedgedPrediction(prediction_set=Interval(0.0, 1.0), incertitude=0.10)
        assert prediction_set(pred, 0.05) == FULL_LINE
        labels = HedgedPrediction(prediction_set=frozenset({1}), incertitude=0.10)
        assert prediction_set(labels, 0.05) == ALL_LABELS

    def test_boundary_incertitude_keeps_set(self):
        pred = HedgedPrediction(prediction_set=Interval(0.0, 1.0), incertitude=0.05)
        assert prediction_set(pred, 0.05) == Interval(0.0, 1.0)

    def test_epsilon_domain(self):
        pred = HedgedPrediction(prediction_set=Interval(0.0, 1.0), incertitude=0.5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                prediction_set(pred, bad)


class TestIncertitudeOrdering:
    def test_exact_relation_at_k0(self):
        for m in range(1, 201):
            assert exact_pvalue_k0(m) < 1.0 / (m + 1)

    def test_asymptotic_regime_small_k(self):
        m = 200
        for k in range(8):
            assert binary_irp_pvalue(m, k) < (k + 1) / (m + 1)
