import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    ALL_LABELS,
    FULL_LINE,
    ClassifierSpec,
    DataSplit,
    HedgedPrediction,
    Interval,
    MeanRegressor,
    PipelineSpec,
    RegressorSpec,
    SummarySequence,
    binary_irp_pvalue,
    binary_irp_pvariable,
    exact_pvalue_k0,
    FittedPipeline,
    fit_classification_pipeline,
    fit_regression_pipeline,
    icp_pvariable,
    prediction_set,
)
from randpred.cli import main
from randpred.pipelines import _incertitude, _margin_bits
from randpred.pvalues import METHODS


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

    def test_mean_fallback_rejects_other_widths(self):
        # the rank-deficient fallback answers rows of the fitted width only,
        # as a full-rank least-squares pipeline does
        pipeline = fit_regression_pipeline(DataSplit(np.zeros((6, 2)), np.arange(6.0), 3))
        assert pipeline.fallback_reason is not None
        with pytest.raises(ValueError, match=r"expected X of shape \(n, 2\), got \(1, 4\)"):
            pipeline.predict((1.0, 2.0, 3.0, 4.0))

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

    def test_single_class_fallback_rejects_other_widths(self):
        X = np.zeros((6, 2))
        split = DataSplit(X, np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), 3)
        pipeline = fit_classification_pipeline(split)
        assert pipeline.fallback_reason is not None
        assert pipeline.predict((1.0, 2.0)).prediction_set == frozenset({1})
        with pytest.raises(ValueError, match=r"expected X of shape \(n, 2\), got \(1, 1\)"):
            pipeline.predict((1.0,))

    def test_icp_incertitude_value(self):
        split = cls_split(seed=11)
        pred = predict_classification(split, (0.9, 0.9), "icp")
        assert pred.incertitude == pytest.approx((pred.k + 1) / (pred.m + 1), abs=1e-15)


def _sequence(m, k, test_summary=1):
    return SummarySequence((1,) * k + (0,) * (m - k), test_summary)


class TestMethodTable:
    """Each method's value at (m, k) is defined once, in pvalues.METHODS:
    the incertitude predict prints is the audited p-variable's value."""

    @pytest.mark.parametrize(
        "method, pvariable", [("irp", binary_irp_pvariable), ("icp", icp_pvariable)]
    )
    def test_printed_incertitude_is_the_audited_value(self, method, pvariable):
        for m in range(1, 21):
            for k in range(m + 1):
                assert _incertitude(method, m, k) == float(pvariable(_sequence(m, k)))

    def test_one_rule_changes_every_reader(self, monkeypatch):
        monkeypatch.setitem(METHODS, "icp", lambda m, k, ratio: ratio(k + 2, m + 2))
        pipeline = FittedPipeline("regression", MeanRegressor(), 1.0, 3, 10)
        assert pipeline.incertitude("icp") == 5 / 12
        assert icp_pvariable(_sequence(10, 3)) == Fraction(5, 12)
        result = CliRunner().invoke(main, ["pvalue", "--m", "10", "--k", "3"])
        assert "rank p-value   : 0.416666666667  (5/12)" in result.output

    def test_names_come_from_the_table(self):
        assert list(METHODS) == ["irp", "icp"]
        with pytest.raises(ValueError, match="^method must be 'irp' or 'icp', got 'bayes'$"):
            _incertitude("bayes", 5, 1)
        with pytest.raises(ValueError, match=r"^method must be 'irp' or 'icp', got \['irp'\]$"):
            _incertitude(["irp"], 5, 1)
        message = "^method must be 'irp', 'icp', or 'both', got 'bayes'$"
        with pytest.raises(ValueError, match=message):
            PipelineSpec(method="bayes")


class TestFittedPipelineFields:
    """The ranges of the fields; their types are rows of test_boundary."""

    @pytest.mark.parametrize(
        "width, k, m, message",
        [
            (-1.0, 0, 10, "width must be nonnegative, got -1.0"),
            (1.0, 1.5, 10, "k must be an integer in [0, m=10], got 1.5"),
            (1.0, 11, 10, "k must be an integer in [0, m=10], got 11"),
            (1.0, -1, 10, "k must be an integer in [0, m=10], got -1"),
            (1.0, 0, 0, "m must be a positive integer, got 0"),
        ],
    )
    def test_invalid_fields_raise(self, width, k, m, message):
        with pytest.raises(ValueError) as info:
            FittedPipeline("regression", MeanRegressor(), width, k, m)
        assert str(info.value) == message


class TestFittedPipelineTask:
    """A pipeline's task decides its set method; the other one raises."""

    def test_interval_bounds_on_classification_raises(self):
        pipeline = fit_classification_pipeline(cls_split())
        with pytest.raises(ValueError, match="interval_bounds needs a regression pipeline"):
            pipeline.interval_bounds(np.zeros((2, 2)))

    def test_label_sets_on_regression_raises(self):
        pipeline = fit_regression_pipeline(linear_split())
        with pytest.raises(ValueError, match="label_sets needs a classification pipeline"):
            pipeline.label_sets(np.zeros((2, 2)))

    def test_fields(self):
        regression = fit_regression_pipeline(linear_split())
        classification = fit_classification_pipeline(cls_split())
        assert (regression.task, classification.task) == ("regression", "classification")
        assert classification.width == 1.0  # the margin, in score units

    def test_fallback_reason_is_the_predictors(self):
        split = DataSplit(np.zeros((6, 2)), np.arange(6.0), 3)
        pipeline = fit_regression_pipeline(split)
        assert pipeline.fallback_reason is pipeline.predictor.fallback_reason
        assert "rank-deficient" in pipeline.fallback_reason
        # a predictor without the attribute never falls back
        assert fit_regression_pipeline(split, RegressorSpec("mean")).fallback_reason is None

    @pytest.mark.parametrize(
        "task, width, match",
        [("ranking", 1.0, "task"), ("regression", -1.0, "width"),
         ("regression", math.nan, "width")],
    )
    def test_rejected_at_construction(self, task, width, match):
        predictor = fit_regression_pipeline(linear_split()).predictor
        with pytest.raises(ValueError, match=match):
            FittedPipeline(task, predictor, width, 0, 1)


class TestOnePassFitMatchesPublicCalls:
    """fit_regression_pipeline takes the half-width and the calibration
    bits from one prediction pass over the whole split; they are those of
    a predictor fitted on the proper part alone, with the numpy residuals
    of each part predicted separately: the half-width is the largest
    proper residual, and a bit is 1 iff its residual strictly exceeds it."""

    @staticmethod
    def assert_matches(split, spec=None):
        pipeline = fit_regression_pipeline(split, spec)
        predictor = (spec or RegressorSpec()).build().fit(*split.proper)
        (X, y), (cal_X, cal_y) = split.proper, split.calibration
        width = np.abs(y - predictor.predict_batch(X)).max()
        bits = (np.abs(cal_y - predictor.predict_batch(cal_X)) > width).astype(int)
        assert pipeline.width == width
        assert (pipeline.k, pipeline.m) == (int(bits.sum()), len(bits))
        assert pipeline.fallback_reason == getattr(predictor, "fallback_reason", None)
        assert np.array_equal(
            pipeline.predictor.predict_batch(split.X), predictor.predict_batch(split.X)
        )
        return pipeline, bits

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["least_squares", "mean"]),
        deficient=st.booleans(),
        l=st.integers(1, 40),
        m=st.integers(1, 30),
        d=st.integers(1, 3),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
    )
    def test_random_splits(self, seed, kind, deficient, l, m, d, scale):
        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((l + m, d))
        if deficient:
            X[:, 0] = 1.0  # collinear with the intercept
        y = X @ rng.standard_normal(d) + scale * rng.uniform(-1.0, 1.0, l + m)
        pipeline, _ = self.assert_matches(DataSplit(X, y, l), RegressorSpec(kind))
        if kind == "least_squares" and deficient:
            assert "rank-deficient" in pipeline.fallback_reason

    def test_rank_deficient_fallback(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, 3.0], [1.0, 1.0]])
        y = np.array([2.0, 4.0, 1.0, 9.0, 2.5])
        pipeline, bits = self.assert_matches(DataSplit(X, y, 3))
        assert "rank-deficient" in pipeline.fallback_reason
        # mean 7/3 and half-width 5/3 from the proper labels 2, 4, 1
        assert bits.tolist() == [1, 0]

    def test_residual_equal_to_half_width_conforms(self):
        # g == 1 and h == 1; the calibration residuals are 2, 1, 1, 2
        split = mean_split([0.0, 2.0], [3.0, 2.0, 0.0, -1.0])
        pipeline, bits = self.assert_matches(split, RegressorSpec("mean"))
        assert pipeline.width == 1.0
        assert bits.tolist() == [1, 0, 0, 1]
        assert pipeline.k == 2


class TestIcpIncertitudeByIntegerDivision:
    """(k + 1) / (m + 1) in int true division is the float of the exact
    fraction, well past 2**53, where a float division of the operands
    would round them first."""

    @pytest.mark.parametrize("m", [2**53 - 1, 2**53 + 1, 10**17 + 1, 10**300])
    def test_large_m(self, m):
        pipeline = fit_regression_pipeline(linear_split())
        for k in (0, 1, 2, 7, 2**52 + 1, m // 3, m // 2, m - 2, m - 1, m):
            at = FittedPipeline(pipeline.task, pipeline.predictor, pipeline.width, k, m)
            assert at.incertitude("icp") == float(Fraction(k + 1, m + 1))

    @settings(max_examples=200)
    @given(m=st.integers(1, 10**40), share=st.fractions(0, 1))
    def test_random_k_and_m(self, m, share):
        k = int(m * share)
        fitted = fit_regression_pipeline(linear_split())
        pipeline = FittedPipeline(fitted.task, fitted.predictor, fitted.width, k, m)
        assert pipeline.incertitude("icp") == float(Fraction(k + 1, m + 1))


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
        centers = [pipeline.predictor.predict_batch([x])[0] for x in cal_X]
        bits = [abs(v - c) > pipeline.width for v, c in zip(cal_y, centers)]
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
        scores = [pipeline.predictor.predict_batch([x]) for x in X[l:]]
        bits = [_margin_bits(score, np.array([v]))[0] for score, v in zip(scores, y[l:])]
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
        # scores that overflow to +-inf, or to inf - inf, warn nowhere; a
        # score of +-inf is signed, one of inf - inf = nan is rejected
        pipeline = fit_classification_pipeline(cls_split())
        X = np.array([[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308], [1.7e308, -1.7e308]])
        sets = pipeline.label_sets(X[:2])
        assert sets == [pipeline.predict(x).prediction_set for x in X[:2]]
        assert sets == [frozenset({1}), frozenset({-1})]
        with pytest.raises(ValueError, match="test row 3: score nan is not a number"):
            pipeline.label_sets(X)
        for x in X[2:]:
            with pytest.raises(ValueError, match="test row 1: score nan"):
                pipeline.predict(x)

    def test_label_sets_reject_nan(self):
        split = DataSplit(np.array([[-1.0], [1.0], [-1.0], [1.0]]), np.array([-1.0, 1.0] * 2), 2)
        pipeline = fit_classification_pipeline(split)
        assert pipeline.fallback_reason is None
        with pytest.raises(ValueError, match="invalid label set: test row 1: score nan"):
            pipeline.label_sets(np.array([[np.nan], [3.0]]))
        with pytest.raises(ValueError, match="invalid label set: test row 1: score nan"):
            pipeline.predict([np.nan])
        assert pipeline.label_sets(np.array([[3.0], [-3.0]])) == [frozenset({1}), frozenset({-1})]

    def test_single_class_fallback_scores_stay_valid(self):
        # the constant classifier scores every row +-inf, a NaN row too
        split = DataSplit(np.zeros((4, 1)), np.array([1.0, 1.0, -1.0, 1.0]), 2)
        pipeline = fit_classification_pipeline(split)
        assert pipeline.fallback_reason is not None
        X = np.array([[np.nan], [1e308], [0.0]])
        assert pipeline.label_sets(X) == [frozenset({1})] * 3
        assert pipeline.predict([5.0]).prediction_set == frozenset({1})

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
