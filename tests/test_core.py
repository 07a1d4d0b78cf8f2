import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randpred import (
    ALL_LABELS,
    FULL_LINE,
    DataSplit,
    Example,
    HedgedPrediction,
    Interval,
    SummarySequence,
    split_training,
)


def ex(label, features=(0.0,)):
    return Example(features=tuple(features), label=label)


class TestExample:
    def test_coerces_features_to_floats(self):
        e = Example(features=(1, 2), label=3)
        assert e.features == (1.0, 2.0)
        assert e.label == 3.0

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError):
            Example(features=(math.inf,), label=0.0)
        with pytest.raises(ValueError):
            Example(features=(math.nan, 1.0), label=0.0)

    def test_rejects_nonfinite_label(self):
        with pytest.raises(ValueError):
            Example(features=(1.0,), label=math.nan)


class TestSplitTraining:
    def test_basic_split(self):
        split = split_training([ex(1.0, (0.5,)), ex(2.0, (1.5,)), ex(3.0, (2.5,))], 2)
        X, y = split.proper
        assert X.tolist() == [[0.5], [1.5]] and y.tolist() == [1.0, 2.0]
        X, y = split.calibration
        assert X.tolist() == [[2.5]] and y.tolist() == [3.0]

    def test_minimal_legal_sizes(self):
        split = split_training([ex(1.0), ex(2.0)], 1)
        assert split.proper[1].tolist() == [1.0]
        assert split.calibration[1].tolist() == [2.0]

    def test_calibration_must_be_nonempty(self):
        with pytest.raises(ValueError):
            split_training([ex(1.0), ex(2.0)], 2)

    def test_proper_must_be_nonempty(self):
        with pytest.raises(ValueError):
            split_training([ex(1.0), ex(2.0)], 0)

    def test_rejects_non_integer_size(self):
        with pytest.raises(TypeError):
            split_training([ex(1.0), ex(2.0)], 1.5)

    def test_rejects_ragged_features(self):
        with pytest.raises(ValueError, match="same number of features"):
            split_training([ex(1.0, (0.0,)), ex(2.0, (0.0, 1.0))], 1)

    @given(labels=st.lists(st.floats(-10, 10), min_size=2, max_size=30), data=st.data())
    def test_preserves_order_and_multiset(self, labels, data):
        examples = [ex(v, (i,)) for i, v in enumerate(labels)]
        l = data.draw(st.integers(1, len(examples) - 1))
        split = split_training(examples, l)
        rows = [
            Example(tuple(x), label)
            for part in (split.proper, split.calibration)
            for x, label in zip(*part)
        ]
        assert rows == examples
        assert split.proper_size + split.calibration_size == split.total_size == len(examples)


class TestDataSplit:
    def test_requires_both_parts(self):
        with pytest.raises(ValueError):
            DataSplit(np.zeros((1, 1)), np.zeros(1), 0)
        with pytest.raises(ValueError):
            DataSplit(np.zeros((1, 1)), np.zeros(1), 1)

    def test_checks_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            DataSplit(np.zeros(3), np.zeros(3), 1)
        with pytest.raises(ValueError, match="shape"):
            DataSplit(np.zeros((3, 1)), np.zeros(2), 1)
        with pytest.raises(TypeError):
            DataSplit(np.zeros((3, 1)), np.zeros(3), 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        X, y = np.zeros((3, 2)), np.zeros(3)
        with pytest.raises(ValueError, match="finite"):
            DataSplit(np.where(np.eye(3, 2) == 1, bad, X), y, 1)
        with pytest.raises(ValueError, match="finite"):
            DataSplit(X, np.array([0.0, bad, 0.0]), 1)

    def test_holds_read_only_copies(self):
        X, y = np.arange(6.0).reshape(3, 2), np.arange(3.0)
        split = DataSplit(X, y, 2)
        X[0, 0] = y[0] = 99.0
        assert split.X[0, 0] == 0.0 and split.y[0] == 0.0
        with pytest.raises(ValueError):
            split.X[0, 0] = 1.0
        assert split.calibration[0].tolist() == [[4.0, 5.0]]



class TestSummarySequence:
    def test_counts_ones(self):
        seq = SummarySequence(calibration_summaries=(0, 1, 0, 1), test_summary=1)
        assert seq.k == 2
        assert seq.m == 4
        assert seq.test_summary == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            SummarySequence(calibration_summaries=(0, 2), test_summary=0)
        with pytest.raises(ValueError):
            SummarySequence(calibration_summaries=(0, 1), test_summary=3)

    def test_rejects_empty_calibration(self):
        with pytest.raises(ValueError):
            SummarySequence(calibration_summaries=(), test_summary=0)

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40), data=st.data())
    def test_k_invariant_under_permutation(self, bits, data):
        permuted = data.draw(st.permutations(bits))
        a = SummarySequence(calibration_summaries=tuple(bits), test_summary=0)
        b = SummarySequence(calibration_summaries=tuple(permuted), test_summary=0)
        assert a.k == b.k


class TestInterval:
    def test_contains_is_closed(self):
        iv = Interval(-1.0, 2.0)
        assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.5)
        assert not iv.contains(-1.0000001)
        assert iv.width == 3.0

    def test_full_line_contains_everything(self):
        assert FULL_LINE.contains(1e300) and FULL_LINE.contains(-1e300)

    def test_rejects_inverted_or_nan(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)


class TestHedgedPrediction:
    def test_incertitude_one_is_degenerate(self):
        pred = HedgedPrediction(prediction_set=FULL_LINE, incertitude=1.0)
        assert pred.degenerate

    def test_incertitude_range(self):
        with pytest.raises(ValueError):
            HedgedPrediction(prediction_set=FULL_LINE, incertitude=1.5)
        with pytest.raises(ValueError):
            HedgedPrediction(prediction_set=FULL_LINE, incertitude=-0.1)

    def test_contains_dispatches_on_set_type(self):
        labels = HedgedPrediction(prediction_set=frozenset({1}), incertitude=0.1)
        assert labels.contains(1) and not labels.contains(-1)
        iv = HedgedPrediction(prediction_set=Interval(0.0, 1.0), incertitude=0.1)
        assert iv.contains(0.5) and not iv.contains(2.0)

    def test_all_labels_constant(self):
        assert ALL_LABELS == frozenset({-1, 1})
