"""Every public integer and real argument against one table of inputs.

The package has one integer rule (pvalues._integer) and one rule for
reals (pvalues._real).  Each site below feeds its argument the same inputs:
the rejected ones must raise the site's own exception, with its message,
and the accepted ones must be stored, or used, as the Python int or
float they stand for.  A hedged prediction's set, a constant
classifier's label, the spec and generator arguments and a generator's
coefficients have tables of their own.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from randpred import (
    ALL_LABELS,
    FULL_LINE,
    BoundedNoiseLinearGenerator,
    ClassifierSpec,
    ConstantClassifier,
    DataSplit,
    FittedPipeline,
    HedgedPrediction,
    HingeLossLinearClassifier,
    Interval,
    MeanRegressor,
    PipelineSpec,
    RegressorSpec,
    asymptotic_constant,
    audit_pvariable,
    binary_irp_pvalue,
    check_dominance,
    dominating_pvariable,
    exact_pvalue_k0,
    fit_classification_pipeline,
    fit_regression_pipeline,
    icp_pvariable,
    maximize_objective,
    monte_carlo_coverage,
    objective,
    optimal_p_k1,
    prediction_set,
    reproduce_table_k,
    urp_binary_event,
)

# (value, accepted): each accepted value stands for 3 or 0.5.
INTEGERS = [
    (True, False),
    (np.True_, False),
    (3.0, False),
    ("3", False),
    (None, False),
    (np.int64(3), True),
    (np.uint16(3), True),
    (np.array(3), True),
]
REALS = [
    ("0.5", False),
    (True, False),
    (np.float32(0.5), True),
    (np.array(0.5), True),
    (np.array([0.5]), False),
    (Fraction(1, 2), True),
    (10**400, False),
    (math.nan, False),
]

M_ERROR = "m must be an integer from 1 to the largest float, 1.79769e+308; got "
EXACT_M_ERROR = "m must be an integer from 1 to 20, got "
ROWS = np.arange(10.0)


def _split(size):
    return DataSplit(ROWS[:, np.newaxis], ROWS, size).proper_size


# site: (call, exception, message prefix).  call(value) returns the value
# the site stores where it keeps one, else its result.
INTEGER_SITES = {
    "binary_irp_pvalue-m": (lambda v: binary_irp_pvalue(v, 1), ValueError, M_ERROR),
    "binary_irp_pvalue-k": (
        lambda v: binary_irp_pvalue(5, v), ValueError, "k must be an integer in [0, m=5], got "
    ),
    "maximize_objective-m": (lambda v: maximize_objective(v, 1), ValueError, M_ERROR),
    "maximize_objective-k": (
        lambda v: maximize_objective(5, v), ValueError, "k must be an integer in [0, m=5], got "
    ),
    "objective-m": (lambda v: objective(v, 1, 0.25), ValueError, M_ERROR),
    "objective-k": (
        lambda v: objective(5, v, 0.25), ValueError, "k must be an integer in [0, m=5], got "
    ),
    "exact_pvalue_k0-m": (exact_pvalue_k0, ValueError, M_ERROR),
    "optimal_p_k1-m": (
        optimal_p_k1, ValueError, "m must be an integer from 2 to the largest float, "
    ),
    "asymptotic_constant-k": (
        lambda v: asymptotic_constant(v).k, ValueError, "k must be a nonnegative integer, got "
    ),
    "urp_binary_event-m": (
        lambda v: urp_binary_event(v, lambda bits, test: test == 1), ValueError, EXACT_M_ERROR
    ),
    "audit_pvariable-m": (lambda v: audit_pvariable(icp_pvariable, v).m, ValueError, EXACT_M_ERROR),
    "check_dominance-m": (
        lambda v: check_dominance(dominating_pvariable, icp_pvariable, v), ValueError, EXACT_M_ERROR
    ),
    "reproduce_table_k-k_max": (
        reproduce_table_k, ValueError, "k_max must be a nonnegative integer, got "
    ),
    "BoundedNoiseLinearGenerator-proper_size": (
        lambda v: BoundedNoiseLinearGenerator(proper_size=v).proper_size,
        ValueError,
        "proper_size must be a positive int, got ",
    ),
    "BoundedNoiseLinearGenerator-calibration_size": (
        lambda v: BoundedNoiseLinearGenerator(calibration_size=v).calibration_size,
        ValueError,
        "calibration_size must be a positive int, got ",
    ),
    "monte_carlo_coverage-trials": (
        lambda v: monte_carlo_coverage(None, None, 0.05, v, 0).trials,
        ValueError,
        "trials must be a positive integer, got ",
    ),
    "monte_carlo_coverage-seed": (
        lambda v: monte_carlo_coverage(None, None, 0.05, 3, v).seed,
        ValueError,
        "seed must be a nonnegative integer, got ",
    ),
    "HingeLossLinearClassifier-epochs": (
        lambda v: HingeLossLinearClassifier(epochs=v).epochs,
        ValueError,
        "epochs must be an int of at least 1, got ",
    ),
    "HingeLossLinearClassifier-seed": (
        lambda v: HingeLossLinearClassifier(seed=v).seed,
        ValueError,
        "seed must be None or a nonnegative integer, got ",
    ),
    "ClassifierSpec-epochs": (
        lambda v: ClassifierSpec(epochs=v).epochs,
        ValueError,
        "epochs must be an int of at least 1, got ",
    ),
    "ClassifierSpec-seed": (
        lambda v: ClassifierSpec(seed=v).seed,
        ValueError,
        "seed must be None or a nonnegative integer, got ",
    ),
    "DataSplit-proper_size": (_split, TypeError, "proper_size must be an int, got "),
    "HedgedPrediction-k": (
        lambda v: HedgedPrediction(Interval(0.0, 1.0), 0.5, k=v, m=5).k,
        ValueError,
        "k must be None or an integer from 0 to m, got ",
    ),
    "HedgedPrediction-m": (
        lambda v: HedgedPrediction(Interval(0.0, 1.0), 0.5, k=0, m=v).m,
        ValueError,
        "m must be None or a positive integer, got ",
    ),
    "FittedPipeline-k": (
        lambda v: FittedPipeline("regression", MeanRegressor(), 1.0, v, 5).k,
        ValueError,
        "k must be an integer in [0, m=5], got ",
    ),
    "FittedPipeline-m": (
        lambda v: FittedPipeline("regression", MeanRegressor(), 1.0, 0, v).m,
        ValueError,
        "m must be a positive integer, got ",
    ),
}
# None is a seed: no seed at all; and a hedged prediction without its (k, m)
NONE_ACCEPTED = {
    "HingeLossLinearClassifier-seed",
    "ClassifierSpec-seed",
    "HedgedPrediction-k",
    "HedgedPrediction-m",
}


def _generator(name):
    def call(v):
        if name == "coefficients":
            return BoundedNoiseLinearGenerator(coefficients=(v,)).coefficients[0]
        return getattr(BoundedNoiseLinearGenerator(**{name: v}), name)

    return call


REAL_SITES = {
    "Interval-lower": (lambda v: Interval(v, 2.0).lower, ValueError, "invalid interval ["),
    "Interval-upper": (lambda v: Interval(0.0, v).upper, ValueError, "invalid interval ["),
    "HedgedPrediction-incertitude": (
        lambda v: HedgedPrediction(Interval(0.0, 1.0), v).incertitude,
        ValueError,
        "incertitude must lie in [0, 1], got ",
    ),
    "objective-p": (lambda v: objective(5, 1, v), ValueError, "p must lie in [0, 1], got "),
    "FittedPipeline-width": (
        lambda v: FittedPipeline("regression", MeanRegressor(), v, 0, 5).width,
        ValueError,
        "width must be nonnegative, got ",
    ),
    "prediction_set-epsilon": (
        lambda v: prediction_set(HedgedPrediction(Interval(0.0, 1.0), 0.5), v),
        ValueError,
        "epsilon must lie in (0, 1), got ",
    ),
    "monte_carlo_coverage-epsilon": (
        lambda v: monte_carlo_coverage(None, None, v, 3, 0).cells[0].epsilon,
        ValueError,
        "epsilon must lie in (0, 1), got ",
    ),
    "HingeLossLinearClassifier-learning_rate": (
        lambda v: HingeLossLinearClassifier(learning_rate=v).learning_rate,
        ValueError,
        "learning_rate must be positive and finite, got ",
    ),
    "HingeLossLinearClassifier-l2": (
        lambda v: HingeLossLinearClassifier(l2=v).l2,
        ValueError,
        "l2 must be nonnegative and finite, got ",
    ),
    "ClassifierSpec-learning_rate": (
        lambda v: ClassifierSpec(learning_rate=v).learning_rate,
        ValueError,
        "learning_rate must be positive and finite, got ",
    ),
    "ClassifierSpec-l2": (
        lambda v: ClassifierSpec(l2=v).l2,
        ValueError,
        "l2 must be nonnegative and finite, got ",
    ),
    **{
        f"BoundedNoiseLinearGenerator-{name}": (
            _generator(name),
            ValueError,
            f"{name} must be a finite float, got ",
        )
        for name in ("coefficients", "intercept", "noise_half_width", "feature_low", "feature_high")
    },
}


def _check(site, call, exception, prefix, value, accepted, plain):
    if accepted:
        result, expected = call(value), call(plain)
        assert result == expected
        assert type(result) is type(expected)
    elif value is None and site in NONE_ACCEPTED:
        assert call(value) is None
    else:
        with pytest.raises(exception) as info:
            call(value)
        assert str(info.value).startswith(prefix)


@pytest.mark.parametrize("value, accepted", INTEGERS, ids=repr)
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_arguments(site, value, accepted):
    _check(site, *INTEGER_SITES[site], value, accepted, 3)


@pytest.mark.parametrize("value, accepted", REALS, ids=lambda v: repr(v)[:20])
@pytest.mark.parametrize("site", REAL_SITES)
def test_real_arguments(site, value, accepted):
    _check(site, *REAL_SITES[site], value, accepted, 0.5)


@pytest.mark.parametrize(
    "k, m, message",
    [
        (4, 3, "k must be None or an integer from 0 to m, got 4"),
        (-1, 3, "k must be None or an integer from 0 to m, got -1"),
        (-1, None, "k must be None or an integer from 0 to m, got -1"),
        (0, 0, "m must be None or a positive integer, got 0"),
        (None, np.int64(-2), "m must be None or a positive integer, got -2"),
    ],
)
def test_hedged_prediction_k_and_m_ranges(k, m, message):
    with pytest.raises(ValueError) as info:
        HedgedPrediction(Interval(0.0, 1.0), 0.5, k=k, m=m)
    assert str(info.value) == message


# (value, accepted): a prediction set is an Interval or a nonempty
# frozenset of the labels -1 and 1.  A tuple would pass for a label set
# in prediction_set, and a mutable set would leave the record unhashable.
PREDICTION_SETS = [
    (Interval(0.0, 1.0), True),
    (FULL_LINE, True),
    (frozenset({1}), True),
    (frozenset({-1}), True),
    (ALL_LABELS, True),
    ((0.0, 1.0), False),
    ("abc", False),
    (None, False),
    (frozenset(), False),
    (frozenset({2}), False),
    (frozenset({-1, 1, 2}), False),
    ({1}, False),
    ([1], False),
]


@pytest.mark.parametrize("value, accepted", PREDICTION_SETS, ids=repr)
def test_hedged_prediction_set_argument(value, accepted):
    if accepted:
        prediction = HedgedPrediction(value, 0.5)
        assert prediction.prediction_set is value
        hash(prediction)
    else:
        with pytest.raises(ValueError) as info:
            HedgedPrediction(value, 0.5)
        assert str(info.value) == (
            "prediction_set must be an Interval or a nonempty frozenset of -1 and 1, "
            f"got {value!r}"
        )


# (value, accepted): a constant classifier's label goes through the
# integer rule, then must be -1 or +1; each accepted value stands for +1.
LABELS = [
    (1, True),
    (np.int64(1), True),
    (np.int8(1), True),
    (np.array(1), True),
    (True, False),
    (np.True_, False),
    (1.0, False),
    ("1", False),
    (None, False),
    (np.array([1]), False),
    (0, False),
    (np.int64(0), False),
    (2, False),
]


@pytest.mark.parametrize("value, accepted", LABELS, ids=repr)
def test_constant_classifier_label(value, accepted):
    if accepted:
        for sign in (1, -1):
            scores = ConstantClassifier(sign * value).predict_batch(np.zeros((2, 1)))
            assert scores.tolist() == [sign * math.inf] * 2
    else:
        with pytest.raises(ValueError) as info:
            ConstantClassifier(value)
        shown = int(value) if isinstance(value, np.integer) else value
        assert str(info.value) == f"label must be -1 or +1, got {shown!r}"


def _fitted(pipeline):
    return pipeline.task, pipeline.width, pipeline.k, pipeline.m


# site: (call, argument name, class).  Each spec or generator argument
# takes None, for its class's default, or an instance of its class, and
# raises ValueError naming any other value.
SPEC_SITES = {
    "monte_carlo_coverage-pipeline_spec": (
        lambda v: monte_carlo_coverage(v, None, 0.05, 3, 0), "pipeline_spec", PipelineSpec
    ),
    "monte_carlo_coverage-data_generator_spec": (
        lambda v: monte_carlo_coverage(None, v, 0.05, 3, 0),
        "data_generator_spec",
        BoundedNoiseLinearGenerator,
    ),
    "PipelineSpec-predictor": (lambda v: PipelineSpec(predictor=v), "predictor", RegressorSpec),
    "fit_regression_pipeline-predictor_spec": (
        lambda v: _fitted(fit_regression_pipeline(DataSplit(ROWS[:, np.newaxis], ROWS, 5), v)),
        "predictor_spec",
        RegressorSpec,
    ),
    "fit_classification_pipeline-classifier_spec": (
        lambda v: _fitted(
            fit_classification_pipeline(DataSplit(ROWS[:, np.newaxis], ROWS % 2 * 2 - 1, 5), v)
        ),
        "classifier_spec",
        ClassifierSpec,
    ),
}
SPECS = [
    None,
    PipelineSpec(),
    BoundedNoiseLinearGenerator(),
    RegressorSpec(),
    RegressorSpec("mean"),
    ClassifierSpec(),
    MeanRegressor(),
    "least_squares",
    5,
]


@pytest.mark.parametrize("value", SPECS, ids=lambda v: repr(v)[:30])
@pytest.mark.parametrize("site", SPEC_SITES)
def test_spec_arguments(site, value):
    call, name, cls = SPEC_SITES[site]
    if value is None:
        assert call(value) == call(cls())
    elif isinstance(value, cls):
        call(value)
    else:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be None or a {cls.__name__}, got {value!r}"


# (value, accepted): a generator's coefficients are a nonempty sequence of
# finite reals, kept as a tuple of floats; each accepted value stands for
# (1.5, -2.0).
COEFFICIENTS = [
    ((1.5, -2.0), True),
    ([1.5, -2.0], True),
    (np.array([1.5, -2.0]), True),
    ((np.float32(1.5), Fraction(-2)), True),
    (5, False),
    (np.array(5.0), False),
    (None, False),
    ((), False),
    (("1.5", "-2.0"), False),
]


@pytest.mark.parametrize("value, accepted", COEFFICIENTS, ids=repr)
def test_generator_coefficients(value, accepted):
    if accepted:
        coefficients = BoundedNoiseLinearGenerator(coefficients=value).coefficients
        assert coefficients == (1.5, -2.0) and all(type(c) is float for c in coefficients)
    else:
        with pytest.raises(ValueError, match="^coefficients must be"):
            BoundedNoiseLinearGenerator(coefficients=value)
