"""The record types: what each keeps of the frozen dataclass it was."""

import inspect
import pickle

import numpy as np
import pytest

from randpred import (
    BoundedNoiseLinearGenerator,
    ClassifierSpec,
    DataSplit,
    DominanceResult,
    DominanceWitness,
    FittedPipeline,
    HedgedPrediction,
    Interval,
    MeanRegressor,
    PipelineSpec,
    RegressorSpec,
    SummarySequence,
    TableRow,
    ValidityCell,
    ValidityReport,
)
from randpred.cli import CsvDataset

X = np.array([[0.0], [1.0], [2.0]])
Y = np.array([0.5, 1.5, 2.5])
PREDICTOR = MeanRegressor()
EXACT_CELL = ValidityCell("exceedance", 0.1, 0.05, True)
MC_CELL = ValidityCell("irp-miscoverage", 0.05, 0.01, True, 0.002, "2/200 trials")
WITNESS = DominanceWitness(2, 1, 0.25, 0.5)

# (type, its fields in order, a full positional construction, the
# arguments a construction from defaults takes, the defaults it gets,
# and one field given another value)
CASES = [
    (DataSplit, ("X", "y", "proper_size"), (X, Y, 2), (X, Y, 2), {}, ("proper_size", 1)),
    (Interval, ("lower", "upper"), (1.0, 2.0), (1.0, 2.0), {}, ("upper", 3.0)),
    (
        HedgedPrediction,
        ("prediction_set", "incertitude", "degenerate", "vacuous", "k", "m"),
        (Interval(0.0, 1.0), 0.25, False, True, 3, 10),
        (frozenset({1}), 0.25),
        {"degenerate": False, "vacuous": False, "k": None, "m": None},
        ("incertitude", 0.5),
    ),
    (RegressorSpec, ("kind",), ("mean",), (), {"kind": "least_squares"}, ("kind", "least_squares")),
    (
        ClassifierSpec,
        ("learning_rate", "epochs", "l2", "seed"),
        (0.25, 10, 0.01, 7),
        (),
        {"learning_rate": 0.5, "epochs": 200, "l2": 1e-3, "seed": None},
        ("seed", 8),
    ),
    (
        FittedPipeline,
        ("task", "predictor", "width", "k", "m"),
        ("regression", PREDICTOR, 0.5, 1, 10),
        ("regression", PREDICTOR, 0.5, 1, 10),
        {},
        ("k", 2),
    ),
    (
        CsvDataset,
        ("feature_names", "label_name", "X", "y"),
        (("x",), "y", X, Y),
        (("x",), "y", X, Y),
        {},
        ("label_name", "z"),
    ),
    (
        ValidityCell,
        ("name", "epsilon", "probability", "passed", "standard_error", "detail"),
        ("irp-miscoverage", 0.05, 0.01, True, 0.002, "2/200 trials"),
        ("exceedance", 0.1, 0.05, True),
        {"standard_error": None, "detail": ""},
        ("passed", False),
    ),
    (
        ValidityReport,
        ("mode", "cells", "m", "trials", "seed"),
        ("monte_carlo", (MC_CELL,), 30, 200, 7),
        ("exact", (EXACT_CELL,)),
        {"m": None, "trials": None, "seed": None},
        ("seed", 8),
    ),
    (
        BoundedNoiseLinearGenerator,
        (
            "coefficients",
            "intercept",
            "noise_half_width",
            "proper_size",
            "calibration_size",
            "feature_low",
            "feature_high",
        ),
        ((1.0,), 0.5, 0.1, 20, 10, -2.0, 2.0),
        (),
        {
            "coefficients": (1.5, -2.0),
            "intercept": 0.3,
            "noise_half_width": 0.25,
            "proper_size": 50,
            "calibration_size": 30,
            "feature_low": -1.0,
            "feature_high": 1.0,
        },
        ("intercept", 0.6),
    ),
    (
        PipelineSpec,
        ("method", "predictor"),
        ("irp", RegressorSpec("mean")),
        (),
        {"method": "both", "predictor": RegressorSpec()},
        ("method", "icp"),
    ),
    (
        SummarySequence,
        ("calibration_summaries", "test_summary", "k"),
        ((0, 1, 1), 0),
        ((0, 1, 1), 0),
        {"k": 2},
        ("test_summary", 1),
    ),
    (
        DominanceWitness,
        ("calibration_ones", "test_summary", "p1_value", "p2_value"),
        (2, 1, 0.25, 0.5),
        (2, 1, 0.25, 0.5),
        {},
        ("p2_value", 0.75),
    ),
    (
        DominanceResult,
        ("verdict", "witness"),
        ("strict", WITNESS),
        ("weak",),
        {"witness": None},
        ("verdict", "none"),
    ),
    (
        TableRow,
        ("k", "a_k", "icp_numerator", "ratio"),
        (1, 1.618, 2, 0.809),
        (1, 1.618, 2, 0.809),
        {},
        ("a_k", 1.7),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, args, minimal, defaults, change", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_behaves_as_its_frozen_dataclass_did(cls, fields, args, minimal, defaults, change):
    record = cls(*args)
    # keywords name the positional parameters, in order
    names = list(inspect.signature(cls).parameters)
    assert names == list(fields[: len(args)])
    # and each argument lands in its own field
    assert all(np.array_equal(getattr(record, f), a) for f, a in zip(fields, args))
    by_keyword = cls(**dict(zip(names, args)))
    from_defaults = cls(*minimal)
    assert {name: getattr(from_defaults, name) for name in defaults} == defaults
    name, value = change
    changed = cls(**{**dict(zip(names, args)), name: value})

    if cls is DataSplit:
        # equal fields, yet distinct splits
        assert record == record and hash(record) == hash(record)
        assert record != by_keyword and record != changed
    else:
        assert record == by_keyword and not record != by_keyword
        assert record != changed
        assert record != tuple(getattr(record, f) for f in fields)
        if cls is CsvDataset:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(by_keyword)
            assert len({record, by_keyword, changed}) == 2

    first = getattr(record, fields[0])
    for target in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, target, value)
        with pytest.raises(AttributeError):
            delattr(record, target)
    assert getattr(record, fields[0]) is first

    assert repr(record) == (
        f"{cls.__name__}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"
    )

    # pickling (and so copying) restores every field
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls
    for f in fields:
        assert pickle.dumps(getattr(restored, f)) == pickle.dumps(getattr(record, f))


def test_repr_of_nested_records():
    prediction = HedgedPrediction(Interval(-1, 2), 0.25, k=0, m=30)
    assert repr(prediction) == (
        "HedgedPrediction(prediction_set=Interval(lower=-1.0, upper=2.0), incertitude=0.25, "
        "degenerate=False, vacuous=False, k=0, m=30)"
    )
    assert repr(PipelineSpec()) == (
        "PipelineSpec(method='both', predictor=RegressorSpec(kind='least_squares'))"
    )
    # None takes the default predictor, as the dataclass's default factory gave it
    assert PipelineSpec("irp", None) == PipelineSpec("irp")
