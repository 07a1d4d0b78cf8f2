"""Randomness predictors over binary nonconformity summaries.

A library and CLI for hedged prediction with split (inductive) conformal
inference: fitted pipelines (a point predictor with its binary
nonconformity measure, residual or margin, and the one-count k of its m
calibration bits), an exact p-value engine that maximizes the worst-case
IID probability over Bernoulli rates, the rank-based conformal p-value it
improves on, a construction that strictly dominates the rank-based
p-value, and exact plus Monte Carlo validity oracles.

The p-value engine (the pvalues module) is imported with the package and
loads only the standard library's math, sys, functools and typing.  Every
other public name loads numpy, so it is imported from its module on first
access.
"""

from importlib import import_module

from . import pvalues
from .pvalues import *  # noqa: F401,F403

# Public names outside the engine, each with the submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("ALL_LABELS", "FULL_LINE", "DataSplit", "HedgedPrediction", "Interval",
         "PredictionSet", "SummarySequence"),
        "core",
    ),
    **dict.fromkeys(
        ("ClassifierSpec", "FittedPipeline", "RegressorSpec", "fit_classification_pipeline",
         "fit_regression_pipeline", "prediction_set"),
        "pipelines",
    ),
    **dict.fromkeys(
        ("ConstantClassifier", "HingeLossLinearClassifier", "LeastSquaresRegressor",
         "MeanRegressor", "PointPredictor"),
        "predictors",
    ),
    **dict.fromkeys(
        ("EXACT_M_LIMIT", "BoundedNoiseLinearGenerator", "DominanceResult", "DominanceWitness",
         "PipelineSpec", "TableRow", "ValidityCell", "ValidityReport", "audit_pvariable",
         "check_dominance", "monte_carlo_coverage", "reproduce_table_k", "urp_binary_event"),
        "validity",
    ),
}

__version__ = "0.1.0"

__all__ = [*pvalues.__all__, *_LAZY]


def __getattr__(name):
    """Import a lazy name (or a submodule) on first access, then keep it."""
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
