"""Randomness predictors over binary nonconformity summaries.

A library and CLI for hedged prediction with split (inductive) conformal
inference: fitted pipelines (a point predictor with its binary
nonconformity measure, residual or margin, and the one-count k of its m
calibration bits), an exact p-value engine that maximizes the worst-case
IID probability over Bernoulli rates, the rank-based conformal p-value it
improves on, a construction that strictly dominates the rank-based
p-value, and exact plus Monte Carlo validity oracles (the audits and
validity modules, which share only the report types of reports).

The p-value engine (the pvalues module) is imported with the package and
loads only the standard library's math, operator, sys, functools and
typing.  Every other public name is imported from its module on first
access: most load numpy, and the rank-based p-values and the p-variables
(the ranks module) are left out of the engine, which is compiled on
import.
"""

from importlib import import_module

from . import pvalues
from .pvalues import *  # noqa: F401,F403

# Public names outside the engine, each with the submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("ALL_LABELS", "EXACT_M_LIMIT", "FULL_LINE", "DataSplit", "HedgedPrediction",
         "Interval", "PredictionSet"),
        "core",
    ),
    **dict.fromkeys(
        ("DominanceResult", "DominanceWitness", "SummarySequence", "TableRow",
         "audit_pvariable", "check_dominance", "reproduce_table_k", "urp_binary_event"),
        "audits",
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
        ("BoundedNoiseLinearGenerator", "PipelineSpec", "monte_carlo_coverage"),
        "validity",
    ),
    **dict.fromkeys(("ValidityCell", "ValidityReport"), "reports"),
    **dict.fromkeys(
        ("binary_irp_pvariable", "dominating_pvalue", "dominating_pvariable", "icp_pvalue",
         "icp_pvariable"),
        "ranks",
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
