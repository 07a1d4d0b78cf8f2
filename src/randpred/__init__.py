"""Randomness predictors over binary nonconformity summaries.

A library and CLI for hedged prediction with split (inductive) conformal
inference: binary nonconformity measures, an exact p-value engine that
maximizes the worst-case IID probability over Bernoulli rates, the
rank-based conformal p-value it improves on, a construction that strictly
dominates the rank-based p-value, and exact plus Monte Carlo validity
oracles.
"""

from .core import (
    ALL_LABELS,
    FULL_LINE,
    DataSplit,
    HedgedPrediction,
    Interval,
    PredictionSet,
    SummarySequence,
)
from .pipelines import (
    FittedPipeline,
    fit_classification_pipeline,
    fit_regression_pipeline,
    prediction_set,
)
from .predictors import (
    ConstantClassifier,
    HingeLossLinearClassifier,
    LeastSquaresRegressor,
    MeanRegressor,
    PointPredictor,
)
from .pvalues import (
    AsymptoticConstant,
    asymptotic_constant,
    binary_irp_pvalue,
    binary_irp_pvariable,
    dominating_pvalue,
    dominating_pvariable,
    exact_pvalue_k0,
    icp_pvalue,
    icp_pvariable,
    maximize_objective,
    objective,
    optimal_p_k1,
)
from .summaries import (
    ClassifierSpec,
    FittedMarginMeasure,
    FittedRegressionMeasure,
    RegressorSpec,
    fit_margin_measure,
    fit_regression_measure,
    score_margin_batch,
    score_regression_batch,
)
from .validity import (
    EXACT_M_LIMIT,
    BoundedNoiseLinearGenerator,
    DominanceResult,
    DominanceWitness,
    PipelineSpec,
    TableRow,
    ValidityCell,
    ValidityReport,
    audit_pvariable,
    check_dominance,
    monte_carlo_coverage,
    reproduce_table_k,
    urp_binary_event,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_LABELS",
    "FULL_LINE",
    "EXACT_M_LIMIT",
    "AsymptoticConstant",
    "BoundedNoiseLinearGenerator",
    "ClassifierSpec",
    "ConstantClassifier",
    "DataSplit",
    "DominanceResult",
    "DominanceWitness",
    "FittedMarginMeasure",
    "FittedPipeline",
    "FittedRegressionMeasure",
    "HedgedPrediction",
    "HingeLossLinearClassifier",
    "Interval",
    "LeastSquaresRegressor",
    "MeanRegressor",
    "PipelineSpec",
    "PointPredictor",
    "PredictionSet",
    "RegressorSpec",
    "SummarySequence",
    "TableRow",
    "ValidityCell",
    "ValidityReport",
    "asymptotic_constant",
    "audit_pvariable",
    "binary_irp_pvalue",
    "binary_irp_pvariable",
    "check_dominance",
    "dominating_pvalue",
    "dominating_pvariable",
    "exact_pvalue_k0",
    "fit_classification_pipeline",
    "fit_margin_measure",
    "fit_regression_measure",
    "fit_regression_pipeline",
    "icp_pvalue",
    "icp_pvariable",
    "maximize_objective",
    "monte_carlo_coverage",
    "objective",
    "optimal_p_k1",
    "prediction_set",
    "reproduce_table_k",
    "score_margin_batch",
    "score_regression_batch",
    "urp_binary_event",
]
