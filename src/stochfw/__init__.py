"""Projection-free stochastic optimization for constrained finite sums.

Frank-Wolfe iterations driven by variance-reduced gradient estimators
(loopless SARAH and a SAGA-SARAH hybrid that never computes full
gradients), with closed-form linear minimization oracles, theory-prescribed
step-size schedules, and an experiment harness that writes plot-ready CSV
traces with exact oracle accounting.
"""

from .constraints import ConstraintSet, contains, diameter, lmo
from .data import Dataset, ParseError, normalize_labels, parse_libsvm, to_libsvm
from .estimators import (
    EstimatorConfig,
    FullGradEstimator,
    MomentumEstimator,
    SagaSarahEstimator,
    SarahEstimator,
    init_estimator,
)
from .metrics import Trace, TraceRow, fw_gap, min_gap_so_far, relative_suboptimality
from .objectives import Objective, SmoothnessInfo
from .schedules import default_batch, default_params, eta
from .solver import NanAbort, Run, SolveResult, SolverConfig, default_x0, solve

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet",
    "Dataset",
    "EstimatorConfig",
    "FullGradEstimator",
    "MomentumEstimator",
    "NanAbort",
    "Objective",
    "ParseError",
    "Run",
    "SagaSarahEstimator",
    "SarahEstimator",
    "SmoothnessInfo",
    "SolveResult",
    "SolverConfig",
    "Trace",
    "TraceRow",
    "contains",
    "default_batch",
    "default_params",
    "default_x0",
    "diameter",
    "eta",
    "fw_gap",
    "init_estimator",
    "lmo",
    "min_gap_so_far",
    "normalize_labels",
    "parse_libsvm",
    "relative_suboptimality",
    "solve",
    "to_libsvm",
]
