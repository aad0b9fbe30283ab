"""Model-averaged tail-area confidence intervals and coverage bounds."""

from .bound import BoundResult, bound_curve, upper_bound
from .coverage import (
    CoverageGrid,
    QuadratureConfig,
    TwoModelConfig,
    coverage_probability,
    delta_u,
    f_m_pdf,
)
from .interval import MataInterval, MataRequest, solve_interval
from .linreg import (
    ModelFit,
    ModelSubset,
    RegressionProblem,
    all_subsets,
    correlation_profile,
    fit_family,
    fit_full,
    fit_restricted,
    noncentrality,
)
from .mcverify import (
    CoverageEstimate,
    SimScenario,
    min_coverage_scan,
    simulate_coverage,
    w1_decay_scan,
)
from .weights import WeightSpec, gic, model_weights, w1

__all__ = [
    "BoundResult",
    "CoverageEstimate",
    "CoverageGrid",
    "MataInterval",
    "MataRequest",
    "ModelFit",
    "ModelSubset",
    "QuadratureConfig",
    "RegressionProblem",
    "SimScenario",
    "TwoModelConfig",
    "all_subsets",
    "bound_curve",
    "correlation_profile",
    "coverage_probability",
    "delta_u",
    "f_m_pdf",
    "fit_family",
    "fit_full",
    "fit_restricted",
    "gic",
    "min_coverage_scan",
    "model_weights",
    "noncentrality",
    "simulate_coverage",
    "solve_interval",
    "upper_bound",
    "w1",
    "w1_decay_scan",
]

__version__ = "0.1.0"
