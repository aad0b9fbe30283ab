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
    FamilyFit,
    ModelFit,
    ModelSubset,
    RegressionProblem,
    all_subsets,
    correlation_profile,
    fit_family,
)
from .mcverify import (
    CoverageEstimate,
    SimScenario,
    min_coverage_scan,
    simulate_coverage,
)
from .weights import WeightSpec, model_weights, w1, w1_exceedance

__all__ = [
    "BoundResult",
    "CoverageEstimate",
    "CoverageGrid",
    "FamilyFit",
    "MataInterval",
    "MataRequest",
    "ModelFit",
    "ModelSubset",
    "QuadratureConfig",
    "RegressionProblem",
    "SimScenario",
    "TwoModelConfig",
    "WeightSpec",
    "all_subsets",
    "bound_curve",
    "correlation_profile",
    "coverage_probability",
    "delta_u",
    "f_m_pdf",
    "fit_family",
    "min_coverage_scan",
    "model_weights",
    "simulate_coverage",
    "solve_interval",
    "upper_bound",
    "w1",
    "w1_exceedance",
]

__version__ = "0.1.0"
