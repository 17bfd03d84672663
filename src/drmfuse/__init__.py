"""Fused estimation of a reference CDF under a density ratio model with
variable tilts: likelihood fitting, covariance machinery, tilt-selection
tests, threshold probabilities, and a Monte Carlo comparison harness."""

from .asymptotics import Sigma_matrix, sigma_t
from .core import (
    ArityMismatch,
    Basis,
    DrmError,
    DuplicateBasis,
    EmptySample,
    FittedModel,
    FusedData,
    GLOBAL_TILT,
    InputError,
    NoConvergence,
    NonFinite,
    NonPositiveValue,
    NumericalError,
    Role,
    Sample,
    SingularHessian,
    SingularMatrix,
    StepCDF,
    TiltSpec,
    validate,
)
from .inference import (
    ComponentTest,
    GofResult,
    TestReport,
    ThresholdEstimate,
    chi_square_beta_test,
    drm_cdf,
    empirical_cdf,
    gof_pairs,
    refine_tilts,
    threshold_probability,
    z_tests,
)
from .likelihood import fit, hessian, profile_loglik, score
from .simulation import (
    ComparisonTable,
    SimConfig,
    exp2_cdf,
    generate,
    miae_mise,
    run_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "Basis", "ComparisonTable", "ComponentTest",
    "DrmError", "DuplicateBasis", "EmptySample", "FittedModel",
    "FusedData", "GLOBAL_TILT", "GofResult", "InputError", "NoConvergence",
    "NonFinite", "NonPositiveValue", "NumericalError", "Role",
    "Sample", "Sigma_matrix", "SimConfig", "SingularHessian",
    "SingularMatrix", "StepCDF", "TestReport", "ThresholdEstimate",
    "TiltSpec", "chi_square_beta_test", "drm_cdf", "empirical_cdf",
    "exp2_cdf", "fit", "generate", "gof_pairs", "hessian", "miae_mise",
    "profile_loglik", "refine_tilts", "run_comparison", "score", "sigma_t",
    "threshold_probability", "validate", "z_tests",
]
