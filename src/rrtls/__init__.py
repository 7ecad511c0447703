"""Reduced-rank least-squares and total-least-squares estimation.

Estimators trade a small, estimable bias for a variance reduction by
projecting onto the dominant ordered left singular vectors; the package
also ships the machinery showing that for the errors-in-variables (TLS)
setting the analogous rank rule depends on the unknown parameter norm, so
a norm-independent reduced-rank TLS estimator does not exist in general.
A Monte Carlo harness and CLI verify every distributional claim
implemented here.
"""

from .errors import (
    ConfigError,
    DegenerateSolutionError,
    InsufficientDataError,
    ModelInvalidError,
    NonUniqueTlsError,
    RrtlsError,
    SingularModelError,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    MomentReport,
    SelectionComparison,
    compare_selection_rules,
    run,
    verify_chi_square,
)
from .ls import (
    BiasEstimate,
    LsEstimate,
    RankSelection,
    bias_estimate,
    ls_full,
    ls_reduced,
    mse_theoretical_ls,
    select_rank_ls,
)
from .model import (
    MeasurementModel,
    Realization,
    gaussian_model,
    planted_model,
    sample_ls,
    sample_tls,
    spectrum_model,
    trial_rng,
)
from .svdtools import OrderedBasis, SvdFactorization, order_by_scores, svd
from .tls import (
    QObjective,
    TlsEstimate,
    augmented_scores,
    mse_theoretical_tls_full,
    q_objective,
    q_objective_bias_recipe,
    tls_objective,
    tls_reduced,
    tls_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BiasEstimate",
    "ConfigError",
    "DegenerateSolutionError",
    "ExperimentResult",
    "ExperimentSpec",
    "InsufficientDataError",
    "LsEstimate",
    "MeasurementModel",
    "ModelInvalidError",
    "MomentReport",
    "NonUniqueTlsError",
    "OrderedBasis",
    "QObjective",
    "RankSelection",
    "Realization",
    "RrtlsError",
    "SelectionComparison",
    "SingularModelError",
    "SvdFactorization",
    "TlsEstimate",
    "augmented_scores",
    "bias_estimate",
    "compare_selection_rules",
    "gaussian_model",
    "ls_full",
    "ls_reduced",
    "mse_theoretical_ls",
    "mse_theoretical_tls_full",
    "order_by_scores",
    "planted_model",
    "q_objective",
    "q_objective_bias_recipe",
    "run",
    "sample_ls",
    "sample_tls",
    "select_rank_ls",
    "spectrum_model",
    "svd",
    "tls_objective",
    "tls_reduced",
    "tls_solve",
    "trial_rng",
    "verify_chi_square",
]
