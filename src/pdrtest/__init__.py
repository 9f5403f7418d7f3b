"""Adaptive lack-of-fit testing for partially parametric single-index models.

The package estimates the partial central subspace of the covariates by
slicing-based dimension reduction, picks its dimension with a ridge-type
eigenvalue-ratio rule, fits the hypothesized mean by nonlinear least
squares, and judges the residual-marked empirical process against a
multiplier Monte Carlo approximation of its null law.
"""

__version__ = "0.1.0"

from .dataset import Dataset, Schema, load_boston, load_csv
from .errors import DataError, SingularityError
from .families import ModelFamily, family_names, finite_diff_grad, get_family, register_family
from .fit import influence_vectors, nls_fit
from .lackfit import (
    build_projected,
    mc_pvalue,
    mc_replicate,
    pvalue_from_replicates,
    rho_matrix,
    run_test,
    tn_statistic,
)
from .sdr import default_ridge, estimate_basis, ridge_eigenvalue_ratio
from .simulate import design, generate, power_experiment

__all__ = [
    "DataError",
    "Dataset",
    "ModelFamily",
    "Schema",
    "SingularityError",
    "build_projected",
    "default_ridge",
    "design",
    "estimate_basis",
    "family_names",
    "finite_diff_grad",
    "generate",
    "get_family",
    "influence_vectors",
    "load_boston",
    "load_csv",
    "mc_pvalue",
    "mc_replicate",
    "nls_fit",
    "power_experiment",
    "pvalue_from_replicates",
    "register_family",
    "rho_matrix",
    "ridge_eigenvalue_ratio",
    "run_test",
    "tn_statistic",
]
