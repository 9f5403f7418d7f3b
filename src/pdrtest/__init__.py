"""Adaptive lack-of-fit testing for partially parametric single-index models.

The package estimates the partial central subspace of the covariates by
slicing-based dimension reduction, picks its dimension with a ridge-type
eigenvalue-ratio rule, fits the hypothesized mean by nonlinear least
squares, and judges the residual-marked empirical process against a
multiplier Monte Carlo approximation of its null law.
"""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    Schema,
    Standardization,
    boston_path,
    load_boston,
    load_csv,
    prepare_boston,
    standardize,
)
from .errors import DataError, SingularityError
from .families import ModelFamily, family_names, finite_diff_grad, get_family, register_family
from .fit import FitResult, influence_vectors, nls_fit
from .lackfit import (
    ProjectedSample,
    TestReport,
    build_projected,
    mc_pvalue,
    mc_replicate,
    pvalue_from_replicates,
    rho_matrix,
    run_test,
    tn_statistic,
)
from .sdr import (
    BasisEstimate,
    CandidateMatrix,
    dee_matrix,
    default_ridge,
    estimate_basis,
    pdee_matrix,
    ridge_eigenvalue_ratio,
)
from .simulate import (
    CASES,
    ExperimentSpec,
    PowerRow,
    PowerTable,
    SimDesign,
    design,
    emit_table,
    generate,
    parse_table,
    power_experiment,
    read_experiment_spec,
)

__all__ = [
    "BasisEstimate",
    "CASES",
    "CandidateMatrix",
    "DataError",
    "Dataset",
    "ExperimentSpec",
    "FitResult",
    "ModelFamily",
    "PowerRow",
    "PowerTable",
    "ProjectedSample",
    "Schema",
    "SimDesign",
    "SingularityError",
    "Standardization",
    "TestReport",
    "boston_path",
    "build_projected",
    "dee_matrix",
    "default_ridge",
    "design",
    "emit_table",
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
    "parse_table",
    "pdee_matrix",
    "power_experiment",
    "prepare_boston",
    "pvalue_from_replicates",
    "read_experiment_spec",
    "register_family",
    "rho_matrix",
    "ridge_eigenvalue_ratio",
    "run_test",
    "standardize",
    "tn_statistic",
]
