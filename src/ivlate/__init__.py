"""Interacted two-stage least squares for local average treatment effects.

Estimators for binary-treatment, binary-instrument designs where the
instrument is valid conditional on covariates; complier reweighting and
centering for the LATE; propensity-score stratification for effect
heterogeneity; a bootstrap; and a Monte Carlo harness with exact
finite-support population oracles.
"""

from .complier import (
    PropensityFit,
    abadie_beta,
    centered_interacted_2sls,
    complier_mean,
    fit_propensity,
    kappa_weights,
)
from .errors import (
    DegenerateStratumError,
    IdentificationError,
    InfiniteSupportError,
    InvalidSpecError,
    NoCompliersError,
    NonFiniteError,
    NoOverlapCellError,
    RankDeficientError,
    SchemaError,
    TooManyFailuresError,
    UnpartitionableError,
)
from .estimators import (
    Dataset,
    TwoSlsFit,
    additive_2sls,
    generalized_additive_2sls,
    interacted_2sls,
    interacted_additive_2sls,
    interacted_ols,
    partially_interacted_2sls,
    stratum_wald,
)
from .inference import BootstrapResult, bootstrap, bootstrap_tags
from .linalg import LsFit, least_squares
from .montecarlo import (
    DgpCell,
    DgpSpec,
    LatentTruth,
    McSummary,
    OracleEstimands,
    dgp_a,
    dgp_b,
    dgp_c,
    evaluate_tags,
    from_cells,
    generate,
    named_dgp,
    oracle_estimands,
    pipeline_for,
    regressogram_deviation,
    run_study,
)
from .stratify import (
    StratifiedResult,
    StratumPartition,
    partition_by_propensity,
    regressogram,
    stratified_late,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "Dataset",
    "DegenerateStratumError",
    "DgpCell",
    "DgpSpec",
    "IdentificationError",
    "InfiniteSupportError",
    "InvalidSpecError",
    "LatentTruth",
    "LsFit",
    "McSummary",
    "NoCompliersError",
    "NonFiniteError",
    "NoOverlapCellError",
    "OracleEstimands",
    "PropensityFit",
    "RankDeficientError",
    "SchemaError",
    "StratifiedResult",
    "StratumPartition",
    "TooManyFailuresError",
    "TwoSlsFit",
    "UnpartitionableError",
    "abadie_beta",
    "additive_2sls",
    "bootstrap",
    "bootstrap_tags",
    "centered_interacted_2sls",
    "complier_mean",
    "dgp_a",
    "dgp_b",
    "dgp_c",
    "evaluate_tags",
    "fit_propensity",
    "from_cells",
    "generalized_additive_2sls",
    "generate",
    "interacted_2sls",
    "interacted_additive_2sls",
    "interacted_ols",
    "kappa_weights",
    "least_squares",
    "named_dgp",
    "oracle_estimands",
    "partially_interacted_2sls",
    "partition_by_propensity",
    "pipeline_for",
    "regressogram",
    "regressogram_deviation",
    "run_study",
    "stratified_late",
    "stratum_wald",
]
