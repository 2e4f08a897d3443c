"""Lehmer and Holder mean families as maximum weighted likelihood estimates.

The package has three layers: :mod:`wmle.means` evaluates the mean families
themselves, :mod:`wmle.expfam` plus :mod:`wmle.mwle` realize them as
maximum weighted likelihood estimators of minimal exponential families
under the matching data-weight policies, and :mod:`wmle.families`,
:mod:`wmle.pipeline` and :mod:`wmle.cli` supply the concrete models, the
election-returns ingestion and the command-line tools of the Weibull case
study.
"""

from .errors import (
    AggregationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    NoSolutionError,
    NumericError,
    SchemaError,
    SolverError,
    WmleError,
)
from .expfam import (
    FamilyModel,
    MinimalityVerdict,
    WeightedDataset,
    check_minimality,
    grad_log_weighted_likelihood,
    hessian_log_weighted_likelihood,
    inverse_mean_map,
    log_pdf,
    log_weighted_likelihood,
    mean_map,
)
from .families import (
    MultinomialFixture,
    exponential_model,
    gaussian_known_variance_model,
    multinomial_fixture,
    weibull_model,
    weibull_moment,
)
from .means import Sample, f_mean, holder_mean, lehmer_mean, v_weights
from .mwle import (
    FitDiagnostics,
    FitResult,
    SubclassReport,
    WeightPolicy,
    apply_policy,
    fit,
    subclass_form,
    weighted_stat_mean,
)
from .pipeline import (
    ProportionMatrix,
    SchemaConfig,
    aggregate,
    load_returns,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "NoSolutionError",
    "NumericError",
    "SchemaError",
    "SolverError",
    "WmleError",
    "FamilyModel",
    "MinimalityVerdict",
    "WeightedDataset",
    "check_minimality",
    "grad_log_weighted_likelihood",
    "hessian_log_weighted_likelihood",
    "inverse_mean_map",
    "log_pdf",
    "log_weighted_likelihood",
    "mean_map",
    "MultinomialFixture",
    "exponential_model",
    "gaussian_known_variance_model",
    "multinomial_fixture",
    "weibull_model",
    "weibull_moment",
    "Sample",
    "f_mean",
    "holder_mean",
    "lehmer_mean",
    "v_weights",
    "FitDiagnostics",
    "FitResult",
    "SubclassReport",
    "WeightPolicy",
    "apply_policy",
    "fit",
    "subclass_form",
    "weighted_stat_mean",
    "ProportionMatrix",
    "SchemaConfig",
    "aggregate",
    "load_returns",
    "__version__",
]
