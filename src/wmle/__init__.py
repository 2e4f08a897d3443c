"""Lehmer and Holder mean families as maximum weighted likelihood estimates.

The package has three layers: :mod:`wmle.means` evaluates the mean families
themselves, :mod:`wmle.expfam` plus :mod:`wmle.mwle` realize them as
maximum weighted likelihood estimators of minimal exponential families
under the matching data-weight policies, and :mod:`wmle.families`,
:mod:`wmle.pipeline` and :mod:`wmle.cli` supply the concrete models, the
election-returns ingestion and the command-line tools of the Weibull case
study.

Every exported name and every submodule is imported on first use
(PEP 562), so ``import wmle`` loads none of them and each ``wmle`` command
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": ("AggregationError", "ConfigError", "ConvergenceError", "DomainError",
               "NoSolutionError", "NumericError", "SchemaError", "SolverError", "WmleError"),
    "expfam": ("FamilyModel", "MinimalityVerdict", "WeightedDataset", "check_minimality",
               "grad_log_weighted_likelihood", "hessian_log_weighted_likelihood",
               "inverse_mean_map", "log_pdf", "log_weighted_likelihood", "mean_map"),
    "families": ("MultinomialFixture", "exponential_model", "gaussian_known_variance_model",
                 "multinomial_fixture", "weibull_model", "weibull_moment"),
    "means": ("Sample", "f_mean", "holder_mean", "lehmer_mean", "v_weights"),
    "mwle": ("FitDiagnostics", "FitResult", "SubclassReport", "WeightPolicy", "apply_policy",
             "fit", "subclass_form", "weighted_stat_mean"),
    "pipeline": ("ProportionMatrix", "SchemaConfig", "aggregate", "load_returns"),
    "cli": (),
    "svg": (),
}

#: Exported name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
