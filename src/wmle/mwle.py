"""Maximum weighted likelihood estimation driven by weight policies.

A :class:`WeightPolicy` turns raw observations into the positive,
parameter-free weights ``u`` of the weighted likelihood:

* ``holder``: ``u_i = w(x_i)`` (an exogenous relevance weight, default 1);
* ``lehmer``: ``u[i, j] = w(x[i, j]) * x[i, j] ** (alpha_j - 1)``, one
  weight column per component;
* ``custom``: any user map producing positive weights.

:func:`fit` then solves the critical-point equation: the weighted mean of
sufficient statistics is matched by the mean map, ``eta_hat`` is its
inverse image and ``theta_hat = nat_param_inverse(eta_hat)``.

With the Lehmer policy the weights differ per component, so there is no
single scalar objective; each independent component is fitted as its own
univariate problem with its own weight column, which requires a separable
model.  On an independent-component exponential model (identity sufficient
statistic per component) this reproduces the Lehmer mean of each column; a
power sufficient statistic with the ``holder`` policy reproduces the Holder
mean.  :func:`subclass_form` reports which of the two structures, if
either, a (model, policy) pair realizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .expfam import (
    FamilyModel,
    MinimalityVerdict,
    WeightedDataset,
    _observation_matrix,
    _solve_mean_target,
    _stat_covariance,
    check_minimality,
    weighted_stat_mean,
)

__all__ = [
    "WeightPolicy",
    "FitDiagnostics",
    "FitResult",
    "SubclassReport",
    "apply_policy",
    "weighted_stat_mean",
    "fit",
    "subclass_form",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightPolicy:
    """Rule producing observation weights ``u`` from the raw data.

    ``base_w`` supplies the exogenous relevance weight ``w`` and defaults to
    the constant 1.  For the ``holder`` kind it is called with the whole
    ``(n, k)`` observation matrix and must return ``(n,)`` row weights; for
    the ``custom`` kind it is the required user weight map, called the same
    way; for the ``lehmer`` kind it is applied to the value matrix
    elementwise and must return a matching ``(n, k)`` array.  ``exponents``
    holds the per-component Lehmer orders ``alpha_j`` and is required for
    (and only for) the ``lehmer`` kind.  The produced weights must be strictly
    positive on the dataset and depend on the data only, never on the
    parameters being estimated.
    """

    kind: str
    base_w: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exponents: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("holder", "lehmer", "custom"):
            raise ConfigError(f"unknown weight policy kind {self.kind!r}")
        if self.kind == "lehmer":
            if self.exponents is None:
                raise ConfigError("the lehmer policy requires per-component exponents")
            exps = np.asarray(self.exponents, dtype=float).reshape(-1)
            if exps.size == 0 or not np.all(np.isfinite(exps)):
                raise ConfigError("lehmer exponents must be a non-empty finite vector")
            object.__setattr__(self, "exponents", exps)
        elif self.exponents is not None:
            raise ConfigError(f"the {self.kind} policy takes no exponents")
        if self.kind == "custom" and self.base_w is None:
            raise ConfigError("the custom policy requires a weight map")

    @classmethod
    def holder(cls, base_w=None) -> "WeightPolicy":
        return cls(kind="holder", base_w=base_w)

    @classmethod
    def lehmer(cls, exponents, base_w=None) -> "WeightPolicy":
        return cls(kind="lehmer", base_w=base_w, exponents=exponents)

    @classmethod
    def custom(cls, weight_map) -> "WeightPolicy":
        return cls(kind="custom", base_w=weight_map)


@dataclass(frozen=True)
class FitDiagnostics:
    """Solver and curvature summary attached to every fit."""

    iterations: int
    residual_norm: float
    hessian_smallest: float
    hessian_largest: float
    minimality: Optional[MinimalityVerdict]
    solve_method: str


@dataclass(frozen=True)
class FitResult:
    """Estimate in both parameterizations plus the matched moment target.

    Invariants: ``nat_param(theta_hat) == eta_hat`` to 1e-10 and
    ``mean_map(eta_hat) == target`` to the solver tolerance.
    """

    theta_hat: np.ndarray
    eta_hat: np.ndarray
    target: np.ndarray
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class SubclassReport:
    """Which mean family, if either, an MWLE structurally reduces to."""

    is_holder_mean: bool
    is_lehmer_mean: bool
    reason: str


def apply_policy(policy: WeightPolicy, observations) -> np.ndarray:
    """Evaluate the policy on an ``(n, k)`` matrix.

    Returns ``(n,)`` weights for the holder and custom kinds and an
    ``(n, k)`` per-column weight matrix for the lehmer kind (whose power
    factor is evaluated in the log domain).  Raises ``DomainError`` when a
    produced weight is not strictly positive, in particular for a zero
    observation under any exponent other than 1.
    """
    obs = _observation_matrix(observations)
    n, k = obs.shape
    if policy.kind != "lehmer":
        u = np.ones(n) if policy.base_w is None else np.asarray(policy.base_w(obs), dtype=float).reshape(-1)
        if u.shape[0] != n:
            raise ConfigError(f"{policy.kind} base_w must return one weight per row")
    else:
        exps = policy.exponents
        if exps.size != k:
            raise ConfigError(
                f"lehmer policy has {exps.size} exponents but the data has {k} columns"
            )
        w = None if policy.base_w is None else np.asarray(policy.base_w(obs), dtype=float)
        if w is not None and w.shape != obs.shape:
            raise ConfigError("lehmer base_w must return a weight per matrix entry")
        # Column-major: each weight column is one contiguous buffer, built
        # in place and later summed on its own.
        u = np.empty((n, k), order="F")
        for j, a in enumerate(exps):
            u_j = u[:, j]
            if a == 1.0:
                u_j[:] = 1.0 if w is None else w[:, j]
                continue
            col = obs[:, j]
            if np.any(col <= 0):
                bad = float(col[col <= 0][0])
                raise DomainError(
                    f"value {bad} in column {j} cannot be weighted by x**({a}-1); "
                    "the lehmer policy needs strictly positive observations"
                )
            np.log(col, out=u_j)
            u_j *= a - 1.0
            if w is not None:
                u_j += np.log(w[:, j])
            # An overflow is reported by the finiteness check below.
            with np.errstate(over="ignore"):
                np.exp(u_j, out=u_j)
    if not np.all(np.isfinite(u)) or np.any(u <= 0):
        raise DomainError("weight policy produced weights that are not strictly positive and finite")
    return u


def fit(model: FamilyModel, observations, policy: WeightPolicy, *,
        method: str = "auto", seed: int = 0, minimality_samples: int = 2048) -> FitResult:
    """Maximum weighted likelihood estimate of the model parameters.

    ``method`` is forwarded to the moment solver (``auto``/``closed``/
    ``newton``/``bisect``).  The minimality verdict in the diagnostics is
    estimated by sampling the fitted model (``minimality_samples`` draws,
    seeded); pass ``minimality_samples=0`` to skip it.
    """
    if not model.nat_param_bijective:
        raise ConfigError(
            f"model {model.name} declares a non-bijective parameter map; "
            "theta cannot be recovered from eta"
        )
    obs = _observation_matrix(observations)
    if obs.shape[1] != model.dim_x:
        raise DomainError(
            f"data has {obs.shape[1]} columns, model {model.name} expects {model.dim_x}"
        )
    u = apply_policy(policy, obs)

    # Shared row weights give one problem; per-column weights give one
    # univariate problem per independent component.
    if u.ndim == 1:
        problems = [(model, obs, u)]
    elif model.components is None:
        raise ConfigError(
            f"model {model.name} is not separable; per-column weight policies "
            "require independent components"
        )
    else:
        problems = [(comp, obs[:, j : j + 1], u[:, j]) for j, comp in enumerate(model.components)]
    targets, infos, curvatures = [], [], []
    for sub_model, sub_obs, sub_u in problems:
        data = WeightedDataset(sub_obs, sub_u)
        sub_target = weighted_stat_mean(data, sub_model)
        info = _solve_mean_target(sub_model, sub_target, method=method)
        # A curvature that overflows makes eigvalsh fail; that is reported
        # as a NumericError, not as numpy warnings and a LinAlgError.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hessian = -data.total_weight * _stat_covariance(sub_model, info.eta)
            try:
                curvatures.append(np.linalg.eigvalsh(hessian))
            except np.linalg.LinAlgError as exc:
                raise NumericError(
                    f"the curvature of {sub_model.name} at the estimate is not finite: {exc}"
                ) from exc
        targets.append(sub_target)
        infos.append(info)
    target = np.concatenate(targets)
    eta = np.concatenate([info.eta for info in infos])
    eigenvalues = np.sort(np.concatenate(curvatures))
    methods = {info.method for info in infos}
    solve_method = methods.pop() if len(methods) == 1 else "mixed"

    theta = np.asarray(model.nat_param_inverse(eta), dtype=float).reshape(-1)
    # A flat direction of the curvature at the estimate means the maximum is
    # not isolated; never succeed silently in that case.  Relative to the
    # spectrum itself: a uniformly small but full-rank curvature is fine.
    if float(eigenvalues[-1]) >= -1e-12 * abs(float(eigenvalues[0])):
        logger.warning(
            "weighted log-likelihood Hessian is numerically degenerate at the "
            "estimate (largest eigenvalue %.3e); inspect the minimality verdict",
            float(eigenvalues[-1]),
        )
    verdict = None
    if minimality_samples and model.sampler is not None:
        verdict = check_minimality(model, eta, n_samples=minimality_samples, seed=seed)
    diagnostics = FitDiagnostics(
        iterations=max(info.iterations for info in infos),
        residual_norm=max(info.residual for info in infos),
        hessian_smallest=float(eigenvalues[0]),
        hessian_largest=float(eigenvalues[-1]),
        minimality=verdict,
        solve_method=solve_method,
    )
    return FitResult(theta_hat=theta, eta_hat=eta, target=target, diagnostics=diagnostics)


def subclass_form(model: FamilyModel, policy: WeightPolicy) -> SubclassReport:
    """Structural check of the two mean-family reductions.

    The Holder form needs a per-component power sufficient statistic
    ``T_j(x) = x_j ** p_j`` with plain relevance weights (``u = w``); the
    Lehmer form needs the identity statistic on independent components with
    ``u = w * x ** (alpha_j - 1)``, which is undefined when the support
    admits non-positive observations.
    """
    powers = model.stat_powers
    if policy.kind == "holder":
        if powers is not None:
            return SubclassReport(
                True,
                False,
                "sufficient statistic is a per-component power x**p and u = w, "
                "so each component estimate is a function of the weighted Holder mean "
                "of order p",
            )
        return SubclassReport(
            False,
            False,
            "the sufficient statistic is not a per-component power of the data",
        )
    if policy.kind == "lehmer":
        if model.support[0] < 0:
            return SubclassReport(
                False,
                False,
                "the model admits negative observations, where the lehmer weight "
                "x**(alpha-1) is undefined; the policy is invalid on this family",
            )
        if powers is None or not np.all(powers == 1.0):
            return SubclassReport(
                False,
                False,
                "the lehmer reduction needs the identity sufficient statistic per component",
            )
        if model.components is None:
            return SubclassReport(
                False,
                False,
                "the lehmer reduction needs independent components (a separable model)",
            )
        return SubclassReport(
            False,
            True,
            "identity statistic on independent components with u = w * x**(alpha-1), "
            "so each component estimate is the weighted Lehmer mean of order alpha",
        )
    return SubclassReport(False, False, "custom policies have no canonical mean-family form")
