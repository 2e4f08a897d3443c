"""Maximum weighted likelihood estimation driven by weight policies.

A :class:`WeightPolicy` turns raw observations into the positive,
parameter-free weights ``u`` of the weighted likelihood:

* ``holder``: ``u_i = w(x_i)`` (an exogenous relevance weight, default 1);
* ``lehmer``: ``u[i, j] = w(x[i, j]) * x[i, j] ** (alpha_j - 1)``, one
  weight column per component.

Scaling a weight column by a positive constant does not move the
maximizer, so :func:`apply_policy` returns each weight column relative to
its largest weight, the one form :func:`fit` takes.

:func:`fit` then solves the critical-point equation: the weighted mean of
sufficient statistics is matched by the mean map, ``eta_hat`` is its
inverse image and ``theta_hat = nat_param_inverse(eta_hat)``.

With the Lehmer policy the weights differ per component, so there is no
single scalar objective; each independent component is fitted as its own
univariate problem with its own weight column, which requires a separable
model.  On an independent-component exponential model (identity sufficient
statistic per component) this reproduces the Lehmer mean of each column; a
power sufficient statistic with the ``holder`` policy reproduces the Holder
mean.  The shifted-sum arithmetic of both means lives in :mod:`wmle.means`;
:func:`_sweep_estimates` runs its column kernel over a grid of orders.
:func:`subclass_form` reports which of the two structures, if either, a
(model, policy) pair realizes.
"""

from __future__ import annotations

import logging
import math
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
from .means import (
    _column_means,
    _lehmer_weights,
    _moved_terms_out_of_range,
    _moved_terms_show,
    _scaled_column,
    _weights_out_of_range,
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

    ``kind`` is ``holder`` or ``lehmer``.  ``base_w`` supplies the exogenous
    relevance weight ``w`` and defaults to the constant 1.  For the
    ``holder`` kind it is called with the whole ``(n, k)`` observation
    matrix and must return ``(n,)`` row weights; for the ``lehmer`` kind it
    is applied to the value matrix elementwise and must return a matching
    ``(n, k)`` array.  ``exponents`` holds the per-component Lehmer orders
    ``alpha_j`` and is required for (and only for) the ``lehmer`` kind.
    The produced weights must be strictly positive on the dataset and
    depend on the data only, never on the parameters being estimated.
    """

    kind: str
    base_w: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exponents: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("holder", "lehmer"):
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

    @classmethod
    def holder(cls, base_w=None) -> "WeightPolicy":
        return cls(kind="holder", base_w=base_w)

    @classmethod
    def lehmer(cls, exponents, base_w=None) -> "WeightPolicy":
        return cls(kind="lehmer", base_w=base_w, exponents=exponents)


@dataclass(frozen=True)
class FitDiagnostics:
    """Solver and curvature summary attached to every fit.

    ``hessian_smallest``/``hessian_largest`` are the extremes of the
    weighted log-likelihood's curvature at the estimate, in the problem
    :func:`fit` solves: under the weights of :func:`apply_policy`, each
    column divided by its largest, and on a scale family in the scaled
    coordinates ``x_j / c_j`` of :attr:`FitResult.scale`, where it stays
    finite at every shape.
    """

    iterations: int
    residual_norm: float
    hessian_smallest: float
    hessian_largest: float
    minimality: Optional[MinimalityVerdict]
    solve_method: str


@dataclass(frozen=True)
class FitResult:
    """Estimate in both parameterizations plus the matched moment target.

    ``scale`` holds the factors ``c_j`` the data were divided by: on a
    scale family under row weights each component is fitted on
    ``x_j / c_j`` with ``c_j`` the column's largest value, and ``eta_hat``
    and ``target`` are those of that scaled problem; everywhere else
    ``scale`` is all ones.  Invariants: ``nat_param(theta_hat / scale) ==
    eta_hat`` to 1e-10 and ``mean_map(eta_hat) == target`` to the solver
    tolerance.
    """

    theta_hat: np.ndarray
    eta_hat: np.ndarray
    target: np.ndarray
    scale: np.ndarray
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class SubclassReport:
    """Which mean family, if either, an MWLE structurally reduces to."""

    is_holder_mean: bool
    is_lehmer_mean: bool
    reason: str


def _nonpositive_value(col: np.ndarray, j: int, a: float) -> DomainError:
    bad = float(col[col <= 0][0])
    return DomainError(
        f"value {bad} in column {j} cannot be weighted by x**({a}-1); "
        "the lehmer policy needs strictly positive observations"
    )


def _require_positive_weights(u: np.ndarray) -> None:
    if not (np.all(np.isfinite(u)) and np.min(u) > 0):
        raise DomainError("weight policy produced weights that are not strictly positive and finite")


def apply_policy(policy: WeightPolicy, observations, *, _validated: bool = False) -> np.ndarray:
    """Evaluate the policy on an ``(n, k)`` matrix, relative to the largest weight.

    Returns ``(n,)`` weights for the holder kind and an ``(n, k)``
    per-column weight matrix for the lehmer kind.  Only ratios of weights
    enter an estimate, so the row weights and each lehmer column are divided
    by their largest weight: these weights cannot overflow, nor can their
    sum, at any order.  Raises ``DomainError`` when a base weight is not
    strictly positive and finite or a lehmer column at an order other than
    1 holds a non-positive value, and ``NumericError`` where a lehmer
    column cannot be formed accurately: at an order below 1 on values more
    than ``exp(600)`` apart.  ``_validated`` skips checking
    ``observations``, for callers that already have.
    """
    obs = observations if _validated else _observation_matrix(observations)
    n, k = obs.shape
    if policy.kind == "holder":
        if policy.base_w is None:
            return np.ones(n)
        u = np.asarray(policy.base_w(obs), dtype=float).reshape(-1)
        if u.shape[0] != n:
            raise ConfigError("holder base_w must return one weight per row")
        _require_positive_weights(u)
        return u / np.maximum.reduce(u)
    exps = policy.exponents
    if exps.size != k:
        raise ConfigError(
            f"lehmer policy has {exps.size} exponents but the data has {k} columns"
        )
    w = None if policy.base_w is None else np.asarray(policy.base_w(obs), dtype=float)
    if w is not None:
        if w.shape != obs.shape:
            raise ConfigError("lehmer base_w must return a weight per matrix entry")
        _require_positive_weights(w)
    # Column-major: each weight column is one contiguous buffer, built in
    # place and later summed on its own.
    u = np.empty((n, k), order="F")
    for j, a in enumerate(exps):
        u_j = u[:, j]
        col = obs[:, j]
        if a == 1.0:
            u_j[:] = 1.0 if w is None else w[:, j] / np.maximum.reduce(w[:, j])
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(col, out=u_j)
        lo = float(np.minimum.reduce(u_j))
        if not lo > -np.inf:  # log of a zero (-inf) or a negative value (nan)
            raise _nonpositive_value(col, j, a)
        ok = _lehmer_weights(u_j, lo, float(np.maximum.reduce(u_j)), exps[j : j + 1],
                             u_j[None, :], None if w is None else np.log(w[:, j]))
        if not ok[0]:
            raise _weights_out_of_range(f"the lehmer weights of column {j} at order {a}")
    return u


def _check_support(model: FamilyModel, obs: np.ndarray) -> None:
    """Raise ``DomainError`` naming the first value outside ``model.support``."""
    lo, hi = model.support
    if (lo > -math.inf and np.minimum.reduce(obs, axis=None) < lo) or (
            hi < math.inf and np.maximum.reduce(obs, axis=None) > hi):
        i, j = np.argwhere((obs < lo) | (obs > hi))[0]
        raise DomainError(
            f"value {float(obs[i, j])!r} in column {j} is outside the support [{lo:g}, {hi:g}] "
            f"of {model.name}"
        )


def fit(model: FamilyModel, observations, policy: WeightPolicy, *,
        method: str = "auto", seed: int = 0, minimality_samples: int = 2048) -> FitResult:
    """Maximum weighted likelihood estimate of the model parameters.

    ``method`` is forwarded to the moment solver (``auto``/``closed``/
    ``newton``/``bisect``).  The minimality verdict in the diagnostics is
    estimated by sampling the fitted model (``minimality_samples`` draws,
    seeded); pass ``minimality_samples=0`` to skip it.

    The observations are checked once, here, for finiteness and against
    ``model.support``; the weights, the dataset and the moment target are
    built from the checked arrays without checking them again.  Weights
    come from :func:`apply_policy`: row weights and Lehmer columns divided
    by their largest.

    Per-column (Lehmer) weights give one univariate problem per independent
    component.  Row weights give one problem, except on a scale family
    (``model.scale_family``), where each component is fitted on its own
    column relative to its largest value, ``y = x_j / c_j``: its largest
    term ``y ** k_j`` is exactly 1, and :func:`means._scaled_column` keeps
    every other term a normal number, so the target neither overflows nor
    underflows at any shape.  The estimate is ``theta_j = c_j * theta'_j``.
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
    _check_support(model, obs)
    u = apply_policy(policy, obs, _validated=True)
    per_column = u.ndim == 2
    scaled = not per_column and model.scale_family
    if per_column and model.components is None:
        raise ConfigError(
            f"model {model.name} is not separable; per-column weight policies "
            "require independent components"
        )
    # Without base_w the holder weights are all 1: the dataset takes them as
    # unit weights, which the moment target does not multiply in.
    row_w = None if per_column or policy.base_w is None else u
    separate = (per_column or scaled) and model.components is not None
    sub_models = model.components if separate else (model,)
    scale = np.ones(len(sub_models))
    targets, infos, curvatures, flat = [], [], [], []
    for j, sub_model in enumerate(sub_models):
        if per_column:
            data = WeightedDataset(obs[:, j : j + 1], u[:, j], _validated=True)
        elif scaled:
            y, scale[j] = _scaled_column(obs[:, j], sub_model.stat_powers)
            data = WeightedDataset(y, row_w, _validated=True)
        else:
            data = WeightedDataset(obs, row_w, _validated=True)
        sub_target = weighted_stat_mean(data, sub_model)
        if scaled and _moved_terms_show(sub_target, sub_model.stat_powers, obs[:, j], scale[j])[0]:
            raise _moved_terms_out_of_range(f"the Holder terms of column {j} in {sub_model.name}")
        info = _solve_mean_target(sub_model, sub_target, method=method)
        # A curvature that overflows makes eigvalsh fail; that is reported
        # as a NumericError, not as numpy warnings and a LinAlgError.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hessian = -data.total_weight * _stat_covariance(sub_model, info.eta)
            try:
                spectrum = np.linalg.eigvalsh(hessian)
            except np.linalg.LinAlgError as exc:
                raise NumericError(
                    f"the curvature of {sub_model.name} at the estimate is not finite: {exc}"
                ) from exc
        # On a joint model, eigvalsh turns an overflowed entry into a NaN
        # spectrum, and a NaN entry can give a finite one.
        if not separate and not (np.isfinite(hessian).all() and np.isfinite(spectrum).all()):
            raise NumericError(
                f"the curvature of {sub_model.name} at the estimate is not finite: "
                f"eigenvalues {spectrum.tolist()}"
            )
        # A flat direction of the curvature at the estimate means the maximum
        # is not isolated.  The test is relative to the spectrum, so that a
        # uniformly small but full-rank curvature passes, and it is applied to
        # each independent component on its own: a separable model's Hessian
        # is diagonal, and its components' curvatures may lie hundreds of
        # orders of magnitude apart without any of them being flat.
        blocks = np.diag(hessian)[:, None] if sub_model.components is not None else [spectrum]
        flat += [float(b.max()) for b in blocks if b.max() >= -1e-12 * abs(b.min())]
        curvatures.append(spectrum)
        targets.append(sub_target)
        infos.append(info)
    target = np.concatenate(targets)
    eta = np.concatenate([info.eta for info in infos])
    eigenvalues = np.sort(np.concatenate(curvatures))
    methods = {info.method for info in infos}
    solve_method = methods.pop() if len(methods) == 1 else "mixed"

    theta = np.asarray(model.nat_param_inverse(eta), dtype=float).reshape(-1)
    if scaled:
        theta = scale * theta
    else:
        scale = np.ones(theta.size)
    # Never succeed silently at a flat maximum.
    if flat:
        logger.warning(
            "weighted log-likelihood Hessian is numerically degenerate at the "
            "estimate (largest eigenvalue %.3e); inspect the minimality verdict",
            max(flat),
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
    return FitResult(theta_hat=theta, eta_hat=eta, target=target, scale=scale,
                     diagnostics=diagnostics)


# The batched sweep takes as many orders at a time as keep its
# (orders x rows) buffer, which every column reuses, near this many elements.
_SWEEP_BLOCK_ELEMENTS = 1 << 16


def _sweep_estimates(kind: str, observations: np.ndarray,
                     orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weibull scale estimates of every column at every order, in one pass.

    Row ``g`` of the returned ``(G, k)`` matrix is :func:`fit`'s
    ``theta_hat`` at ``orders[g]`` to the bit, each column computed by
    :func:`means._column_means`: for ``kind="lehmer"`` under the unit-shape
    Weibull model and the Lehmer policy of that order, for ``kind="holder"``
    under the Weibull model of that shape and unit weights.  ``ok[g]`` is
    True where the kernel's sums are accurate and every estimate is finite
    and positive; elsewhere the row is NaN and ``fit`` itself raises the
    error or returns the estimate.
    """
    obs = np.asarray(observations, dtype=float)
    orders = np.asarray(orders, dtype=float).reshape(-1)
    n, k = obs.shape
    theta = np.full((orders.size, k), np.nan)
    ok = np.zeros(orders.size, dtype=bool)
    rows = np.flatnonzero(np.isfinite(orders) & ((orders > 0) | (kind == "lehmer")))
    if n == 0 or rows.size == 0 or not (np.min(obs) > 0 and np.max(obs) < np.inf):
        return theta, ok
    out = np.empty((min(rows.size, max(1, _SWEEP_BLOCK_ELEMENTS // n)), n))
    with np.errstate(all="ignore"):
        columns = [_column_means(kind, obs[:, j], orders[rows], out) for j in range(k)]
    _, estimate, good = (np.array(c) for c in zip(*columns))  # (k, G)
    good = np.all(good & (0 < estimate) & (estimate < np.inf), axis=0)
    theta[rows] = np.where(good[:, None], estimate.T, np.nan)
    ok[rows] = good
    return theta, ok


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
