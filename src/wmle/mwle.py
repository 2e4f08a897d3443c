"""Maximum weighted likelihood estimation driven by weight policies.

A :class:`WeightPolicy` turns raw observations into the positive,
parameter-free weights ``u`` of the weighted likelihood:

* ``holder``: ``u_i = w(x_i)`` (an exogenous relevance weight, default 1);
* ``lehmer``: ``u[i, j] = w(x[i, j]) * x[i, j] ** (alpha_j - 1)``, one
  weight column per component.

Scaling a weight column by a positive constant does not move the
maximizer, so every weight column is taken relative to its largest weight.
:func:`fit` then solves the critical-point equation: the weighted mean of
sufficient statistics is matched by the mean map, ``eta_hat`` is its
inverse image and ``theta_hat = nat_param_inverse(eta_hat)``.

With the Lehmer policy the weights differ per component, so each
independent component is fitted as its own univariate problem, which
requires a separable model.  An identity statistic per component then
reproduces the Lehmer mean of each column, and a power statistic under the
``holder`` policy the Holder mean (:func:`subclass_form` reports which, if
either, a (model, policy) pair realizes).  Both fits, and
:func:`_sweep_estimates` over a grid of orders, run the column kernel of
:mod:`wmle.means`.
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
    _holder_weights,
    _lehmer_weights,
    _moved_terms_out_of_range,
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
    weighted log-likelihood's curvature ``-sum(u) * Cov[T]`` at the
    estimate, in the problem :func:`fit` solves: under weights relative to
    their largest, and on a scale family in the scaled coordinates
    ``x_j / c_j`` of :attr:`FitResult.scale`, where it stays finite at
    every shape.
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


def _base_weights(policy: WeightPolicy, obs: np.ndarray) -> Optional[np.ndarray]:
    """``policy.base_w`` on the checked ``(n, k)`` matrix, checked in turn:
    ``(n,)`` row weights for the holder kind, an ``(n, k)`` matrix for the
    lehmer kind, ``None`` without ``base_w``."""
    n, k = obs.shape
    if policy.kind == "lehmer" and policy.exponents.size != k:
        raise ConfigError(
            f"lehmer policy has {policy.exponents.size} exponents but the data has {k} columns"
        )
    if policy.base_w is None:
        return None
    w = np.asarray(policy.base_w(obs), dtype=float)
    if policy.kind == "holder":
        w = w.reshape(-1)
        if w.shape[0] != n:
            raise ConfigError("holder base_w must return one weight per row")
    elif w.shape != obs.shape:
        raise ConfigError("lehmer base_w must return a weight per matrix entry")
    if not (np.all(np.isfinite(w)) and np.min(w) > 0):
        raise DomainError("weight policy produced weights that are not strictly positive and finite")
    return w


def apply_policy(policy: WeightPolicy, observations) -> np.ndarray:
    """Evaluate the policy on an ``(n, k)`` matrix, relative to the largest weight.

    Returns ``(n,)`` weights for the holder kind and an ``(n, k)``
    per-column weight matrix for the lehmer kind.  Only ratios of weights
    enter an estimate, so the row weights and each lehmer column are divided
    by their largest weight: these weights cannot overflow, nor can their
    sum, at any order.  Raises ``DomainError`` when a base weight is not
    strictly positive and finite or a lehmer column at an order other than
    1 holds a non-positive value, and ``NumericError`` where a lehmer
    column cannot be formed accurately: at an order below 1 on values more
    than ``exp(600)`` apart.
    """
    obs = _observation_matrix(observations)
    return _relative_weights(policy, obs, _base_weights(policy, obs))


def _relative_weights(policy: WeightPolicy, obs: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    """:func:`apply_policy`'s weights from checked observations and base weights."""
    if policy.kind == "holder":
        return np.ones(obs.shape[0]) if w is None else w / np.maximum.reduce(w)
    exps = policy.exponents
    # Column-major: each weight column is one contiguous buffer, built in
    # place and later summed on its own.
    u = np.empty(obs.shape, order="F")
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


def _kernel_columns(sub_models, obs: np.ndarray, policy: WeightPolicy, w: Optional[np.ndarray]):
    """Per component, ``(target, total weight, scale)`` from :func:`means._column_means`.

    Each Lehmer column is copied into one contiguous buffer, which the
    kernel's log and its ``u * x`` both read; at order 1 the weights are 1,
    or the base weights over their largest, and a zero value passes.  A
    Holder column needs no copy: the kernel's ``x / x_r`` is contiguous.
    An all-zero Holder column has target 0, the solver's to reject.
    """
    out, buf = np.empty((1, obs.shape[0])), np.empty(obs.shape[0])
    # Holder row weights are taken over their largest once for all columns.
    row_weights = None if w is None or policy.kind != "holder" else _holder_weights(w)
    for j, sub_model in enumerate(sub_models):
        ref = 1.0
        if policy.kind == "holder":
            target, total, _, ok, ref = _column_means("holder", obs[:, j], sub_model.stat_powers, out,
                                                      row_weights)
            if not ok[0]:
                raise _moved_terms_out_of_range(f"the Holder terms of column {j} in {sub_model.name}")
            if ref == 0.0:
                target, ref = np.zeros(1), 1.0
        else:
            a, w_j = policy.exponents[j], None if w is None else w[:, j]
            np.copyto(buf, obs[:, j])
            with np.errstate(all="ignore"):  # the log of a zero, a sum that overflows
                if a == 1.0:
                    u = np.ones_like(buf) if w_j is None else w_j / np.maximum.reduce(w_j)
                    total = np.add.reduce(u, keepdims=True)
                    target, ok = np.add.reduce(u * buf, keepdims=True) / total, [True]
                else:
                    target, total, _, ok, _ = _column_means("lehmer", buf, policy.exponents[j : j + 1], out, w_j)
            if not ok[0]:
                if np.minimum.reduce(buf) == 0.0:
                    raise _nonpositive_value(obs[:, j], j, a)
                raise _weights_out_of_range(f"the lehmer weights of column {j} at order {a}")
        yield target, float(total[0]), ref


def fit(model: FamilyModel, observations, policy: WeightPolicy, *,
        method: str = "auto", seed: int = 0, minimality_samples: int = 2048) -> FitResult:
    """Maximum weighted likelihood estimate of the model parameters.

    ``method`` is forwarded to the moment solver (``auto``/``closed``/
    ``newton``/``bisect``).  The minimality verdict in the diagnostics is
    estimated by sampling the fitted model (``minimality_samples`` draws,
    seeded); pass ``minimality_samples=0`` to skip it.  A sample that
    overflows gives no verdict either, and a logged warning.

    The observations are checked once, here, for finiteness and against
    ``model.support``, and the base weights once, where they are made.
    Per-column (Lehmer) weights give one univariate problem per independent
    component.  Row weights give one problem, except on a scale family
    (``model.scale_family``), where each component is fitted on its own
    column relative to its largest value, ``y = x_j / c_j``, whose largest
    term ``y ** k_j`` is exactly 1: the target neither overflows nor
    underflows at any shape, and ``theta_j = c_j * theta'_j``.

    Those scale families, and Lehmer weights on an identity statistic over
    independent non-negative components, take their moment targets from
    :func:`means._column_means`, the kernel of ``holder_mean`` and
    ``lehmer_mean``; an estimate there that is not finite and positive
    raises ``NumericError``.  Every other model takes the weights of
    :func:`apply_policy` and the target of :func:`weighted_stat_mean`, and
    a non-finite estimate raises ``NumericError``.
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
    w = _base_weights(policy, obs)
    per_column = policy.kind == "lehmer"
    scaled = not per_column and model.scale_family
    kernel = scaled or (per_column and subclass_form(model, policy).is_lehmer_mean)
    separate = (per_column or scaled) and model.components is not None
    sub_models = model.components if separate else (model,)
    if kernel:
        columns = _kernel_columns(sub_models, obs, policy, w)
        if per_column:  # every weight column is formed before any is solved
            columns = iter(list(columns))
    else:
        u = _relative_weights(policy, obs, w)
        if per_column and model.components is None:
            raise ConfigError(
                f"model {model.name} is not separable; per-column weight policies "
                "require independent components"
            )
    scale = np.ones(model.dim_eta)  # theta_j = c_j * theta'_j; c_j is 1 off a scale family
    targets, infos, curvatures, flat = [], [], [], []
    for j, sub_model in enumerate(sub_models):
        if kernel:
            sub_target, total, scale[j] = next(columns)
        else:
            data = WeightedDataset(obs[:, j : j + 1] if per_column else obs,
                                   u[:, j] if per_column else u, _validated=True)
            sub_target, total = weighted_stat_mean(data, sub_model), data.total_weight
        info = _solve_mean_target(sub_model, sub_target, method=method)
        # A curvature that overflows makes eigvalsh fail; that is reported
        # as a NumericError, not as numpy warnings and a LinAlgError.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hessian = -total * _stat_covariance(sub_model, info.eta)
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

    theta = scale * np.asarray(model.nat_param_inverse(eta), dtype=float).reshape(-1)
    # (1/target) ** (-1/k) may underflow to 0 or overflow where the target is fine.
    if not (np.isfinite(theta).all() and (not kernel or (theta > 0).all())):
        raise NumericError(f"the estimate theta_hat={theta.tolist()} of {model.name} is not finite"
                           + (" and positive" if kernel else ""))
    # Never succeed silently at a flat maximum.
    if flat:
        logger.warning(
            "weighted log-likelihood Hessian is numerically degenerate at the "
            "estimate (largest eigenvalue %.3e); inspect the minimality verdict",
            max(flat),
        )
    verdict = None
    if minimality_samples and model.sampler is not None:
        try:
            verdict = check_minimality(model, eta, n_samples=minimality_samples, seed=seed)
        except NumericError as exc:
            logger.warning("no minimality verdict: %s", exc)
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
    _, _, estimate, good, _ = (np.array(c) for c in zip(*columns))  # (k, G)
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
            return SubclassReport(True, False, (
                "sufficient statistic is a per-component power x**p and u = w, "
                "so each component estimate is a function of the weighted Holder mean of order p"))
        reason = "the sufficient statistic is not a per-component power of the data"
    elif model.support[0] < 0:
        reason = ("the model admits negative observations, where the lehmer weight "
                  "x**(alpha-1) is undefined; the policy is invalid on this family")
    elif powers is None or not (powers == 1.0).all():
        reason = "the lehmer reduction needs the identity sufficient statistic per component"
    elif model.components is None:
        reason = "the lehmer reduction needs independent components (a separable model)"
    else:
        return SubclassReport(False, True, (
            "identity statistic on independent components with u = w * x**(alpha-1), "
            "so each component estimate is the weighted Lehmer mean of order alpha"))
    return SubclassReport(False, False, reason)
