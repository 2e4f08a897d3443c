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
:func:`_sweep_estimates` over a grid of orders, run the column arithmetic
of :mod:`wmle.means`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericError, SolverError
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
from .families import weibull_model
from .means import (
    _column_means,
    _holder_weights,
    _lehmer_column,
    _moved_terms_out_of_range,
    _scale_estimates,
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


class FitDiagnostics(NamedTuple):
    """Solver and curvature summary attached to every fit.

    ``hessian_smallest``/``hessian_largest`` are the extremes of the
    weighted log-likelihood's curvature ``-sum(u) * Cov[T]`` at the
    estimate, in the problem :func:`fit` solves: under weights relative to
    their largest, and on a scale family in the scaled coordinates
    ``x_j / c_j`` of :attr:`FitResult.scale`, where it stays finite at
    every shape.  ``minimality`` is :func:`check_minimality`'s verdict at
    ``eta_hat``, in the same coordinates, or ``None`` when the covariance
    there is not finite.
    """

    iterations: int
    residual_norm: float
    hessian_smallest: float
    hessian_largest: float
    minimality: Optional[MinimalityVerdict]
    solve_method: str


class FitResult(NamedTuple):
    """Estimate in both parameterizations plus the matched moment target.

    ``scale`` holds the factors ``c_j`` the data were divided by: on a
    scale family under row weights each component is fitted on
    ``x_j / c_j`` with ``c_j`` the column's largest value, and ``eta_hat``
    and ``target`` are those of that scaled problem; everywhere else
    ``scale`` is all ones.  Invariants: ``nat_param(theta_hat / scale) ==
    eta_hat`` to 1e-10 on a scale family and ``nat_param(theta_hat) ==
    eta_hat`` elsewhere, and ``mean_map(eta_hat) == target`` to the solver
    tolerance.
    """

    theta_hat: np.ndarray
    eta_hat: np.ndarray
    target: np.ndarray
    scale: np.ndarray
    diagnostics: FitDiagnostics


class SubclassReport(NamedTuple):
    """Which mean family, if either, an MWLE structurally reduces to."""

    is_holder_mean: bool
    is_lehmer_mean: bool
    reason: str


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
    w = _base_weights(policy, obs)
    if policy.kind == "holder":
        row_weights = _holder_weights(w)
        return np.ones(obs.shape[0]) if row_weights is None else row_weights[0]
    # Column-major: each weight column is one contiguous buffer.
    u = np.empty(obs.shape, order="F")
    for j, a in enumerate(policy.exponents):
        _lehmer_weight_column(obs[:, j], j, a, w, u[:, j])
    return u


def _lehmer_weight_column(col: np.ndarray, j: int, a: float, w: Optional[np.ndarray],
                          out: np.ndarray) -> None:
    """Column ``j``'s Lehmer weights at order ``a``, by :func:`means._lehmer_column`,
    into ``out``; raises where they cannot be formed."""
    if _lehmer_column(col, a, None if w is None else w[:, j], out):
        return
    if np.minimum.reduce(col) > 0:
        raise _weights_out_of_range(f"the lehmer weights of column {j} at order {a}")
    raise DomainError(
        f"value {float(col[col <= 0][0])} in column {j} cannot be weighted by x**({a}-1); "
        "the lehmer policy needs strictly positive observations"
    )


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


def _unusable_estimate(theta: np.ndarray, model: FamilyModel, positive: bool = True) -> NumericError:
    """fit's error for an estimate that is not finite (and positive, on the kernel paths)."""
    return NumericError(f"the estimate theta_hat={theta.tolist()} of {model.name} is not finite"
                        + (" and positive" if positive else ""))


def fit(model: FamilyModel, observations, policy: WeightPolicy, *,
        method: str = "auto", seed: int = 0, minimality_samples: int = 0) -> FitResult:
    """Maximum weighted likelihood estimate of the model parameters.

    ``method`` is forwarded to the moment solver (``auto``/``closed``/
    ``newton``/``bisect``).  The diagnostics carry :func:`check_minimality`'s
    verdict at the estimate: of the exact covariance of ``T``, or of
    ``minimality_samples`` seeded draws when that is positive.  A degenerate
    verdict logs a warning, and so does a covariance that supports none.

    The observations are checked once, here, for finiteness and against
    ``model.support``, and the base weights once, where they are made.
    Per-column (Lehmer) weights give one univariate problem per independent
    component.  Row weights give one problem, except on a scale family
    (``model.scale_family``), where each component is fitted on its own
    column relative to its largest value, ``y = x_j / c_j``, whose largest
    term ``y ** k_j`` is exactly 1: the target neither overflows nor
    underflows at any shape, and ``theta_j = c_j * theta'_j``.

    A scale family's Holder targets come from :func:`means._column_means`,
    the kernel of ``holder_mean``.  Every Lehmer weight column comes from
    :func:`means._lehmer_column`, as in ``lehmer_mean`` and
    :func:`apply_policy`; on an identity statistic over independent
    non-negative components its target is ``sum(u * x) / sum(u)``,
    ``lehmer_mean`` to the bit.  An estimate on these two paths that is not
    finite and positive raises ``NumericError``.  Every other problem takes
    the target of :func:`weighted_stat_mean`, and a non-finite estimate
    raises ``NumericError``.
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
    if policy.kind == "lehmer" and model.components is None:
        raise ConfigError(
            f"model {model.name} is not separable; per-column weight policies "
            "require independent components"
        )
    kernel = model.scale_family if policy.kind == "holder" else subclass_form(model, policy).is_lehmer_mean
    row_weights = _holder_weights(w) if policy.kind == "holder" else None  # over their largest
    # One pass forms every problem's (sub-model, target, total weight) and
    # the scale c_j of each component, so that every weight column is
    # formed before any problem is solved; theta_j = c_j * theta'_j.
    problems, scale = [], np.ones(model.dim_eta)
    if policy.kind == "lehmer":
        # One column at a time, so that these buffers do not grow with the
        # columns; the contiguous copy is read by the log and by u * x.
        x, u = np.empty(obs.shape[0]), np.empty(obs.shape[0])
        for j, (sub_model, a) in enumerate(zip(model.components, policy.exponents)):
            np.copyto(x, obs[:, j])
            _lehmer_weight_column(x, j, a, w, u)
            if kernel:
                total = float(np.add.reduce(u))
                with np.errstate(over="ignore"):
                    sub_target = np.add.reduce(np.multiply(u, x, out=u), keepdims=True) / total
            else:
                data = WeightedDataset(obs[:, j : j + 1], u, _validated=True)
                sub_target, total = weighted_stat_mean(data, sub_model), data.total_weight
            problems.append((sub_model, sub_target, total))
    elif kernel:
        # A Holder column needs no copy: the kernel's x / x_r is contiguous.
        out = np.empty((1, 1, obs.shape[0]))
        for j, sub_model in enumerate(model.components or (model,)):
            (sub_target,), (total,), (ok,), (ref,) = _column_means(
                "holder", obs[None, :, j], sub_model.stat_powers, out, row_weights)
            if not ok[0]:
                raise _moved_terms_out_of_range(f"the Holder terms of column {j} in {sub_model.name}")
            if ref == 0.0:  # an all-zero column: target 0, the solver's to reject
                sub_target, ref = np.zeros(1), 1.0
            scale[j] = ref
            problems.append((sub_model, sub_target, float(total[0])))
    else:
        data = WeightedDataset(obs, None if row_weights is None else row_weights[0], _validated=True)
        problems.append((model, weighted_stat_mean(data, model), data.total_weight))
    infos, curvatures = [], []
    for sub_model, sub_target, total in problems:
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
        if sub_model is model and not (np.isfinite(hessian).all() and np.isfinite(spectrum).all()):
            raise NumericError(
                f"the curvature of {sub_model.name} at the estimate is not finite: "
                f"eigenvalues {spectrum.tolist()}"
            )
        curvatures.append(spectrum)
        infos.append(info)
    target = np.concatenate([sub_target for _, sub_target, _ in problems])
    eta = np.concatenate([info.eta for info in infos])
    eigenvalues = np.sort(np.concatenate(curvatures))
    methods = {info.method for info in infos}
    solve_method = methods.pop() if len(methods) == 1 else "mixed"

    theta = np.asarray(model.nat_param_inverse(eta), dtype=float).reshape(-1)
    if model.scale_family:  # elsewhere theta need not have one entry per component of scale
        theta = scale * theta
    # (1/target) ** (-1/k) may underflow to 0 or overflow where the target is fine.
    if not (np.isfinite(theta).all() and (not kernel or (theta > 0).all())):
        raise _unusable_estimate(theta, model, positive=kernel)
    # A flat direction of the covariance at the estimate means the maximum
    # is not isolated: never succeed silently there.
    try:
        verdict = check_minimality(model, eta, n_samples=minimality_samples or None, seed=seed)
    except NumericError as exc:
        verdict, warning = None, ("no minimality verdict: %s", exc)
    else:
        warning = None if verdict.minimal else (
            "weighted log-likelihood Hessian is numerically degenerate at the estimate: "
            "Cov[T] is flat along %s", verdict.direction.tolist())
    if warning:
        import logging  # imported only to warn: a fresh process starts faster without it

        logging.getLogger(__name__).warning(*warning)
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
# (columns x orders x rows) buffer near this many elements.
_SWEEP_BLOCK_ELEMENTS = 1 << 16


def _sweep_estimates(kind: str, obs: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, dict]:
    """Weibull scale estimates of every column of ``obs``, a non-empty matrix
    of finite, strictly positive values, at every finite order, in one pass.

    Row ``g`` of the returned ``(G, k)`` matrix is :func:`fit`'s
    ``theta_hat`` at ``orders[g]`` to the bit, every column computed at
    once by :func:`means._column_means`: for ``kind="lehmer"`` under the
    unit-shape Weibull model and the Lehmer policy of that order, for
    ``kind="holder"`` under the Weibull model of that (positive) shape and
    unit weights.  An order whose sums are inaccurate or whose estimates
    are not all finite and positive is a NaN row, and ``gaps`` maps it, in
    grid order, to the message ``fit`` raises there.
    """
    n, k = obs.shape
    columns = np.ascontiguousarray(obs.T)  # one contiguous row per column, as fit reads it
    out = np.empty((k, max(1, min(orders.size, _SWEEP_BLOCK_ELEMENTS // (k * n))), n))
    with np.errstate(all="ignore"):
        target, _, accurate, ref = _column_means(kind, columns, orders, out)  # (k, G)
    estimate = _scale_estimates(ref, target, orders if kind == "holder" else np.ones(orders.size))
    usable = (0 < estimate) & (estimate < np.inf)
    good = np.all(accurate & usable, axis=0)
    gaps, model = {}, None
    for g in np.flatnonzero(~good):
        order = orders[g]
        if model is None or kind == "holder":  # only a Holder model's shapes change
            model = weibull_model(np.full(k, order) if kind == "holder" else np.ones(k))
        gaps[float(order)] = _sweep_gap(model, order, target[:, g], estimate[:, g],
                                        accurate[:, g], usable[:, g])
    return np.where(good[:, None], estimate.T, np.nan), gaps


def _sweep_gap(model, order, targets, estimates, accurate, usable) -> str:
    """The first of fit's reasons that applies at a rejected sweep order."""
    if not accurate.all():  # fit forms every weight column before it solves one
        j = int(np.argmin(accurate))
        return str(_weights_out_of_range(f"the lehmer weights of column {j} at order {order}"))
    # The solver accepts the target of every column whose estimate is usable.
    for j in np.flatnonzero(~usable):
        try:
            _solve_mean_target(model.components[j], targets[j])
        except (DomainError, SolverError) as exc:
            return str(exc)
    return str(_unusable_estimate(estimates, model))


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
