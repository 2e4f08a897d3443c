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

With the Lehmer policy the weights differ per column, so each entry of
the target is its column's mean under its own weights, which requires a
separable model; the target is matched as one vector, as under row
weights.  An identity statistic per component then reproduces the Lehmer
mean of each column, and a power statistic under the ``holder`` policy the
Holder mean (:func:`subclass_form` reports which, if either, a (model,
policy) pair realizes).  On a scale family both fits, and
:func:`_sweep_estimates` over a grid of orders, run the column
arithmetic of :mod:`wmle.means`, each column divided by a scale that
keeps its target and curvature finite; every other fit takes
:func:`weighted_stat_mean`'s target of the arrays :func:`fit` checked,
without a ``WeightedDataset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .expfam import (  # WeightedDataset and weighted_stat_mean stay bound for perfbench's tracer
    FamilyModel,
    MinimalityVerdict,
    WeightedDataset,
    _observation_matrix,
    _solve_mean_target,
    _stat_covariance,
    _weighted_stat_mean,
    check_minimality,
    weighted_stat_mean,
)
from .families import weibull_model
from .means import (
    _column_means,
    _lehmer_weights,
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
    estimate (column ``j`` times its own ``sum(u_j)`` under per-column
    weights), in the problem :func:`fit` solves: under weights relative to
    their largest, and in the coordinates ``x_j / c_j`` of
    :attr:`FitResult.scale`, where a Weibull column's curvature stays
    finite at every shape and magnitude; a curvature that is not finite
    raises ``NumericError``.  ``minimality`` is :func:`check_minimality`'s
    verdict at ``eta_hat``, in the same coordinates, or ``None`` when the
    covariance there is not finite.  ``solve_method`` is ``closed``,
    ``newton`` or ``bisect`` (Newton's fallback).
    """

    iterations: int
    residual_norm: float
    hessian_smallest: float
    hessian_largest: float
    minimality: Optional[MinimalityVerdict]
    solve_method: str


class FitResult(NamedTuple):
    """Estimate in both parameterizations plus the matched moment target.

    ``scale`` holds the factors ``c_j`` the data were divided by, and
    ``eta_hat`` and ``target`` are those of the scaled problem: on a scale
    family the column's largest value under row weights, and under the
    Lehmer policy on the identity statistic the power of two that puts
    ``target[j]`` in ``[1, 2)`` (``target[j] * scale[j]`` is ``lehmer_mean``
    to the bit); ones elsewhere.  Invariants: ``nat_param(theta_hat /
    scale) == eta_hat`` to 1e-10 on a scale family and
    ``nat_param(theta_hat) == eta_hat`` elsewhere, and ``mean_map(eta_hat)
    == target`` to the solver tolerance.
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
    if not (np.minimum.reduce(w, axis=None) > 0 and np.maximum.reduce(w, axis=None) < math.inf):
        raise DomainError("weight policy produced weights that are not strictly positive and finite")
    return w


def apply_policy(policy: WeightPolicy, observations) -> np.ndarray:
    """Evaluate the policy on an ``(n, k)`` matrix, relative to the largest weight.

    Returns ``(n,)`` weights for the holder kind and an ``(n, k)``
    per-column weight matrix for the lehmer kind.  Only ratios of weights
    enter an estimate, so the row weights and each lehmer column are divided
    by their largest weight: these weights cannot overflow, nor can their
    sum, at any order.  Every lehmer column, at its own order, comes from
    one call of :func:`means._lehmer_weights`.  Raises ``DomainError``
    when a base weight is not strictly positive and finite or a lehmer
    column at an order other than 1 holds a non-positive value (where
    :func:`means.lehmer_mean` and :func:`means.v_weights` give a zero value
    weight 0 above order 1), and ``NumericError`` where a lehmer column
    cannot be formed accurately: at an order below 1 on values more than
    ``exp(600)`` apart.  The first such column is the one reported.
    """
    obs, lo, hi = _observation_matrix(observations)
    w = _base_weights(policy, obs)
    if policy.kind == "holder":
        return np.ones(obs.shape[0]) if w is None else w / np.maximum.reduce(w)
    return _lehmer_weight_rows(obs, lo, hi, policy.exponents, w).T  # (n, k) in F order


def _lehmer_weight_rows(obs: np.ndarray, lo: np.ndarray, hi: np.ndarray, exponents: np.ndarray,
                        w: Optional[np.ndarray]) -> np.ndarray:
    """Each column of the checked ``(n, k)`` matrix ``obs``, with extremes
    ``lo`` and ``hi``, weighted at its own order by one call of
    :func:`means._lehmer_weights`, as a C-order ``(k, n)`` matrix; raises
    for the first column whose weights cannot be formed."""
    n, k = obs.shape
    u = np.empty((k, 1, n))
    ok = _lehmer_weights(obs.T, exponents[:, None], u, lo, hi, None if w is None else w.T)
    if not ok.all():
        j = int(np.argmin(ok[:, 0]))
        raise _lehmer_weights_error(obs[:, j], lo[j], j, exponents[j])
    return u[:, 0]


def _lehmer_weights_error(column: np.ndarray, smallest: float, j: int, a: float) -> Exception:
    """The error for column ``j``, with smallest value ``smallest``, whose
    Lehmer weights at order ``a`` could not be formed."""
    if smallest > 0:
        return _weights_out_of_range(f"the lehmer weights of column {j} at order {a}")
    return DomainError(
        f"value {float(column[column <= 0][0])} in column {j} cannot be weighted by x**({a}-1); "
        "the lehmer policy needs strictly positive observations"
    )


def _check_support(model: FamilyModel, obs: np.ndarray, smallest: np.ndarray, largest: np.ndarray) -> None:
    """Raise ``DomainError`` naming the first value outside ``model.support``;
    ``smallest`` and ``largest`` are the column extremes of ``obs``."""
    lo, hi = model.support
    if (smallest < lo).any() or (largest > hi).any():
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
        minimality_samples: int = 0) -> FitResult:
    """Maximum weighted likelihood estimate of the model parameters.

    The solver takes the model's closed-form inverse, else damped Newton.
    The diagnostics carry :func:`check_minimality`'s verdict at the
    estimate: of the exact covariance of ``T``, or of ``minimality_samples``
    draws (seed 0) when that is positive.  A degenerate verdict logs a
    warning, and so does a covariance that supports none.

    The observations are checked once, here, for finiteness and against
    ``model.support``, on each column's extremes, which the column kernels
    take too, and the base weights once, where they are made.
    Every fit forms one target vector and one total weight, a scalar under
    row weights and one per column under per-column (Lehmer) weights, then
    solves ``r(eta) = target`` once, and takes the curvature's spectrum
    once, on the model it is given: its own ``mean_map_inverse`` and
    ``mean_map_jacobian``.  A separable model's components serve only the
    bisection fallback, the minimality verdict and :func:`subclass_form`.
    On a scale family (``model.scale_family``) each column is fitted
    relative to its largest value, ``y = x_j / c_j``, whose largest term
    ``y ** k_j`` is exactly 1: the target neither overflows nor underflows
    at any shape, and ``theta_j = c_j * theta'_j``.

    A scale family's Holder targets, and the Lehmer ones on its identity
    statistic (the unit-shape Weibull model), come from one call of
    :func:`means._column_means`, the kernel of ``holder_mean``,
    ``lehmer_mean`` and the sweep, over every column at its own shape or
    order, at any ``n``: the kernel walks the columns together in cache-sized
    leaves of numpy's pairwise summation tree, so each target has the bits
    of a one-column fit and no buffer grows with ``n``.  A Lehmer column
    is fitted on ``x_j * 2**-e_j``, whose target ``sum(u * y) / sum(u)``
    cannot overflow.  An estimate on this path that is not finite and
    positive raises ``NumericError``, and the first column whose target
    cannot be formed is the one reported.  The kernel takes the base
    weights as they are made.  Every other fit takes the target
    :func:`weighted_stat_mean` forms, on these checked arrays, under row
    weights over their largest, or under a Lehmer policy's weight columns,
    all from one call of :func:`means._lehmer_weights`, each column with its
    component's statistic, and a non-finite estimate raises
    ``NumericError``; so does a curvature that is not finite, on every
    path.  A zero value at a Lehmer order other than 1 is rejected on every
    path, as :func:`apply_policy` rejects it.
    """
    if not model.nat_param_bijective:
        raise ConfigError(
            f"model {model.name} declares a non-bijective parameter map; "
            "theta cannot be recovered from eta"
        )
    obs, smallest, largest = _observation_matrix(observations)
    if obs.shape[1] != model.dim_x:
        raise DomainError(
            f"data has {obs.shape[1]} columns, model {model.name} expects {model.dim_x}"
        )
    _check_support(model, obs, smallest, largest)
    w = _base_weights(policy, obs)
    if policy.kind == "lehmer" and model.components is None:
        raise ConfigError(
            f"model {model.name} is not separable; per-column weight policies "
            "require independent components"
        )
    kernel = model.scale_family and (policy.kind == "holder" or subclass_form(model, policy).is_lehmer_mean)
    # The target, the total weight (one per column under per-column weights)
    # and the scale c_j of each column; theta_j = c_j * theta'_j.
    scale = np.ones(model.dim_eta)
    lehmer = policy.kind == "lehmer"
    if kernel:
        orders = (policy.exponents if lehmer else model.stat_powers)[:, None]  # one per column
        targets, totals, ok, refs = _column_means(policy.kind, obs.T, orders, smallest, largest,
                                                  w.T if lehmer and w is not None else w)
        if not ok.all():
            j = int(np.argmin(ok[:, 0]))
            name = (model.components or (model,))[j].name
            raise (_lehmer_weights_error(obs[:, j], smallest[j], j, orders[j, 0]) if lehmer else
                   _moved_terms_out_of_range(f"the Holder terms of column {j} in {name}"))
        zero = refs[:, 0] == 0.0  # an all-zero Holder column: target 0, the solver's to reject
        target, total = np.where(zero, 0.0, targets[:, 0]), totals[:, 0]
        scale = np.where(zero, 1.0, refs[:, 0])
    elif lehmer:
        # Each column's statistic is its component's: T(x) of the whole
        # matrix may differ from it in the last bit.
        u = _lehmer_weight_rows(obs, smallest, largest, policy.exponents, w)
        total = np.add.reduce(u, axis=1)
        target = np.array([_weighted_stat_mean(c, obs[:, j : j + 1], u[j], total[j])[0]
                           for j, c in enumerate(model.components)])
    else:
        u = 1.0 if w is None else w / np.maximum.reduce(w)
        total = float(obs.shape[0]) if w is None else float(np.add.reduce(u))
        target = _weighted_stat_mean(model, obs, u, total)
    info = _solve_mean_target(model, target)
    eta = info.eta
    # A curvature that overflows makes eigvalsh fail; that is reported as a
    # NumericError, not as numpy warnings and a LinAlgError.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hessian = -total * _stat_covariance(model, eta)  # diagonal wherever total is a vector
        try:
            eigenvalues = np.linalg.eigvalsh(hessian)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"the curvature of {model.name} at the estimate is not finite: {exc}") from exc
    # eigvalsh turns an overflowed entry into a NaN spectrum, and a NaN
    # entry can give a finite one.
    if not (np.isfinite(hessian).all() and np.isfinite(eigenvalues).all()):
        raise NumericError(f"the curvature of {model.name} at the estimate is not finite: "
                           f"eigenvalues {eigenvalues.tolist()}")

    theta = np.asarray(model.nat_param_inverse(eta), dtype=float).reshape(-1)
    if model.scale_family:  # elsewhere theta need not have one entry per component of scale
        theta = scale * theta
    # (1/target) ** (-1/k) may underflow to 0 or overflow where the target is fine.
    if not (np.isfinite(theta).all() and (not kernel or (theta > 0).all())):
        raise _unusable_estimate(theta, model, positive=kernel)
    # A flat direction of the covariance at the estimate means the maximum
    # is not isolated: never succeed silently there.
    try:
        verdict = check_minimality(model, eta, n_samples=minimality_samples or None)
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
        iterations=info.iterations,
        residual_norm=info.residual,
        hessian_smallest=float(eigenvalues[0]),
        hessian_largest=float(eigenvalues[-1]),
        minimality=verdict,
        solve_method=info.method,
    )
    return FitResult(theta_hat=theta, eta_hat=eta, target=target, scale=scale,
                     diagnostics=diagnostics)


def _sweep_estimates(kind: str, obs: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, dict]:
    """Weibull scale estimates of every column of ``obs`` at every finite
    order, in one pass; ``DomainError`` unless its column extremes show a
    non-empty matrix of finite, strictly positive values.

    Row ``g`` of the returned ``(G, k)`` matrix is :func:`fit`'s
    ``theta_hat`` at ``orders[g]`` to the bit, every column computed at
    once by :func:`means._column_means`: for ``kind="lehmer"`` under the
    unit-shape Weibull model and the Lehmer policy of that order, for
    ``kind="holder"`` under the Weibull model of that (positive) shape and
    unit weights.  An order whose sums are inaccurate or whose estimates
    are not all finite and positive is a NaN row, and ``gaps`` maps it, in
    grid order, to the message ``fit`` raises there.
    """
    k = obs.shape[1]
    columns = np.ascontiguousarray(obs.T)  # one contiguous row per column
    if columns.size:
        lo, hi = np.minimum.reduce(columns, axis=1), np.maximum.reduce(columns, axis=1)
    if not (columns.size and (lo > 0).all() and (hi < np.inf).all()):  # a NaN fails both
        raise DomainError("the sweep needs a non-empty matrix of finite, strictly positive values")
    with np.errstate(all="ignore"):
        target, _, accurate, ref = _column_means(kind, columns, orders, lo, hi)  # (k, G)
    estimate = _scale_estimates(ref, target, orders if kind == "holder" else np.ones(orders.size))
    usable = (0 < estimate) & (estimate < np.inf)
    good = np.all(accurate & usable, axis=0)
    gaps = {}
    # fit forms every weight column before it solves one, and the solver
    # accepts every target here: a Lehmer mantissa in [1, 2), or a Holder
    # target of at least 1/n.
    for g in np.flatnonzero(~good):
        order = orders[g]
        if not accurate[:, g].all():
            j = int(np.argmin(accurate[:, g]))
            gap = _lehmer_weights_error(columns[j], lo[j], j, order)
        else:
            gap = _unusable_estimate(estimate[:, g], weibull_model(np.full(k, order) if kind == "holder"
                                                                    else np.ones(k)))
        gaps[float(order)] = str(gap)
    return np.where(good[:, None], estimate.T, np.nan), gaps


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
