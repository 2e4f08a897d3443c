"""Minimal multivariate exponential families and the weighted likelihood.

A family is described by :class:`FamilyModel`: base measure, sufficient
statistic ``T``, the bijective natural-parameter map ``eta(theta)``, the
log-normalizer ``H(eta)`` and, when available, the closed-form mean map
``r(eta) = grad H(eta) = E[T(X)]`` with its inverse and Jacobian.

Densities have the form ``a(x) * exp(<eta, T(x)> - H(eta))`` on the natural
domain ``{eta : H(eta) < inf}``.  The weighted log-likelihood of a dataset
with positive, parameter-free observation weights ``u`` is

    l(eta) = sum_i u_i * (log a(x_i) + <eta, T(x_i)> - H(eta))

with gradient ``sum_i u_i (T(x_i) - r(eta))`` and Hessian
``-(sum_i u_i) * K``, where ``K`` is the covariance matrix of ``T(X)``.
The Hessian is negative semi-definite everywhere, so the critical point
where ``r(eta)`` equals the weighted mean of sufficient statistics is a
global maximum, and it is unique when the family is minimal (no nontrivial
linear combination of the components of ``T`` is almost surely constant).

The moment target itself, the u-weighted mean of ``T``, is
:func:`weighted_stat_mean`; it lives here, next to the gradient that uses
it, and :mod:`wmle.mwle` re-exports it.

Callable conventions: every x-callable takes a 2-D ``(n, k)`` array and
returns ``(n,)`` for ``log_base_measure`` or ``(n, q)`` for
``sufficient_stat``.  Parameter callables take and return 1-D arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NoSolutionError,
    NumericError,
)
from .means import _weight_vector

__all__ = [
    "FamilyModel",
    "WeightedDataset",
    "MinimalityVerdict",
    "log_pdf",
    "weighted_stat_mean",
    "log_weighted_likelihood",
    "grad_log_weighted_likelihood",
    "hessian_log_weighted_likelihood",
    "mean_map",
    "inverse_mean_map",
    "check_minimality",
]

# Central-difference step scale for first derivatives.
_FD_SCALE = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Damped Newton iterations before the solver falls back or gives up.
_MAX_ITER = 200

# Step halvings a damped Newton step tries before the iteration gives up.
_MAX_HALVINGS = 50

# Smallest/largest eigenvalue ratio at or below which a joint model is degenerate.
_MINIMALITY_RATIO = 1e-8


@dataclass(frozen=True)
class FamilyModel:
    """Immutable description of one exponential family.

    Only the first block of fields is required.  Closed forms, when given,
    replace the finite-difference fallbacks; ``components`` marks a product
    of independent univariate families, whose Jacobian is then diagonal,
    and enables per-column weights, per-component bisection and residual
    tolerances; ``stat_powers`` records ``p`` when ``T_j(x) = x_j ** p_j``,
    which is what the mean-family structure checks look at.
    ``scale_family`` declares that each component (the model itself when
    univariate) is a scale family with that power statistic: data ``x_j /
    c`` have the estimate ``theta_j / c``, so :func:`wmle.mwle.fit` may fit
    each component on its values relative to their largest.
    """

    name: str
    dim_x: int
    dim_eta: int
    log_base_measure: Callable[[np.ndarray], np.ndarray]
    sufficient_stat: Callable[[np.ndarray], np.ndarray]
    nat_param: Callable[[np.ndarray], np.ndarray]
    nat_param_inverse: Callable[[np.ndarray], np.ndarray]
    log_normalizer: Callable[[np.ndarray], float]
    natural_domain: Callable[[np.ndarray], bool]
    mean_map_closed: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mean_map_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mean_map_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[np.ndarray, int, np.random.Generator], np.ndarray]] = None
    components: Optional[tuple["FamilyModel", ...]] = None
    stat_powers: Optional[np.ndarray] = None
    natural_interval: Optional[tuple[float, float]] = None
    support: tuple[float, float] = (0.0, math.inf)
    nat_param_bijective: bool = True
    scale_family: bool = False

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_eta < 1:
            raise ConfigError("model dimensions must be at least 1")
        if self.dim_eta > self.dim_x:
            raise ConfigError(
                f"natural dimension q={self.dim_eta} exceeds observation "
                f"dimension k={self.dim_x}; the sufficient statistic would be redundant"
            )
        if self.components is not None and len(self.components) != self.dim_eta:
            raise ConfigError("separable model needs one component per natural parameter")
        if self.scale_family and self.components is None and self.dim_eta > 1:
            raise ConfigError("a scale family with several parameters needs its components")


_EXTREME_ROWS = 512  # rows of a C-order matrix folded into one row of the reduction below


def _observation_matrix(observations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observations as a finite, non-empty ``(n, k)`` float matrix, a 1-D
    input being one column, with each column's extremes, which ``fit``'s
    support check and the column kernels of :mod:`wmle.means` read too.
    Each is one pass with no temporary, over a C-order matrix as ``(n / m,
    m * k)`` rows, whose steps are contiguous loops, then its last ``m``
    rows (a row seen twice moves no extreme) and the ``m`` rows of ``k``."""
    obs = np.asarray(observations, dtype=float)
    if obs.ndim == 1:
        obs = obs.reshape(-1, 1)
    if obs.ndim != 2 or obs.shape[0] < 1:
        raise DomainError("observations must form a non-empty n-by-k matrix")
    if not (obs.flags.c_contiguous or obs.flags.f_contiguous):
        obs = np.ascontiguousarray(obs)  # a strided view: one copy, which the check and the kernels read
    (n, k), m = obs.shape, _EXTREME_ROWS
    if obs.flags.c_contiguous and n >= m:
        head, last = obs[: n - n % m].reshape(-1, m * k), obs[n - m :]
        lo, hi = (extreme.reduce(extreme(extreme.reduce(head, axis=0).reshape(m, k), last), axis=0)
                  for extreme in (np.minimum, np.maximum))
    else:  # F order, or few rows; a NaN reaches both extremes of its column, an infinity one
        lo, hi = (np.array([extreme.reduce(obs[:, j]) for j in range(k)]) for extreme in (np.minimum, np.maximum))
    if not ((-math.inf < lo).all() and (hi < math.inf).all()):
        raise DomainError("observations must be finite")
    return obs, lo, hi


@dataclass(frozen=True)
class WeightedDataset:
    """Observations ``(n, k)`` with strictly positive per-row weights ``(n,)``.

    Weights are parameter-free by construction: they are computed from the
    observations before any fit (see :mod:`wmle.mwle`).  ``weights=None``
    means unit weights.  ``total_weight`` is their sum, computed once at
    construction; the weights are positive, so that is numpy's pairwise sum.
    The constructor always checks its input; :func:`wmle.mwle.fit` builds none.
    """

    observations: np.ndarray
    weights: Optional[np.ndarray] = None
    total_weight: float = field(init=False)

    def __post_init__(self):
        obs = _observation_matrix(self.observations)[0]
        w = (np.broadcast_to(1.0, obs.shape[:1]) if self.weights is None  # read-only ones
             else _weight_vector(self.weights, obs.shape[0], "observations", "observation"))
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "weights", w)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "total_weight", float(np.add.reduce(w)))


class MinimalityVerdict(NamedTuple):
    """Outcome of :func:`check_minimality`, the covariance-rank check.

    ``direction`` is the unit direction along which ``Cov[T(X)]`` is flat
    when the model is degenerate (the linear combination of ``T``
    components that is almost surely constant), otherwise ``None``.
    """

    minimal: bool
    direction: Optional[np.ndarray]
    smallest_eigenvalue: float
    largest_eigenvalue: float


def _check_eta(model: FamilyModel, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape[0] != model.dim_eta:
        raise DomainError(
            f"eta has dimension {eta.shape[0]}, model {model.name} expects {model.dim_eta}"
        )
    if not model.natural_domain(eta):
        raise DomainError(
            f"eta={eta.tolist()} is outside the natural domain of {model.name}"
        )
    return eta


def log_pdf(model: FamilyModel, x, eta):
    """Log density ``log a(x) + <eta, T(x)> - H(eta)``.

    ``x`` may be a single point ``(k,)`` (returns a float) or a matrix
    ``(n, k)`` (returns ``(n,)``).
    """
    eta = _check_eta(model, eta)
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim <= 1
    pts = np.atleast_2d(x_arr)
    if pts.shape[1] != model.dim_x:
        raise DomainError(
            f"x has dimension {pts.shape[1]}, model {model.name} expects {model.dim_x}"
        )
    h = model.log_normalizer(eta)
    values = model.log_base_measure(pts) + model.sufficient_stat(pts) @ eta - h
    return float(values[0]) if single else values


def _sum(terms: np.ndarray) -> float:
    """Sum of a 1-D array, accurate to a few ulps whatever its length.

    Non-negative terms have condition number 1, and numpy's pairwise sum
    bounds their error by O(log n) eps (Higham 1993): 2.9e-16 relative on
    1e6 copies of 0.1.  numpy pairs terms only along its inner loop, so the
    array must be reduced on its own: ``np.sum(M, axis=0)`` over a C-order
    matrix or ``einsum`` gave 1.3e-11 on the same data, a BLAS dot 2.1e-13.
    Once any term is negative, terms can cancel and no such bound holds, so
    the array goes to the correctly rounded ``math.fsum``: a plain sum of
    [1e16, 1, -1e16, 1] gives 1.0 instead of 2.0.  A sum that overflows is
    inf, left to the caller's finiteness checks.
    """
    if np.minimum.reduce(terms) < 0:
        return math.fsum(terms)
    with np.errstate(over="ignore"):
        return float(np.add.reduce(terms))


def log_weighted_likelihood(model: FamilyModel, data: WeightedDataset, eta) -> float:
    """Weighted log-likelihood ``sum_i u_i (log a + <eta, T> - H)``.

    The row sum goes through :func:`_sum`: pairwise when every term is
    non-negative, ``math.fsum`` once any term is negative.
    """
    eta = _check_eta(model, eta)
    obs = data.observations
    per_row = model.log_base_measure(obs) + model.sufficient_stat(obs) @ eta
    return _sum(data.weights * per_row) - data.total_weight * model.log_normalizer(eta)


def weighted_stat_mean(data: WeightedDataset, model: FamilyModel) -> np.ndarray:
    """Moment target ``sum(u_i T(x_i)) / sum(u_i)`` of a dataset."""
    return _weighted_stat_mean(model, data.observations, data.weights, data.total_weight)


def _weighted_stat_mean(model: FamilyModel, obs: np.ndarray, weights, total: float) -> np.ndarray:
    """:func:`weighted_stat_mean` of a checked ``(n, k)`` matrix under positive
    weights ``(n,)``, or the scalar 1, that sum to ``total``; :func:`wmle.mwle.fit` calls it.

    Each column of ``T`` is summed on its own by :func:`_sum`: numpy's
    pairwise sum for a non-negative statistic (relative error 2.9e-16 at
    n = 1e6), ``math.fsum`` for one with negative entries.  An overflow in
    the statistic or its sums gives a non-finite target, which the solver
    reports as a ``DomainError``.
    """
    with np.errstate(over="ignore"):
        stats = model.sufficient_stat(obs)
        return np.array([_sum(weights * stats[:, j]) / total for j in range(stats.shape[1])])


def grad_log_weighted_likelihood(model: FamilyModel, data: WeightedDataset, eta) -> np.ndarray:
    """Gradient ``sum_i u_i (T(x_i) - r(eta))``; zero exactly at the MWLE."""
    eta = _check_eta(model, eta)
    return data.total_weight * (weighted_stat_mean(data, model) - mean_map(model, eta))


def hessian_log_weighted_likelihood(model: FamilyModel, data: WeightedDataset, eta) -> np.ndarray:
    """Hessian ``-(sum_i u_i) * Cov[T(X)]`` at ``eta``; symmetric, NSD."""
    eta = _check_eta(model, eta)
    return -data.total_weight * _stat_covariance(model, eta)


def mean_map(model: FamilyModel, eta) -> np.ndarray:
    """Mean map ``r(eta) = grad H(eta) = E[T(X)]``.

    Uses the model's closed form when present, otherwise central finite
    differences of the log-normalizer with step ``eps**(1/3) * (1 + |eta_j|)``.
    """
    eta = _check_eta(model, eta)
    if model.mean_map_closed is not None:
        return np.asarray(model.mean_map_closed(eta), dtype=float).reshape(-1)
    return np.array(
        [_central_difference(model, model.log_normalizer, eta, j) for j in range(eta.size)]
    )


def _central_difference(model: FamilyModel, fn, eta: np.ndarray, j: int) -> np.ndarray:
    """Central difference of a scalar- or vector-valued function of eta
    along axis j.

    Halves the step until both probe points stay inside the natural domain
    and ``fn`` is finite at both, which matters near a domain boundary.
    """
    h = _FD_SCALE * (1.0 + abs(float(eta[j])))
    for _ in range(40):
        plus = eta.copy()
        minus = eta.copy()
        plus[j] += h
        minus[j] -= h
        if model.natural_domain(plus) and model.natural_domain(minus):
            fp = np.asarray(fn(plus), dtype=float)
            fm = np.asarray(fn(minus), dtype=float)
            if np.all(np.isfinite(fp)) and np.all(np.isfinite(fm)):
                return (fp - fm) / (2.0 * h)
        h *= 0.5
    raise NumericError(
        f"could not find a finite-difference step inside the natural domain at eta={eta.tolist()}"
    )


def _stat_covariance(model: FamilyModel, eta: np.ndarray) -> np.ndarray:
    """Covariance of ``T(X)`` at eta, i.e. the Jacobian of the mean map.

    Closed form when declared, otherwise column-wise central differences of
    :func:`mean_map`.  Always symmetrized, so the second-derivative symmetry
    holds exactly in the output.
    """
    if model.mean_map_jacobian is not None:
        cov = np.asarray(model.mean_map_jacobian(eta), dtype=float)
    else:
        r = partial(mean_map, model)
        cov = np.column_stack([_central_difference(model, r, eta, j) for j in range(eta.size)])
    return 0.5 * (cov + cov.T)


class _SolveInfo(NamedTuple):
    eta: np.ndarray
    iterations: int
    residual: float
    method: str


def inverse_mean_map(model: FamilyModel, target, init=None, *, method: str = "auto") -> np.ndarray:
    """Solve ``r(eta) = target`` for eta.

    ``method`` selects the path: ``"closed"`` requires the model's
    closed-form inverse, ``"newton"`` runs damped Newton on the residual
    from ``init`` (default: a coarse bisection, separable models only),
    ``"bisect"`` forces the per-component bisection (separable models only)
    and ``"auto"`` prefers closed form, then Newton with bisection fallback.

    Guarantees ``max|r(eta) - target| <= 1e-10 * (1 + max|target|)`` on
    success; on a separable model, ``|r_j(eta) - target_j| <= 1e-10 * (1 +
    |target_j|)`` for each component, as the component's own solve would.
    Raises ``NoSolutionError`` when the target is outside the attainable
    range and ``ConvergenceError`` (carrying the last iterate and residual)
    when the ``_MAX_ITER`` Newton iterations are exhausted without a
    fallback.
    """
    return _solve_mean_target(model, target, init=init, method=method).eta


def _solve_mean_target(model: FamilyModel, target, init=None, *, method: str = "auto") -> _SolveInfo:
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape[0] != model.dim_eta:
        raise DomainError(
            f"target has dimension {target.shape[0]}, model {model.name} expects {model.dim_eta}"
        )
    if not np.all(np.isfinite(target)):
        raise DomainError("moment target must be finite")
    # Independent components are judged each against its own target.
    scale = 1.0 + (np.abs(target) if model.components is not None else float(np.max(np.abs(target))))
    tol_strong = 1e-12 * scale
    tol_weak = 1e-10 * scale

    if method not in ("auto", "closed", "newton", "bisect"):
        raise ConfigError(f"unknown solve method {method!r}")
    if method in ("auto", "closed") and model.mean_map_inverse is not None:
        eta = np.asarray(model.mean_map_inverse(target), dtype=float).reshape(-1)
        if not model.natural_domain(eta):
            raise NoSolutionError(
                f"closed-form inverse left the natural domain for target {target.tolist()}"
            )
        residual = float(np.max(np.abs(mean_map(model, eta) - target)))
        return _SolveInfo(eta, 0, residual, "closed")
    if method == "closed":
        raise ConfigError(f"model {model.name} declares no closed-form mean-map inverse")
    if method == "bisect":
        return _solve_bisect(model, target, tol_strong, tol_weak)

    return _solve_newton(model, target, init, tol_strong, tol_weak)


def _solve_newton(model: FamilyModel, target: np.ndarray, init, tol_strong, tol_weak) -> _SolveInfo:
    """Damped Newton on ``r(eta) - target``, each residual measured in units
    of its own ``tol_strong`` (a scalar, or one per component)."""
    if init is not None:
        eta = np.asarray(init, dtype=float).reshape(-1).copy()
        if not model.natural_domain(eta):
            raise DomainError(f"Newton initialization {eta.tolist()} is outside the natural domain")
    else:
        eta = _solve_bisect(model, target, 1e-2, math.inf, coarse=True).eta

    residual_vec = mean_map(model, eta) - target
    excess = float(np.max(np.abs(residual_vec) / tol_strong))
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if excess <= 1.0:
            return _SolveInfo(eta, iterations - 1, float(np.max(np.abs(residual_vec))), "newton")
        jac = _stat_covariance(model, eta)
        try:
            step = np.linalg.solve(jac, -residual_vec)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = eta + t * step
            if model.natural_domain(candidate):
                cand_vec = mean_map(model, candidate) - target
                cand_excess = float(np.max(np.abs(cand_vec) / tol_strong))
                if math.isfinite(cand_excess) and cand_excess < excess:
                    eta, residual_vec, excess = candidate, cand_vec, cand_excess
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
    residual = float(np.max(np.abs(residual_vec)))
    if (np.abs(residual_vec) <= tol_weak).all():
        return _SolveInfo(eta, iterations, residual, "newton")
    if _bisect_applicable(model):
        return _solve_bisect(model, target, tol_strong, tol_weak)
    raise ConvergenceError(
        f"Newton failed to reach tolerance after {iterations} iterations "
        f"(residual {residual:.3e})",
        last_eta=eta,
        residual=residual,
    )


def _bisect_applicable(model: FamilyModel) -> bool:
    if model.components is not None:
        return all(c.natural_interval is not None for c in model.components)
    return model.dim_eta == 1 and model.natural_interval is not None


def _solve_bisect(model: FamilyModel, target: np.ndarray, tol, tol_weak,
                  coarse: bool = False) -> _SolveInfo:
    """Per-component bisection on the (strictly increasing) scalar mean maps."""
    if not _bisect_applicable(model):
        raise ConfigError(
            f"model {model.name} is not separable with known natural intervals; "
            "bisection is unavailable"
        )
    comps = model.components if model.components is not None else (model,)
    etas = np.empty(model.dim_eta)
    total_iter = 0
    worst = 0.0
    tol, tol_weak = np.broadcast_to(tol, target.shape), np.broadcast_to(tol_weak, target.shape)
    for j, comp in enumerate(comps):
        eta_j, iters, res = _bisect_component(comp, float(target[j]), tol[j], tol_weak[j], coarse)
        etas[j] = eta_j
        total_iter += iters
        worst = max(worst, res)
    return _SolveInfo(etas, total_iter, worst, "bisect")


def _bisect_component(comp: FamilyModel, target: float, tol: float, tol_weak: float,
                      coarse: bool) -> tuple[float, int, float]:
    lo_bound, hi_bound = comp.natural_interval

    def residual_at(e: float) -> float:
        r = mean_map(comp, np.array([e]))
        return float(r[0]) - target

    # Anchor somewhere strictly inside the interval.
    if math.isinf(lo_bound) and math.isinf(hi_bound):
        anchor = 0.0
    elif math.isinf(lo_bound):
        anchor = hi_bound - 1.0
    elif math.isinf(hi_bound):
        anchor = lo_bound + 1.0
    else:
        anchor = 0.5 * (lo_bound + hi_bound)

    lo, f_lo = _expand(comp, residual_at, anchor, lo_bound, want_negative=True)
    hi, f_hi = _expand(comp, residual_at, anchor, hi_bound, want_negative=False)
    if f_lo is None or f_hi is None:
        reached_lo = residual_at(lo) + target if f_lo is None else f_lo + target
        reached_hi = residual_at(hi) + target if f_hi is None else f_hi + target
        raise NoSolutionError(
            f"target {target} is outside the attainable range of {comp.name}",
            hint=f"attainable component means explored: [{reached_lo:.6g}, {reached_hi:.6g}]",
        )

    iterations = 0
    max_bisect = 30 if coarse else 300
    for iterations in range(1, max_bisect + 1):
        mid = 0.5 * (lo + hi)
        f_mid = residual_at(mid)
        if abs(f_mid) <= tol or (hi - lo) <= abs(mid) * 1e-16:
            break
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    if not coarse and abs(f_mid) > tol and abs(f_mid) > tol_weak:
        raise ConvergenceError(
            f"bisection stalled on {comp.name} (residual {f_mid:.3e})",
            last_eta=np.array([mid]),
            residual=abs(f_mid),
        )
    return mid, iterations, abs(f_mid)


def _expand(comp: FamilyModel, residual_at, anchor: float, bound: float,
            want_negative: bool):
    """March geometrically from the anchor towards ``bound`` until the
    residual has the wanted sign.  Returns (point, residual) or (point, None)
    when the sign never shows up, meaning the target is unattainable on that
    side."""
    point = anchor
    value = residual_at(point)
    if (value < 0.0) == want_negative or value == 0.0:
        return point, value
    for i in range(1, 200):
        if bound == -math.inf:
            point = anchor - 2.0 ** i
        elif bound == math.inf:
            point = anchor + 2.0 ** i
        else:
            # geometric approach to a finite open boundary
            point = bound + (anchor - bound) / (2.0 ** i)
        value = residual_at(point)
        if not math.isfinite(value):
            continue
        if (value < 0.0) == want_negative or value == 0.0:
            return point, value
    return point, None


def check_minimality(model: FamilyModel, eta, n_samples: Optional[int] = None,
                     seed: int = 0) -> MinimalityVerdict:
    """Judge whether ``Cov[T(X)]`` at ``eta``, the Jacobian of the mean map,
    is positive definite: whether the family is minimal there.

    By default the covariance is the exact one :func:`wmle.mwle.fit` forms
    for its curvature: the model's closed-form Jacobian, or central
    differences of its mean map.  Given ``n_samples``, it is the sample
    covariance of the sufficient statistics of that many draws from the
    model's sampler, seeded by ``seed``; a model without a sampler raises
    ``ConfigError``.  A separable model's components are independent, and
    their variances may lie many orders of magnitude apart without any of
    them being flat: each component is degenerate, along its own axis, only
    where its spread is not positive (its exact variance, or the sample's
    max - min, free of the rounding of the variance).  A joint model is
    degenerate, along the unit eigenvector of the smallest eigenvalue, when
    that is at most ``1e-8`` times the largest.  The reported eigenvalues
    are those of the whole covariance either way.  A sampled statistic or a
    covariance that is not finite raises ``NumericError``: it supports no
    verdict.  Fewer than ``q + 1`` samples raise ``DomainError``, a negative
    sampling ``seed`` ``ConfigError``.
    """
    eta = _check_eta(model, eta)
    sampled = n_samples is not None
    if sampled:
        if model.sampler is None:
            raise ConfigError(f"model {model.name} has no sampler")
        # Checked before sampling: numpy rejects a negative count or seed with a bare ValueError.
        count = int(n_samples)
        if count < model.dim_eta + 1:
            raise DomainError(
                f"need at least q+1={model.dim_eta + 1} samples to estimate a rank-q covariance, "
                f"got {count}"
            )
        if seed < 0:
            raise ConfigError(f"the sampling seed must be non-negative, got {seed}")
    with np.errstate(all="ignore"):
        if not sampled:
            cov = _stat_covariance(model, eta)
            spread = np.diag(cov)
        else:
            stats = model.sufficient_stat(model.sampler(eta, count, np.random.default_rng(seed)))
            cov = np.atleast_2d(np.cov(stats, rowvar=False, ddof=1))
            spread = np.max(stats, axis=0) - np.min(stats, axis=0)
    if sampled and not np.all(np.isfinite(stats)):
        raise NumericError(f"the sampled statistic of {model.name} is not finite at eta={eta.tolist()}")
    if not np.all(np.isfinite(cov)):
        raise NumericError(f"the {'sample ' if sampled else ''}covariance of the statistic of "
                           f"{model.name} is not finite at eta={eta.tolist()}")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    smallest = float(eigenvalues[0])
    largest = float(eigenvalues[-1])
    if model.components is not None:
        flat = np.flatnonzero(~(spread > 0))
        if flat.size:
            return MinimalityVerdict(False, np.eye(model.dim_eta)[flat[0]], smallest, largest)
    elif largest <= 0.0 or smallest <= _MINIMALITY_RATIO * largest:
        return MinimalityVerdict(False, eigenvectors[:, 0].copy(), smallest, largest)
    return MinimalityVerdict(True, None, smallest, largest)
