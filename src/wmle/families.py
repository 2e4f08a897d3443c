"""Concrete exponential-family models.

* :func:`weibull_model`: independent Weibull components with fixed shapes
  ``k_j``; the scales ``lambda_j`` are the parameters being estimated.  In
  natural form ``T_j(x) = x_j ** k_j`` and ``eta_j = -lambda_j ** -k_j``
  (negative sign so that ``H(eta) = -sum(log(-eta_j))`` is finite exactly on
  ``eta_j < 0`` and ``r_j(eta) = -1/eta_j = lambda_j ** k_j``).
* :func:`exponential_model`: the shape-1 special case.
* :func:`gaussian_known_variance_model`: a fully closed-form family with
  support on all reals, used as an oracle for the generic solver.
* :func:`multinomial_fixture`: the classic non-identifiable construction.
  Keeping all ``k`` counts in the sufficient statistic makes ``sum_j x_j``
  constant, so the covariance of ``T`` is rank deficient along
  ``(1, ..., 1)`` and the minimality check must flag it; dropping the last
  count gives the minimal ``k - 1`` dimensional version.

The case study treats the three vote proportions as independent Weibull
components even though true proportions are linearly constrained; that
simplification is inherited by design and noted here rather than hidden.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, NoSolutionError
from .expfam import FamilyModel

__all__ = [
    "weibull_model",
    "exponential_model",
    "weibull_moment",
    "gaussian_known_variance_model",
    "MultinomialFixture",
    "multinomial_fixture",
]


def _logsumexp(expo: np.ndarray) -> float:
    """log(sum(exp(expo))) with the largest exponent shifted out first, so no
    term overflows (Blanchard, Higham & Higham 2021); all -inf gives -inf."""
    m = float(np.max(expo))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(expo - m))))


def _identity_stat(x):
    """``T(x) = x`` as a float copy: the Gaussian and multinomial statistic."""
    return np.array(x, dtype=float, copy=True)


def _all_finite(eta) -> bool:
    """The Gaussian and multinomial natural domain: every ``eta`` is finite."""
    return bool(np.all(np.isfinite(np.asarray(eta, dtype=float))))


def _weibull(shapes: np.ndarray, components) -> FamilyModel:
    k = shapes
    q = k.size
    log_k_total = float(np.sum(np.log(k)))

    def log_base_measure(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(x)
            terms = np.where(k == 1.0, 0.0, (k - 1.0) * lx)
        return log_k_total + terms.sum(axis=1)

    def sufficient_stat(x):
        return np.power(x, k)

    def nat_param(lam):
        lam = np.asarray(lam, dtype=float).reshape(-1)
        return -np.power(lam, -k)

    def nat_param_inverse(eta):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        return np.power(-eta, -1.0 / k)

    def log_normalizer(eta):
        return float(-np.sum(np.log(-np.asarray(eta, dtype=float))))

    def natural_domain(eta):
        eta = np.asarray(eta, dtype=float)
        return bool(np.all(np.isfinite(eta)) and np.all(eta < 0))

    def mean_map_closed(eta):
        return -1.0 / np.asarray(eta, dtype=float).reshape(-1)

    def mean_map_inverse(target):
        target = np.asarray(target, dtype=float).reshape(-1)
        if not np.all(np.isfinite(target)) or np.any(target <= 0):
            raise NoSolutionError(
                f"target {target.tolist()} is not attainable by a Weibull component",
                hint="attainable component means are (0, inf)",
            )
        # A subnormal target overflows to -inf here, which the solver's
        # natural-domain check reports.
        with np.errstate(over="ignore"):
            return -1.0 / target

    def mean_map_jacobian(eta):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        return np.diag(1.0 / eta**2)

    def sampler(eta, size, rng):
        lam = nat_param_inverse(eta)
        uniforms = rng.random((int(size), q))
        return lam * np.power(-np.log(uniforms), 1.0 / k)

    return FamilyModel(
        name=f"weibull(k=[{','.join(map(repr, k.tolist()))}])",
        dim_x=q,
        dim_eta=q,
        log_base_measure=log_base_measure,
        sufficient_stat=sufficient_stat,
        nat_param=nat_param,
        nat_param_inverse=nat_param_inverse,
        log_normalizer=log_normalizer,
        natural_domain=natural_domain,
        mean_map_closed=mean_map_closed,
        mean_map_inverse=mean_map_inverse,
        mean_map_jacobian=mean_map_jacobian,
        sampler=sampler,
        components=components,
        stat_powers=k.copy(),
        natural_interval=(-math.inf, 0.0),
        support=(0.0, math.inf),
        scale_family=True,
    )


def weibull_model(shapes) -> FamilyModel:
    """Independent-component Weibull family with fixed positive shapes.

    The shapes are hyperparameters, never estimated; only the scales are.
    """
    k = np.asarray(shapes, dtype=float).reshape(-1)
    if k.size == 0 or not np.all(np.isfinite(k)) or np.any(k <= 0):
        raise ConfigError(f"Weibull shapes must be positive and finite, got {k.tolist()}")
    comps = tuple(_weibull(np.array([kj]), None) for kj in k)
    return _weibull(k, comps)


def exponential_model(dim: int = 1) -> FamilyModel:
    """Independent exponential components: the shape-1 Weibull case."""
    return weibull_model(np.ones(int(dim)))


def weibull_moment(lam: float, k: float, t: float) -> float:
    """Raw moment ``E[X**t] = lam**t * Gamma(1 + t/k)`` of Weibull(lam, k)."""
    lam = float(lam)
    k = float(k)
    t = float(t)
    if lam <= 0 or k <= 0:
        raise DomainError(f"Weibull moments need lam > 0 and k > 0, got lam={lam}, k={k}")
    if t < 0:
        raise DomainError(f"moment order must be non-negative, got t={t}")
    return lam**t * math.gamma(1.0 + t / k)


def _gaussian(sigmas: np.ndarray, components) -> FamilyModel:
    sigma = sigmas
    q = sigma.size
    var = sigma**2
    log_norm_const = float(np.sum(0.5 * np.log(2.0 * math.pi * var)))

    def log_base_measure(x):
        return -0.5 * np.sum(x**2 / var, axis=1) - log_norm_const

    def nat_param(mu):
        return np.asarray(mu, dtype=float).reshape(-1) / var

    def nat_param_inverse(eta):
        return np.asarray(eta, dtype=float).reshape(-1) * var

    def log_normalizer(eta):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        return float(0.5 * np.sum(var * eta**2))

    def mean_map_closed(eta):
        return np.asarray(eta, dtype=float).reshape(-1) * var

    def mean_map_inverse(target):
        return np.asarray(target, dtype=float).reshape(-1) / var

    def mean_map_jacobian(eta):
        return np.diag(var)

    def sampler(eta, size, rng):
        mu = mean_map_closed(eta)
        return rng.normal(loc=mu, scale=sigma, size=(int(size), q))

    return FamilyModel(
        name=f"gaussian(sigma=[{','.join(map(repr, sigma.tolist()))}])",
        dim_x=q,
        dim_eta=q,
        log_base_measure=log_base_measure,
        sufficient_stat=_identity_stat,
        nat_param=nat_param,
        nat_param_inverse=nat_param_inverse,
        log_normalizer=log_normalizer,
        natural_domain=_all_finite,
        mean_map_closed=mean_map_closed,
        mean_map_inverse=mean_map_inverse,
        mean_map_jacobian=mean_map_jacobian,
        sampler=sampler,
        components=components,
        stat_powers=np.ones(q),
        natural_interval=(-math.inf, math.inf),
        support=(-math.inf, math.inf),
    )


def gaussian_known_variance_model(sigmas) -> FamilyModel:
    """Independent Gaussian components with known standard deviations.

    ``T(x) = x``, ``eta = mu / sigma**2`` and ``H(eta) = sigma**2 eta**2 / 2``
    per component.  Everything is closed form and the support includes
    negative data, which makes this the oracle family for solver tests.
    """
    sigma = np.asarray(sigmas, dtype=float).reshape(-1)
    if sigma.size == 0 or not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ConfigError(f"standard deviations must be positive and finite, got {sigma.tolist()}")
    comps = tuple(_gaussian(np.array([s]), None) for s in sigma)
    return _gaussian(sigma, comps)


def _lgamma_or_pole(v: float) -> float:
    try:
        return math.lgamma(v)
    except ValueError:  # poles at 0, -1, -2, ...: a count outside the support
        return math.inf


_lgamma_ufunc = np.frompyfunc(_lgamma_or_pole, 1, 1)


def _lgamma(x: np.ndarray) -> np.ndarray:
    """``log|Gamma(x)|`` elementwise: :func:`math.lgamma` lifted over an array."""
    return _lgamma_ufunc(x).astype(float)


def _multinomial_full(trials: int, categories: int) -> FamilyModel:
    n_trials = trials
    k = categories

    def log_base_measure(x):
        return math.lgamma(n_trials + 1.0) - _lgamma(np.asarray(x) + 1.0).sum(axis=1)

    def nat_param(p):
        return np.log(np.asarray(p, dtype=float).reshape(-1))

    def nat_param_inverse(eta):
        p = np.exp(np.asarray(eta, dtype=float).reshape(-1))
        return p / p.sum()

    def log_normalizer(eta):
        return 0.0

    def mean_map_closed(eta):
        # Valid on the normalized manifold eta = log p; good enough for a fixture.
        return n_trials * nat_param_inverse(eta)

    def sampler(eta, size, rng):
        return rng.multinomial(n_trials, nat_param_inverse(eta), size=int(size)).astype(float)

    return FamilyModel(
        name=f"multinomial_full(N={n_trials}, k={k})",
        dim_x=k,
        dim_eta=k,
        log_base_measure=log_base_measure,
        sufficient_stat=_identity_stat,
        nat_param=nat_param,
        nat_param_inverse=nat_param_inverse,
        log_normalizer=log_normalizer,
        natural_domain=_all_finite,
        mean_map_closed=mean_map_closed,
        sampler=sampler,
        support=(0.0, float(trials)),
        nat_param_bijective=False,
    )


def _multinomial_reduced(trials: int, categories: int) -> FamilyModel:
    n_trials = trials
    k = categories
    q = k - 1

    def log_base_measure(x):
        x = np.asarray(x, dtype=float)
        last = n_trials - x.sum(axis=1)
        return (
            math.lgamma(n_trials + 1.0)
            - _lgamma(x + 1.0).sum(axis=1)
            - _lgamma(last + 1.0)
        )

    def nat_param(p):
        p = np.asarray(p, dtype=float).reshape(-1)
        return np.log(p[:q] / p[-1])

    def nat_param_inverse(eta):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        expo = np.append(eta, 0.0)
        expo -= _logsumexp(expo)
        return np.exp(expo)

    def log_normalizer(eta):
        eta = np.asarray(eta, dtype=float).reshape(-1)
        return float(n_trials * _logsumexp(np.append(eta, 0.0)))

    def mean_map_closed(eta):
        return n_trials * nat_param_inverse(eta)[:q]

    def mean_map_inverse(target):
        target = np.asarray(target, dtype=float).reshape(-1)
        remainder = n_trials - target.sum()
        if np.any(target <= 0) or remainder <= 0:
            raise NoSolutionError(
                f"target {target.tolist()} is not attainable by multinomial({n_trials}) counts",
                hint="component means must be positive and sum below the trial count",
            )
        return np.log(target / remainder)

    def mean_map_jacobian(eta):
        p = nat_param_inverse(eta)[:q]
        return n_trials * (np.diag(p) - np.outer(p, p))

    def sampler(eta, size, rng):
        full = rng.multinomial(n_trials, nat_param_inverse(eta), size=int(size))
        return full[:, :q].astype(float)

    return FamilyModel(
        name=f"multinomial_reduced(N={n_trials}, k={k})",
        dim_x=q,
        dim_eta=q,
        log_base_measure=log_base_measure,
        sufficient_stat=_identity_stat,
        nat_param=nat_param,
        nat_param_inverse=nat_param_inverse,
        log_normalizer=log_normalizer,
        natural_domain=_all_finite,
        mean_map_closed=mean_map_closed,
        mean_map_inverse=mean_map_inverse,
        mean_map_jacobian=mean_map_jacobian,
        sampler=sampler,
        support=(0.0, float(trials)),
    )


class MultinomialFixture(NamedTuple):
    """Multinomial(N, p) in two sufficient-statistic encodings.

    ``full_model`` keeps all ``k`` counts, so its statistic covariance is
    singular along ``(1, ..., 1)`` and the parameter map is declared
    non-bijective; ``reduced_model`` drops the last count and is minimal
    (``None`` when ``k == 1``, where no free count remains).  ``eta_full``
    and ``eta_reduced`` are the natural parameters matching ``p``.
    """

    trials: int
    probabilities: np.ndarray
    full_model: FamilyModel
    reduced_model: Optional[FamilyModel]
    eta_full: np.ndarray
    eta_reduced: Optional[np.ndarray]


def multinomial_fixture(trials: int, probabilities) -> MultinomialFixture:
    """Build the non-identifiability fixture for Multi(N, p)."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size < 1 or np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise ConfigError("probabilities must be positive and finite")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ConfigError(f"probabilities must sum to 1, got {p.sum()!r}")
    n_trials = int(trials)
    if n_trials < 1:
        raise ConfigError("the trial count must be at least 1")
    k = p.size
    full = _multinomial_full(n_trials, k)
    reduced = _multinomial_reduced(n_trials, k) if k >= 2 else None
    return MultinomialFixture(
        trials=n_trials,
        probabilities=p,
        full_model=full,
        reduced_model=reduced,
        eta_full=np.log(p),
        eta_reduced=np.log(p[:-1] / p[-1]) if k >= 2 else None,
    )
