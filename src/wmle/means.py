"""Generalized f-mean and the weighted Holder and Lehmer mean families.

Every power sum is evaluated in the log domain as a shifted-exponent sum
(subtract the largest exponent before exponentiating), so orders as extreme
as ``alpha = +/-500`` on data spanning several decades stay finite instead
of overflowing.

Orders are plain floats.  ``float('inf')`` and ``float('-inf')`` are
accepted as explicit sentinels and return the sample maximum or minimum;
they are never produced internally by overflow.

The value-dependent selection weights embedded in the two families are
exposed by :func:`v_weights`:

* Lehmer: ``v[i] = w[i] * x[i]**(alpha-1) / sum(w * x**(alpha-1))``,
  which always sums to one, and ``L_alpha = sum(v * x)``.
* Holder: ``v[i] = w[i] * x[i]**(alpha-1) / sum(w)``, which sums to
  ``holder_mean(alpha-1)**(alpha-1)`` (for ``alpha != 1``), and
  ``H_alpha = sum(v * x) ** (1/alpha)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["Sample", "f_mean", "holder_mean", "lehmer_mean", "v_weights"]


@dataclass(frozen=True)
class Sample:
    """Non-negative observations paired with strictly positive weights.

    ``weights=None`` means uniform weights of one.  Duplicated values are
    kept as-is; a repeated observation simply contributes its weight twice.
    """

    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            raise DomainError("sample must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise DomainError("sample values must be finite")
        if np.any(values < 0):
            bad = float(values[values < 0][0])
            raise DomainError(f"sample values must be non-negative, got {bad}")
        if self.weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(self.weights, dtype=float).reshape(-1)
            if weights.shape != values.shape:
                raise DomainError(
                    f"got {values.size} values but {weights.size} weights"
                )
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
                raise DomainError("sample weights must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.values.size


def _coerce(values, weights) -> Sample:
    if isinstance(values, Sample):
        if weights is not None:
            raise DomainError("weights were given both in the Sample and separately")
        return values
    return Sample(values, weights)


def _order(alpha) -> float:
    a = float(alpha)
    if math.isnan(a):
        raise DomainError("mean order must not be NaN")
    return a


def _require_positive(sample: Sample, alpha: float, reason: str) -> None:
    if np.any(sample.values == 0):
        raise DomainError(
            f"value 0 is outside the domain for order alpha={alpha} ({reason})"
        )


def _logsumexp(expo: np.ndarray) -> float:
    """log(sum(exp(expo))) with the largest exponent shifted out first, so no
    term overflows (Blanchard, Higham & Higham 2021); all -inf gives -inf."""
    m = float(np.max(expo))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(expo - m))))


def f_mean(f: Callable[[float], float], f_inverse: Callable[[float], float], values) -> float:
    """Generalized f-mean: ``f_inverse(mean(f(x)))`` for increasing ``f``.

    ``f`` must be continuous and increasing on the data's range with
    ``f_inverse`` its inverse there; this is assumed, not checked.  Raises
    ``DomainError`` on an empty sample and ``NumericError`` when ``f`` or
    ``f_inverse`` fails to produce a finite number.
    """
    sample = _coerce(values, None)
    transformed = []
    for v in sample.values:
        try:
            y = float(f(v))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise NumericError(f"f({v}) is not defined: {exc}") from exc
        if not math.isfinite(y):
            raise NumericError(f"f({v}) evaluated to a non-finite value")
        transformed.append(y)
    mean = math.fsum(transformed) / len(transformed)
    try:
        result = float(f_inverse(mean))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NumericError(f"f_inverse({mean}) is not defined: {exc}") from exc
    if not math.isfinite(result):
        raise NumericError(f"f_inverse({mean}) evaluated to a non-finite value")
    return result


def holder_mean(alpha, values, weights=None) -> float:
    """Weighted Holder (power) mean of order ``alpha``.

    ``(sum(w * x**alpha) / sum(w)) ** (1/alpha)`` for finite nonzero
    ``alpha``, the weighted geometric mean at ``alpha = 0`` (its continuity
    limit), and the sample max/min at ``alpha = +inf`` / ``-inf``.

    Zero values are rejected when ``alpha <= 0`` because a non-positive
    exponent has a pole at zero.
    """
    a = _order(alpha)
    sample = _coerce(values, weights)
    if a == math.inf:
        return float(np.max(sample.values))
    if a == -math.inf:
        _require_positive(sample, a, "min limit of positive-order means")
        return float(np.min(sample.values))
    if a <= 0:
        _require_positive(sample, a, "x**alpha has a pole at 0 for alpha <= 0")
    with np.errstate(divide="ignore"):
        log_x = np.log(sample.values)
    log_w = np.log(sample.weights)
    if a == 0.0:
        total = float(np.sum(sample.weights))
        return float(math.exp(float(np.dot(sample.weights, log_x)) / total))
    # Zero values (-inf in log_x) pass the check above only for a > 0.
    log_sum = _logsumexp(log_w + a * log_x)
    if log_sum == -math.inf:  # all values zero, alpha > 0
        return 0.0
    log_total = math.log(float(np.sum(sample.weights)))
    return math.exp((log_sum - log_total) / a)


def lehmer_mean(alpha, values, weights=None) -> float:
    """Weighted Lehmer mean of order ``alpha``.

    ``sum(w * x**alpha) / sum(w * x**(alpha-1))`` for finite ``alpha`` and
    the sample max/min at ``alpha = +inf`` / ``-inf``.  Zero values are
    rejected when ``alpha <= 1`` because ``x**(alpha-1)`` has a pole at zero.
    """
    a = _order(alpha)
    sample = _coerce(values, weights)
    if a == math.inf:
        return float(np.max(sample.values))
    if a == -math.inf:
        _require_positive(sample, a, "min limit of the Lehmer family")
        return float(np.min(sample.values))
    if a <= 1:
        _require_positive(sample, a, "x**(alpha-1) has a pole at 0 for alpha <= 1")
    if np.max(sample.values) == 0.0:  # all zeros, alpha > 1
        return 0.0
    with np.errstate(divide="ignore"):
        log_x = np.log(sample.values)
    log_w = np.log(sample.weights)
    # Zero values (-inf in log_x) pass the checks above only for a > 1.
    num = _logsumexp(log_w + a * log_x)
    den = _logsumexp(log_w + (a - 1.0) * log_x)
    return math.exp(num - den)


def v_weights(kind: str, alpha, values, weights=None) -> np.ndarray:
    """Value-dependent selection weights of the Lehmer or Holder mean.

    Both kinds share the numerator ``w * x**(alpha-1)``; the Lehmer kind
    normalizes by its own sum (so the result sums to one) while the Holder
    kind divides by ``sum(w)`` and is deliberately left unnormalized.  The
    sum of the Holder weights, ``holder_mean(alpha-1)**(alpha-1)``, is a
    useful diagnostic and is simply ``v.sum()``.

    Only finite orders are accepted: the defining expressions have no
    finite normalization at infinite order.
    """
    if kind not in ("lehmer", "holder"):
        raise DomainError(f"unknown v-weight kind {kind!r}, expected 'lehmer' or 'holder'")
    a = _order(alpha)
    if math.isinf(a):
        raise DomainError("v-weights are only defined for finite orders")
    sample = _coerce(values, weights)
    if a <= 1:
        _require_positive(sample, a, "x**(alpha-1) has a pole at 0 for alpha <= 1")
    with np.errstate(divide="ignore"):
        log_x = np.log(sample.values)
    expo = np.log(sample.weights) + (a - 1.0) * log_x
    if kind == "lehmer":
        m = float(np.max(expo))
        shifted = np.exp(expo - m)
        return shifted / float(np.sum(shifted))
    return np.exp(expo) / float(np.sum(sample.weights))
