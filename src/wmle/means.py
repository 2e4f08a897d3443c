"""Generalized f-mean and the weighted Holder and Lehmer mean families.

Every power sum is taken relative to its largest term, which is then
exactly 1, so orders as extreme as ``alpha = +/-500`` on data spanning
several decades stay finite instead of overflowing (Blanchard, Higham &
Higham, IMA J. Numer. Anal. 2021).  That arithmetic lives in
:func:`_column_means`, which :func:`lehmer_mean`, :func:`holder_mean`,
the batched sweep of :mod:`wmle.mwle` and :func:`wmle.mwle.fit`'s Weibull
columns all call.  ``holder_mean`` equals the Weibull MWLE to the bit.
``lehmer_mean`` is the moment target the unit-shape Weibull MWLE inverts,
and that estimate, ``(-eta) ** -1`` at ``eta = -1/target``, may differ
from it in the last bit.

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


#: Exponents below this are raised to it before ``exp``: ``exp(-700)`` is
#: still a normal number, so ``exp`` never takes libm's slow subnormal path.
_EXP_FLOOR = -700.0
#: A raised weight adds at most ``exp(-700)`` to a denominator of at least 1,
#: and at most ``exp(-700) * x_i`` to a numerator of at least ``x_r``; both
#: stay below half an ulp for up to 1e27 values while ``x_i / x_r`` is below
#: ``exp(600)``.
_LOG_SPREAD = 600.0


def _lehmer_weights(log_x: np.ndarray, lo: float, hi: float, orders: np.ndarray,
                    out: np.ndarray, log_w: np.ndarray | None = None) -> np.ndarray:
    """Lehmer weights ``w * x**(a - 1)`` of one column, divided by their largest.

    ``log_x`` holds the logs of strictly positive values and ``lo``/``hi``
    its extremes.  Row ``g`` of the ``(G, n)`` array ``out``, which may be
    ``log_x`` itself when ``G == 1``, receives the weights at ``orders[g]``.
    Only the ratios of weights enter a Lehmer mean, so each row is taken
    relative to the row ``r`` with the largest weight:

        exp((a - 1) * (log x - log x_r) + (log w - log w_r)),

    exactly 1 at ``r``, so nothing overflows.  Without base weights ``r``
    is the largest value for ``a >= 1`` and the smallest below; base
    weights ``log_w`` are taken for a single order only.  Exponents below
    ``_EXP_FLOOR`` are raised to it.

    Returns, per order, whether the raised weights are negligible in both
    sums.  That fails only where some value exceeds ``x_r`` by more than a
    factor ``exp(600)``; the caller must not use such a row.
    """
    c = orders - 1.0
    with np.errstate(over="ignore"):
        if log_w is None:
            up = c >= 0
            ref = np.where(up, hi, lo)
            for side, rows in ((hi, up), (lo, ~up)):
                if rows.all():
                    # As a (1, n) view log_x overlaps a one-row out exactly,
                    # which numpy updates in place instead of via a copy.
                    np.subtract(log_x[None, :], side, out=out)
                elif rows.any():
                    out[rows] = log_x - side
            out *= c[:, None]
            # Each row's smallest exponent sits at the value farthest from its
            # reference, so it is known without a pass over the row.
            lowest = c * np.where(up, lo - hi, hi - lo)
        else:
            r = int(np.argmax(log_w + c[0] * log_x))
            ref = np.array([log_x[r]])  # copied before out, maybe log_x, changes
            shift = log_w - log_w[r]
            np.subtract(log_x[None, :], ref[0], out=out)
            out *= c[:, None]
            out += shift
            lowest = np.minimum.reduce(out, axis=1)
        clamped = lowest < _EXP_FLOOR
        if clamped.any():
            np.maximum(out, _EXP_FLOOR, out=out)
        np.exp(out, out=out)
    return ~clamped | (hi - ref <= _LOG_SPREAD)


def _weights_out_of_range(what: str,
                          where: str = f"on values more than exp({_LOG_SPREAD:g}) apart") -> NumericError:
    return NumericError(
        f"{what} fall below exp({_EXP_FLOOR:g}) {where}, which the shifted sums cannot represent"
    )


def _power_bound(orders: np.ndarray) -> np.ndarray:
    """``exp(_EXP_FLOOR / k)`` per order: the scaled value whose ``k``-th
    power is ``exp(_EXP_FLOOR)``.

    A Holder term ``y**k`` of a value relative to the one with the largest
    term is at most 1.  Values whose term would be smaller than ``exp(-700)``
    are moved to this bound first (raised for ``k > 0``, lowered for
    ``k < 0``): each such term is then about ``exp(-700)``, still a normal
    number, so ``pow`` never takes libm's slow subnormal path.  Against a sum
    of at least 1 the moved terms shift it by less than half an ulp for up to
    1e288 values.
    """
    with np.errstate(over="ignore"):  # a shape below 1e-306: the bound is 0
        return np.exp(_EXP_FLOOR / orders)


#: A weighted Holder target ``sum(w * y**k) / sum(w)`` (largest weight 1) at
#: least this large absorbs the moved terms: together they add at most
#: ``sum(w) * exp(-700)`` to its numerator, under half an ulp of it.
_MOVED_TERMS_TARGET_MIN = 2.0**54 * math.exp(_EXP_FLOOR)


def _moved_terms_out_of_range(what: str) -> NumericError:
    return _weights_out_of_range(
        what, f"where the weights leave a mean term below 2**54 * exp({_EXP_FLOOR:g})"
    )


def _holder_weights(w: np.ndarray):
    """Row weights for the Holder kernel: the pair of ``w`` over its largest
    and their sum, or ``None`` where all weights are equal and cancel."""
    top = np.maximum.reduce(w)
    if np.minimum.reduce(w) == top:
        return None
    w = w / top
    return w, float(np.add.reduce(w))


def _column_means(kind: str, x: np.ndarray, orders: np.ndarray, out: np.ndarray,
                  w: np.ndarray | tuple | None = None):
    """Lehmer or Holder means of one column at many orders, as shifted sums.

    ``x`` is non-negative, and positive for negative Holder orders; the
    orders are finite, the Holder ones nonzero and of one sign, and are
    taken ``B`` at a time in the rows of the ``(B, n)`` buffer ``out``;
    base weights ``w`` need ``B == 1``.  Lehmer weights are the base
    weights; Holder ones are the pair :func:`_holder_weights` returns, so a
    caller with many columns derives them once.  Returns per order the moment
    target, the total weight, the Weibull closed-form estimate and whether
    the sums are accurate, then the reference ``x_r``.  Lehmer: weights
    ``u`` from :func:`_lehmer_weights`, target ``sum(u * x) / sum(u)``,
    estimate ``(1/target) ** -1``, ``x_r = 1``; a zero value (log ``-inf``)
    leaves no order accurate.  Holder of order ``k``: ``y = x / x_r``, ``x_r``
    the value with the largest term (0, giving NaN, for an all-zero column),
    moved to :func:`_power_bound`, target ``sum(w * y**k) / sum(w)`` under
    weights over their largest, estimate ``x_r * (1/target) ** (-1/k)``.
    :func:`wmle.mwle.fit` solves these targets, and its ``theta_hat`` is the
    estimate to the bit: the sums are rows of a C-order buffer, which numpy
    reduces pairwise like a 1-D array, and the power takes an exponent per
    order, laid out like fit's one per component.
    """
    target, total = np.empty((2, orders.size))
    ok = np.ones(orders.size, dtype=bool)
    single = orders.size == 1  # x is then read into out, where its terms replace it
    if kind == "lehmer":
        if w is not None and np.minimum.reduce(w) == np.maximum.reduce(w):
            w = None  # equal weights cancel
        log_x = np.log(x, out=out[0] if single else None)
        extremes = float(np.minimum.reduce(log_x)), float(np.maximum.reduce(log_x))
        log_w = None if w is None else np.log(w)
        ref, shapes = 1.0, np.ones(orders.size)
    else:
        up = orders[0] > 0
        ref = float((np.maximum if up else np.minimum).reduce(x))
        # At a negative order, x / min(x) may overflow; the inf is moved to
        # the power bound below.  An all-zero column gives 0 / 0, NaN.  As a
        # (1, n) view y matches a one-row out, which numpy updates in place.
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.divide(x[None, :], ref, out=out[:1] if single else None)
        if w is None:
            total[:] = x.size
        elif isinstance(w, tuple):
            w, total[:] = w
        else:
            raise TypeError("Holder row weights are the pair _holder_weights returns")
        shapes = orders
    for lo in range(0, orders.size, out.shape[0]):
        block = orders[lo : lo + out.shape[0]]
        rows = out[: block.size]
        part = slice(lo, lo + block.size)
        if kind == "lehmer":
            ok[part] = (_lehmer_weights(log_x, *extremes, block, rows, log_w)
                        & (extremes[0] > -np.inf))
            total[part] = np.add.reduce(rows, axis=1)
            rows *= x
        else:
            bounds = _power_bound(block)
            (np.maximum if up else np.minimum)(y, bounds[:, None], out=rows)
            np.power(rows, block[:, None], out=rows)
            # numpy's power swaps in a square root or a square, which can differ
            # in the last bit, for an exponent of 0.5 or 2 repeated along a 1-D
            # loop.  A one-row block is such a loop (its exponent has stride 0);
            # in a larger block those rows are raised again one at a time.
            if block.size > 1:
                for g in np.flatnonzero((block == 0.5) | (block == 2.0)):
                    rows[g] = np.power(np.maximum(y[0], bounds[g]), block[g])
            if w is not None:
                rows *= w
        target[part] = np.add.reduce(rows, axis=1) / total[part]
    if kind == "holder" and w is not None:
        # Terms moved to the power bound may show in a target this small, if
        # any value was moved (under unit weights the target is at least 1/n).
        ok = ~((0 < target) & (target < _MOVED_TERMS_TARGET_MIN))
        if not ok.all():
            far = (np.minimum if up else np.maximum).reduce(x) / ref
            ok |= far >= _power_bound(orders) if up else far <= _power_bound(orders)
    with np.errstate(divide="ignore", over="ignore"):
        estimate = ref * np.power(1.0 / target, -1.0 / shapes)
    return target, total, estimate, ok, ref


def f_mean(f: Callable[[float], float], f_inverse: Callable[[float], float], values) -> float:
    """Generalized f-mean: ``f_inverse(sum(w * f(x)) / sum(w))`` for increasing ``f``.

    ``values`` may be a weighted :class:`Sample`; plain values have unit
    weights, whose products and sum are exact.  ``f`` must be continuous and
    increasing on the data's range with ``f_inverse`` its inverse there;
    this is assumed, not checked.  Raises ``DomainError`` on an empty
    sample and ``NumericError`` when ``f`` or ``f_inverse`` fails to
    produce a finite number or the weighted sum of ``f(x)`` overflows.
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
    # Relative to the largest weight no product overflows; unit weights stay exact.
    weights = (sample.weights / np.max(sample.weights)).tolist()
    try:
        mean = math.fsum(w * y for w, y in zip(weights, transformed)) / math.fsum(weights)
    except OverflowError as exc:
        raise NumericError(f"the weighted sum of f(x) overflows: {exc}") from exc
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

    A finite nonzero order goes through :func:`_column_means`, so nothing
    overflows and at ``alpha > 0`` the mean is :func:`wmle.mwle.fit`'s
    Weibull estimate of shape ``alpha`` to the bit.  Raises ``NumericError``
    where the weights could let the terms moved to the power bound show.

    Zero values are rejected when ``alpha <= 0`` because a non-positive
    exponent has a pole at zero.
    """
    a = _order(alpha)
    sample = _coerce(values, weights)
    x, w = sample.values, sample.weights
    if a == math.inf:
        return float(np.max(x))
    if a == -math.inf:
        _require_positive(sample, a, "min limit of positive-order means")
        return float(np.min(x))
    if a <= 0:
        _require_positive(sample, a, "x**alpha has a pole at 0 for alpha <= 0")
    if a == 0.0:
        return float(math.exp(float(np.dot(w, np.log(x))) / float(np.sum(w))))
    if np.max(x) == 0.0:  # only for a > 0
        return 0.0
    _, _, estimate, ok, _ = _column_means("holder", x, np.array([a]), np.empty((1, x.size)),
                                          _holder_weights(w))
    if not ok[0]:
        raise _moved_terms_out_of_range(f"Holder terms of order {a}")
    return float(estimate[0])


def lehmer_mean(alpha, values, weights=None) -> float:
    """Weighted Lehmer mean of order ``alpha``.

    ``sum(w * x**alpha) / sum(w * x**(alpha-1))`` for finite ``alpha`` and
    the sample max/min at ``alpha = +inf`` / ``-inf``.  Zero values are
    rejected when ``alpha <= 1`` because ``x**(alpha-1)`` has a pole at zero.

    A finite order goes through :func:`_column_means`; the mean is its
    moment target.  Raises ``NumericError`` where the weights cannot be
    formed: at an order below 1 on values more than ``exp(600)`` apart.
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
    x, w = sample.values, sample.weights
    if np.min(x) == 0.0:  # only for a > 1, where x**(a-1) is 0 at 0
        if np.max(x) == 0.0:
            return 0.0
        # A zero value has weight exactly 0 and adds nothing to either sum.
        keep = x > 0
        x, w = x[keep], w[keep]
    target, _, _, ok, _ = _column_means("lehmer", x, np.array([a]), np.empty((1, x.size)), w)
    if not ok[0]:
        raise _weights_out_of_range(f"the Lehmer weights of order {a}")
    return float(target[0])


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
    with np.errstate(over="ignore"):
        v = np.exp(expo) / float(np.sum(sample.weights))
    if not np.all(np.isfinite(v)):
        raise NumericError(f"the Holder v-weights of order {a} overflow")
    return v
