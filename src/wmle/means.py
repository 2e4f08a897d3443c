"""Generalized f-mean and the weighted Holder and Lehmer mean families.

Every power sum is taken relative to its largest term, which is then
exactly 1, so orders as extreme as ``alpha = +/-500`` on data spanning
several decades stay finite instead of overflowing (Blanchard, Higham &
Higham, IMA J. Numer. Anal. 2021).  That arithmetic lives in
:func:`_column_means`, the one maker of every Weibull moment target, Holder
and Lehmer, which :func:`holder_mean`, :func:`lehmer_mean`, the batched
sweep of :mod:`wmle.mwle` and :func:`wmle.mwle.fit`'s Weibull columns
call, and in :func:`_lehmer_weight_blocks`, the one maker of Lehmer
weights, which it walks a leaf at a time and :func:`_lehmer_weights`
whole, for :func:`v_weights` and :func:`wmle.mwle.apply_policy`, and for
``fit``'s other Lehmer problems.  Both divide a column by a
reference that scales with it (its largest term, a power of two), so a
power-of-two scaling of the values scales each mean exactly and one of
the weights changes no bit.  Each reads a column once, where it lies, and
takes its extremes from the caller's own check.  ``holder_mean`` is the
Weibull MWLE exactly.
``lehmer_mean`` is, to the bit, the moment target the unit-shape Weibull
MWLE inverts times its scale; that estimate, ``(-eta) ** -1`` at ``eta =
-1/target`` times the scale, may differ from it in the last bit.

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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["Sample", "f_mean", "holder_mean", "lehmer_mean", "v_weights"]


#: The read-only 1.0 that unit weights repeat with a zero stride.
_ONE = np.ones(1)
_ONE.flags.writeable = False


@dataclass(frozen=True)
class Sample:
    """Non-negative observations paired with strictly positive weights.

    ``weights=None`` means unit weights, a read-only broadcast of 1.0 that
    the kernels drop unread.  Duplicated values are kept as-is; a repeated
    observation simply contributes its weight twice.
    ``smallest`` and ``largest`` are the extremes the check finds.
    """

    values: np.ndarray
    weights: np.ndarray | None = None
    smallest: np.float64 = field(init=False, repr=False, compare=False)
    largest: np.float64 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            raise DomainError("sample must contain at least one value")
        lo, hi = np.minimum.reduce(values), np.maximum.reduce(values)
        if not (-math.inf < lo and hi < math.inf):  # a NaN fails both
            raise DomainError("sample values must be finite")
        if lo < 0:
            bad = float(values[values < 0][0])
            raise DomainError(f"sample values must be non-negative, got {bad}")
        weights = (np.ndarray(values.shape, buffer=_ONE, strides=(0,)) if self.weights is None
                   else _weight_vector(self.weights, values.size, "values", "sample"))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "smallest", lo)
        object.__setattr__(self, "largest", hi)


def _weight_vector(weights, n: int, items: str, owner: str) -> np.ndarray:
    """``weights`` for ``n >= 1`` ``items`` as a finite, strictly positive float ``(n,)``
    vector: the weight check of :class:`Sample` and :class:`wmle.expfam.WeightedDataset`."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != n:
        raise DomainError(f"got {n} {items} but {w.shape[0]} weights")
    if not (np.minimum.reduce(w) > 0 and np.maximum.reduce(w) < math.inf):  # a NaN fails both
        raise DomainError(f"{owner} weights must be positive and finite")
    return w


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
    if sample.smallest == 0:
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


#: Values a column kernel holds in one buffer: 2**16 doubles keep a block's
#: working arrays (1 MiB) in a 2 MiB L2 cache.  Every step of the kernels is
#: elementwise, so a block of rows holds the values the whole column would.
#: :func:`_column_means` sizes its (columns x orders x rows) buffer by it.
_BLOCK_ELEMENTS = 1 << 16

#: numpy adds up to this many terms in one unrolled loop, and splits a longer
#: sum in two.
_PAIRWISE_BLOCK = 128


def _pairwise(n: int, limit: int, leaf: Callable[[slice], np.ndarray], start: int = 0) -> np.ndarray:
    """``leaf(rows)`` on the leaves of numpy's pairwise summation tree over
    ``n`` terms, its nodes of at most ``limit >= 128`` terms, left to right,
    added in the tree's order.

    Above 128 terms numpy sums the first ``m // 2 - (m // 2) % 8`` of ``m``
    terms and the rest on their own and adds the two, so a node's sum is
    numpy's sum of its slice: where ``leaf`` returns ``np.add.reduce`` of
    its slice, the result is ``np.add.reduce`` of all ``n`` terms to the
    bit, with pairwise summation's O(log n) error bound (Higham, SIAM J.
    Sci. Comput. 14, 1993).  No public API promises the split; a test pins it.
    """
    if n <= limit:
        return leaf(slice(start, start + n))
    half = n // 2 - n // 2 % 8
    return _pairwise(half, limit, leaf, start) + _pairwise(n - half, limit, leaf, start + half)


def _lehmer_weight_blocks(x: np.ndarray, orders: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          w: np.ndarray | None = None, size: int = _BLOCK_ELEMENTS):
    """Lehmer weights ``w * x**(a - 1)`` of ``k`` columns at ``G`` orders,
    each divided by its largest, formed a block of rows at a time.

    ``x`` holds one column of non-negative values per row, ``(k, n)``, in
    any layout, ``lo`` and ``hi`` each column's smallest and largest value,
    from the caller's check, and ``w`` positive finite base weights of the
    same shape (unread if a zero stride repeats them), or ``None``.
    ``orders`` is ``(G,)``, shared by every column, or ``(k, G)``, one row
    per column.  Called, as its functions are, with divide, invalid and
    overflow warnings off, it returns ``e`` per column and two functions.
    ``fill(rows, out, y, products=False)`` writes the weights of the ``m``
    rows ``rows`` (a slice) into the ``(k, G, m)`` buffer ``out``, row
    ``(j, g)`` for column ``j`` at its order ``g``, and into the ``(k, m)``
    buffer ``y`` the values ``x_j * 2**-e_j``, or with ``products`` (one
    order) ``u * y``.  Once every row is filled, ``formed()`` tells per
    (column, order) whether the weights could be formed: not at an order
    other than 1 on a column holding a zero, nor where the raised weights
    below are not negligible.  A column's weights depend on that column and
    its orders only, and every step is elementwise, so they do not depend
    on the blocks, the number of columns or orders, or the layout.

    The logs are of ``y``, whose power of two centres their range on 0
    (:func:`_scale_exponents`, of the whole column), and of ``w`` over its
    largest, so a weight depends on ratios of values and of weights only:
    scaling a column or its weights by a power of two (the values staying
    normal) changes no bit of the weights or of ``y``.  Each weight is
    relative to the row ``r`` with the largest one:

        exp((a - 1) * (log y - log y_r) + (log w - log w_r)),

    exactly 1 at ``r``, so nothing overflows (Blanchard, Higham & Higham,
    IMA J. Numer. Anal. 2021).  ``r`` is the largest value for ``a >= 1``
    and the smallest below, or, with base weights, the first row with the
    largest ``log w + (a - 1) * log y``, which a pass over the whole column,
    ``size`` rows at a time, finds here.  Exponents below ``_EXP_FLOOR`` are
    raised to it; that is negligible in both sums unless some value exceeds
    ``x_r`` by more than a factor ``exp(600)``.  At order 1 the weights are
    ``w`` over its largest, or 1, and a zero value passes.  ``fill`` runs
    the whole chain on its block: ``y`` straight from ``x``, its log, the
    shift, clamp and ``exp``.
    """
    k, n = x.shape
    c = orders - 1.0
    if w is not None and w.strides[1] == 0:  # one weight per column, as Sample's unit weights
        w = None
    e = _scale_exponents(lo, hi, n)
    up, one, single = c >= 0, c == 0, c.shape[-1] == 1
    ones = np.count_nonzero(one)
    # A block of log y, where it cannot go into out.
    logs = np.empty((k, min(n, size))) if w is not None or not single else None
    factor = np.ldexp(1.0, -e)  # x * factor rounds as ldexp does, is cheaper, overflows below 2**-1023
    log_lo, log_hi = np.log(np.ldexp(lo, -e)), np.log(np.ldexp(hi, -e))
    c_rows = c[..., None]
    if w is None:
        ref = np.where(up, log_hi[:, None], log_lo[:, None])
        # Each row's smallest exponent sits at the value farthest from
        # its reference, so it is known without a pass over the row.
        clamped = c * (np.where(up, log_lo[:, None], log_hi[:, None]) - ref) < _EXP_FLOOR
    else:
        # Row by row, and below into C-order blocks: w is often a transposed
        # matrix, along whose rows numpy would otherwise loop k values at a time.
        tops = np.array([np.maximum.reduce(row) for row in w])[:, None]
        relatives = np.empty((k, min(n, size)))  # a block of w over its largest
        ref, ref_w = np.zeros((2, k, c.shape[-1]))
        peak, clamped = np.full(ref.shape, -np.inf), np.zeros(ref.shape, dtype=bool)
        for start in range(0, n, size):
            part = slice(start, start + size)
            m = min(size, n - start)
            log_y = np.log(np.ldexp(x[:, part], -e[:, None], out=logs[:, :m]), out=logs[:, :m])
            log_w = np.log(np.divide(w[:, part], tops, out=relatives[:, :m]), out=relatives[:, :m])
            t = log_y[:, None, :] * c_rows + log_w[:, None, :]
            i = np.argmax(t, axis=2)[..., None]
            best = np.take_along_axis(t, i, axis=2)[..., 0]
            better = best > peak  # a tie in a later block keeps the first row
            peak = np.where(better, best, peak)
            ref = np.where(better, np.take_along_axis(log_y, i[..., 0], axis=1), ref)
            ref_w = np.where(better, np.take_along_axis(log_w, i[..., 0], axis=1), ref_w)
    ref_rows, scale, clamp = ref[..., None], w is None and np.isfinite(factor).all(), np.count_nonzero(clamped)
    # Where no weight is raised, the sums are accurate at any spread.
    positive, near = (lo > 0)[:, None], log_hi[:, None] - ref <= _LOG_SPREAD  # -inf - -inf on an all-zero column

    def fill(rows: slice, out: np.ndarray, y: np.ndarray, products: bool = False) -> None:
        if scale:
            np.multiply(x[:, rows], factor[:, None], out=y)
        else:
            np.ldexp(x[:, rows], -e[:, None], out=y)
        if single:  # the logs go into out, where the weights replace them in place
            np.log(y, out=out[:, 0])
            out -= ref_rows
        else:
            np.subtract(np.log(y, out=logs[:, : y.shape[1]])[:, None, :], ref_rows, out=out)
        out *= c_rows
        floor = clamp
        if w is not None:
            relative = np.divide(w[:, rows], tops, out=relatives[:, : y.shape[1]])
            out += np.log(relative)[:, None, :] - ref_w[..., None]
            # Raising the exponents below the floor leaves the others as
            # they are, so a block needs it only where its own are below.
            low = np.minimum.reduce(out, axis=2) < _EXP_FLOOR
            clamped[low] = True
            floor = np.count_nonzero(low)
        if floor:
            np.maximum(out, _EXP_FLOOR, out=out)
        np.exp(out, out=out)
        if ones:
            # A (G,) mask picks orders of every column, a (k, G) one (column, order) pairs.
            out[..., one, :] = 1.0 if w is None else np.broadcast_to(relative[:, None], out.shape)[..., one, :]
        if products:
            y *= out[:, 0]

    def formed() -> np.ndarray:
        return one | (positive & (near | ~clamped))

    return e, fill, formed


def _lehmer_weights(x: np.ndarray, orders: np.ndarray, out: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    w: np.ndarray | None = None) -> np.ndarray:
    """Every row of :func:`_lehmer_weight_blocks`'s weights, written into the
    ``(k, G, n)`` buffer ``out`` ``_BLOCK_ELEMENTS`` rows at a time: the
    weights :func:`v_weights` and :func:`wmle.mwle.apply_policy` return.
    Returns ``formed()``."""
    k, n = x.shape
    size = _BLOCK_ELEMENTS
    y = np.empty((k, min(n, size)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, fill, formed = _lehmer_weight_blocks(x, orders, lo, hi, w, size)
        for start in range(0, n, size):
            rows = out[:, :, start : start + size]
            fill(slice(start, start + size), rows, y[:, : rows.shape[2]])
    return formed()


def _scale_exponents(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Per column, the exponent ``e`` of the power of two that :func:`_lehmer_weight_blocks`
    divides ``n`` values with extremes ``lo >= 0`` and ``hi > 0`` by.

    ``e`` lies halfway between the binary exponents of the extremes, so the
    logs of the scaled values, each rounded at its own size, are as small
    as they can be, while the smallest stays normal (every scaled value is
    exact) and ``n`` times the largest below ``2**1024`` (no sum of
    products overflows); only a column spanning nearly the whole double
    range gives up the first.  Scaling the column by ``2**m`` adds ``m``.
    """
    top, bottom = np.frexp(hi)[1], np.frexp(lo)[1]
    return np.maximum(np.minimum((top + bottom) >> 1, bottom + 1021), top + (n.bit_length() - 1024))


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
    1e288 values.  Called with overflow warnings off: below a shape of
    1e-306 the bound is 0.
    """
    return np.exp(_EXP_FLOOR / orders)


#: A weighted Holder target ``sum(w * y**k) / sum(w)`` (largest weight 1) at
#: least this large absorbs the moved terms: together they add at most
#: ``sum(w) * exp(-700)`` to its numerator, under half an ulp of it.
_MOVED_TERMS_TARGET_MIN = 2.0**54 * math.exp(_EXP_FLOOR)


def _moved_terms_out_of_range(what: str) -> NumericError:
    return _weights_out_of_range(
        what, f"where the weights leave a mean term below 2**54 * exp({_EXP_FLOOR:g})"
    )


def _column_means(kind: str, x: np.ndarray, orders: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray, w: np.ndarray | None = None):
    """Lehmer or Holder means of ``k`` columns at many orders, as shifted sums.

    ``x`` holds one column per row, ``(k, n)``, in any layout, with
    extremes ``lo`` and ``hi``, non-negative, and positive for negative
    Holder orders.  ``orders`` is ``(G,)``, shared by every column, or
    ``(k, G)``, one row per column; they are finite, the Holder ones
    nonzero and of one sign.  Weights ``w`` are positive finite base
    weights as the caller has them: for Lehmer shaped like ``x``, for
    Holder ``(n,)`` row weights shared by every column, divided here by
    their largest; ``None``, or a zero stride repeating one weight, means
    unit weights, left unread.  Returns per (column, order) the moment
    target, the total weight and whether the sums are accurate, then the
    reference ``x_r``, shaped to broadcast against them.

    The orders are taken ``B`` at a time, for every column at once, and the
    rows in the leaves of numpy's pairwise summation tree
    (:func:`_pairwise`): its nodes of at most ``_BLOCK_ELEMENTS // (k * B)``
    rows, and of no fewer than 128.  A leaf runs the whole elementwise
    chain in a ``(k, B, m)`` buffer and takes its own sums while it is in
    cache; adding them in the tree's order gives every sum numpy's pairwise
    sum over the whole column, to the bit, and no buffer grows with ``n``.
    Lehmer, for ``lehmer_mean``, the sweep and ``fit`` alike: weights ``u``
    from :func:`_lehmer_weight_blocks` on ``y = x * 2**-e``, which in a
    one-order block writes the products ``u * y`` in place, target ``sum(u
    * y) / sum(u)`` as a mantissa in ``[1, 2)`` and ``x_r`` a power of two
    whose product is the mean, exactly, so the curvature ``fit`` meets stays
    finite.  Holder of order ``k``: ``y = x / x_r``, ``x_r`` the extreme
    with the largest term (0, giving NaN, for an all-zero column), moved to
    :func:`_power_bound`, target ``sum(w * y**k) / sum(w)``.
    :func:`wmle.mwle.fit` solves these targets, and its ``theta_hat`` is
    their :func:`_scale_estimates` to the bit.
    """
    k, n = x.shape
    size = orders.shape[-1]
    sums = np.empty((2, k, size))  # per (column, order) the total weight, then the sum of the terms
    ok = np.ones((k, size), dtype=bool)
    width = max(1, min(size, _BLOCK_ELEMENTS // (k * n)))  # orders per block
    limit = max(_PAIRWISE_BLOCK, _BLOCK_ELEMENTS // (k * width))  # rows per leaf
    lehmer = kind == "lehmer"
    head = k * width * min(n, limit)
    buffer = np.empty(head + (k * min(n, limit) if lehmer else 0))  # Lehmer's y takes k more rows
    if not lehmer:
        up = orders.item(0) > 0
        extreme = np.maximum if up else np.minimum
        ref, far = (hi, lo) if up else (lo, hi)
        if w is not None and w.strides[0] == 0:  # Sample's unit weights
            w = None
        top = None if w is None else np.maximum.reduce(w)

    def leaf(rows: slice) -> np.ndarray:  # reads count, fill and groups of the block of orders below
        m = rows.stop - rows.start
        # A short leaf takes the buffer's head, so its rows stay contiguous.
        out = buffer[: k * count * m].reshape(k, count, m)
        partial = np.empty((2, k, count))
        if lehmer:
            y = buffer[head : head + k * m].reshape(k, m)
            fill(rows, out, y, products=count == 1)
            np.add.reduce(out, axis=2, out=partial[0])
            # In a one-order block fill has left the products u * y in y.
            out = y[:, None, :] if count == 1 else np.multiply(out, y[:, None, :], out=out)
        else:
            # At a negative order, x / min(x) may overflow; the inf is
            # moved to the power bound.  An all-zero column gives 0 / 0, NaN.
            np.divide(x[:, None, rows], ref[:, None, None], out=out)
            for columns, exps, bounds, again in groups:
                terms = out[columns]
                extreme(terms, bounds[:, None], out=terms)
                np.power(terms, exps[:, None], out=terms)
                for g in again:
                    term = np.divide(x[columns, rows], ref[columns, None], out=terms[:, g])
                    np.power(extreme(term, bounds[g], out=term), exps[g], out=term)
            if w is None:
                partial[0] = m
            else:
                relative = w[rows] / top
                out *= relative
                partial[0] = np.add.reduce(relative)
        np.add.reduce(out, axis=2, out=partial[1])
        return partial

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, size, width):
            block, span = orders[..., start : start + width], slice(start, start + width)
            count = block.shape[-1]
            if lehmer:
                e, fill, formed = _lehmer_weight_blocks(x, block, lo, hi, w, limit)
            else:
                # numpy's power swaps in a square root or a square, which can
                # differ in the last bit, for an exponent of 0.5 or 2 repeated
                # along a 1-D loop, as in a one-order block; it does not where
                # the exponent changes from row to row of a short block.  So
                # the orders of each column are raised a column at a time, and
                # in a block of several orders 0.5 and 2 again on their own.
                groups = [(slice(j, j + 1) if block.ndim == 2 else slice(None), exps, _power_bound(exps),
                           np.flatnonzero((exps == 0.5) | (exps == 2.0)) if count > 1 else ())
                          for j, exps in enumerate(block if block.ndim == 2 else [block])]
            sums[..., span] = _pairwise(n, limit, leaf)
            if lehmer:
                ok[:, span] = formed()
    total, target = sums[0], sums[1] / sums[0]
    if lehmer:
        mantissa, exponent = np.frexp(target)
        target, ref = 2.0 * mantissa, np.ldexp(1.0, e[:, None] + exponent - 1)
    elif w is not None:
        # Terms moved to the power bound may show in a target this small, if
        # any value was moved (under unit weights the target is at least 1/n).
        ok = ~((0 < target) & (target < _MOVED_TERMS_TARGET_MIN))
        if not ok.all():
            far = (far / ref)[:, None]
            with np.errstate(over="ignore"):
                bounds = _power_bound(orders)
            ok |= far >= bounds if up else far <= bounds
    return target, total, ok, ref if lehmer else ref[:, None]


def _scale_estimates(ref: np.ndarray, target: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    """Weibull closed-form estimates ``x_r * (1/target) ** (-1/k)`` of the
    kernel's ``(k, G)`` targets at shapes ``k``: one power per column, which
    takes an exponent per order, laid out like fit's one per component."""
    exponents = -1.0 / shapes
    with np.errstate(divide="ignore", over="ignore"):
        return np.array([r * np.power(1.0 / t, exponents) for r, t in zip(ref, target)])


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

    A finite nonzero order takes the walk of :func:`_column_means`, as the
    sweep and ``fit`` do, so nothing overflows and at ``alpha > 0`` the
    mean is ``fit``'s Weibull estimate of shape ``alpha`` to the bit.
    Raises ``NumericError`` where the weights could let the terms moved to
    the power bound show.

    Zero values are rejected when ``alpha <= 0`` because a non-positive
    exponent has a pole at zero.
    """
    a = _order(alpha)
    sample = _coerce(values, weights)
    x, w, lo, hi = sample.values, sample.weights, sample.smallest, sample.largest
    if a == math.inf:
        return float(hi)
    if a == -math.inf:
        _require_positive(sample, a, "min limit of positive-order means")
        return float(lo)
    if a <= 0:
        _require_positive(sample, a, "x**alpha has a pole at 0 for alpha <= 0")
    if a == 0.0:
        return float(math.exp(float(np.dot(w, np.log(x))) / float(np.sum(w))))
    if hi == 0.0:  # only for a > 0
        return 0.0
    order = np.array([a])
    target, _, ok, ref = _column_means("holder", x[None, :], order, lo[None], hi[None], w)
    if not ok[0, 0]:
        raise _moved_terms_out_of_range(f"Holder terms of order {a}")
    return float(_scale_estimates(ref, target, order)[0, 0])


def lehmer_mean(alpha, values, weights=None) -> float:
    """Weighted Lehmer mean of order ``alpha``.

    ``sum(w * x**alpha) / sum(w * x**(alpha-1))`` for finite ``alpha`` and
    the sample max/min at ``alpha = +inf`` / ``-inf``.  Zero values are
    rejected when ``alpha < 1`` because ``x**(alpha-1)`` has a pole at zero;
    at ``alpha = 1`` a zero keeps its weight ``w``, as in ``fit``.  Above 1
    a zero has weight 0 and adds nothing (all zeros give 0.0), where
    :func:`wmle.mwle.fit` and :func:`wmle.mwle.apply_policy` reject it; the
    mean is ``fit``'s target times its scale only where both accept the
    values.

    A finite order takes :func:`_column_means`'s Lehmer target, as the
    sweep and :func:`wmle.mwle.fit` do; the mean, that target times its
    scale, ``sum(u * y) / sum(u) * 2**e``, cannot overflow, and scales exactly
    with ``x`` and not at all with ``w`` by powers of two while the values
    stay normal.  Raises ``NumericError`` where the weights cannot be
    formed: at an order below 1 on values more than ``exp(600)`` apart.
    """
    a = _order(alpha)
    sample = _coerce(values, weights)
    x, w, lo, hi = sample.values, sample.weights, sample.smallest, sample.largest
    if a == math.inf:
        return float(hi)
    if a == -math.inf:
        _require_positive(sample, a, "min limit of the Lehmer family")
        return float(lo)
    if a < 1:
        _require_positive(sample, a, "x**(alpha-1) has a pole at 0 for alpha < 1")
    if hi == 0.0:  # only for a >= 1
        return 0.0
    if lo == 0.0 and a > 1:  # x**(a-1) is 0 at 0: a zero value adds nothing to either sum
        keep = x > 0
        x, w = x[keep], w[keep]
        lo = np.minimum.reduce(x)
    target, _, ok, scale = _column_means("lehmer", x[None], np.array([a]), lo[None], hi[None], w[None])
    if not ok[0, 0]:
        raise _weights_out_of_range(f"the Lehmer weights of order {a}")
    return float(target[0, 0] * scale[0, 0])


def v_weights(kind: str, alpha, values, weights=None) -> np.ndarray:
    """Value-dependent selection weights of the Lehmer or Holder mean.

    Both kinds share the numerator ``w * x**(alpha-1)``; the Lehmer kind
    normalizes by its own sum (so the result sums to one) while the Holder
    kind divides by ``sum(w)`` and is deliberately left unnormalized.  The
    sum of the Holder weights, ``holder_mean(alpha-1)**(alpha-1)``, is a
    useful diagnostic and is simply ``v.sum()``; they are formed as
    written, ``w * np.power(x, alpha-1) / sum(w)``, or, where ``w *
    x**(alpha-1)`` overflows, as ``exp(log w + (alpha-1) log x - log
    sum(w))``, and raise ``NumericError`` where a weight itself overflows.

    Only finite orders are accepted: the defining expressions have no
    finite normalization at infinite order.  Zero values are rejected below
    order 1, where ``x**(alpha-1)`` has a pole; at 1 a zero keeps its weight
    ``w``, and above 1 its weight is 0.  The Lehmer weights are those
    :func:`lehmer_mean` averages with, except that one below ``exp(-700)``
    times the largest, which ``lehmer_mean`` raises to that bound, reads as
    0, and that all-zero values above order 1, whose weights ``0 / 0`` have
    no value, give a row of NaN where ``lehmer_mean`` returns 0.0.
    """
    if kind not in ("lehmer", "holder"):
        raise DomainError(f"unknown v-weight kind {kind!r}, expected 'lehmer' or 'holder'")
    a = _order(alpha)
    if math.isinf(a):
        raise DomainError("v-weights are only defined for finite orders")
    sample = _coerce(values, weights)
    if a < 1:
        _require_positive(sample, a, "x**(alpha-1) has a pole at 0 for alpha < 1")
    return _v_weight_rows(kind, np.array([a]), sample)[0]


def _v_weight_rows(kind: str, orders: np.ndarray, sample: Sample) -> np.ndarray:
    """:func:`v_weights` of a checked sample at every finite order, one row
    per order, each taking the steps of a call at that order alone (one
    order, with a zero value).  Raises ``NumericError`` naming the first
    order whose Holder weights overflow."""
    x, w, lo = sample.values, sample.weights, sample.smallest
    if kind == "lehmer":
        drop = lo == 0.0 and orders[0] > 1.0  # a zero weighs 0 above order 1, w at 1; below, rejected
        if drop:
            if sample.largest == 0.0:
                return np.full((orders.size, x.size), math.nan)
            keep = x > 0
            x, w = x[keep], w[keep]
            lo = np.minimum.reduce(x)
        u = np.empty((1, orders.size, x.size))
        _lehmer_weights(x[None], orders, u, lo[None], sample.largest[None], w[None])
        # A weight raised to exp(-700) reads as 0, as its exact value over a sum of at least 1 rounds.
        u[0][(u[0] <= np.exp(_EXP_FLOOR)) & (orders != 1.0)[:, None]] = 0.0
        v = u[0] / np.add.reduce(u[0], axis=1, keepdims=True)
        if not drop:
            return v
        full = np.zeros((orders.size, keep.size))
        full[:, keep] = v
        return full
    # One power per order: numpy's power may round an exponent of 0.5 or 2
    # differently where it varies along the rows.
    v = np.empty((orders.size, x.size))
    total = float(np.add.reduce(w))
    with np.errstate(over="ignore"):
        for a, row in zip(orders, v):
            np.multiply(w, np.power(x, a - 1.0), out=row)
            row /= total
            far = np.flatnonzero(row == math.inf)
            if far.size:  # w * x**(a-1) overflows, the weight itself perhaps not
                row[far] = np.exp(np.log(w[far]) + (a - 1.0) * np.log(x[far]) - math.log(total))
            if not np.isfinite(row).all():
                raise NumericError(f"the Holder v-weights of order {float(a)} overflow")
    return v
