"""Correctness oracles, written independently of ``wmle.means``.

* Lehmer and Holder means by compensated summation (``math.fsum`` over
  numpy powers) at moderate orders, and by a max-shifted log-sum-exp, also
  summed with ``fsum``, at extreme orders where the plain powers overflow.
* Exact per-cycle proportions come from the generator's integer counts
  (``gen.exact_proportions``); the checks here compare against them.
* Rerun identity: callers compare each pass's output bytes with the first.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Orders up to this magnitude are evaluated with plain powers.
MODERATE_ORDER = 20.0
#: Relative tolerance at moderate orders.
REL_MODERATE = 1e-12
#: Relative tolerance at extreme orders, where rounding of ``alpha*log(x)``
#: (|alpha*log x| up to ~1.4e3) alone moves the result by ~1e-13.
REL_EXTREME = 1e-9
#: Proportions are exact quotients of integers: allow four ulps.
REL_PROPORTION = 4 * 2.0 ** -52
#: The proportions CSV carries 12 significant digits.
REL_CSV12 = 1e-11


def _lse(exponents: np.ndarray) -> float:
    m = float(np.max(exponents))
    return m + math.log(math.fsum(np.exp(exponents - m)))


def lehmer(alpha: float, x) -> float:
    x = np.asarray(x, dtype=float)
    if abs(alpha) <= MODERATE_ORDER:
        return math.fsum(np.power(x, alpha)) / math.fsum(np.power(x, alpha - 1.0))
    log_x = np.log(x)
    return math.exp(_lse(alpha * log_x) - _lse((alpha - 1.0) * log_x))


def holder(k: float, x) -> float:
    x = np.asarray(x, dtype=float)
    if abs(k) <= MODERATE_ORDER:
        return (math.fsum(np.power(x, k)) / x.size) ** (1.0 / k)
    return math.exp((_lse(k * np.log(x)) - math.log(x.size)) / k)


def mean_columns(kind: str, order: float, matrix) -> list[float]:
    fn = lehmer if kind == "lehmer" else holder
    matrix = np.asarray(matrix, dtype=float)
    return [fn(order, matrix[:, j]) for j in range(matrix.shape[1])]


def tolerance(order: float) -> float:
    return REL_MODERATE if abs(order) <= MODERATE_ORDER else REL_EXTREME


def check_values(got, want, rel: float, what: str):
    got = [float(v) for v in got]
    if len(got) != len(want):
        return f"{what}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not (math.isfinite(g) and abs(g - w) <= rel * abs(w)):
            return f"{what}[{i}] = {g!r}, expected {float(w)!r} (rel tol {rel:g})"
    return None


def check_proportions(years, values, want_years, want_values, rel: float = REL_PROPORTION):
    if list(years) != list(want_years):
        return f"cycle years {list(years)[:4]}... differ from the generated cycles"
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(want_values):
        return f"proportion matrix shape {values.shape}, expected {np.shape(want_values)}"
    for i, year in enumerate(want_years):
        err = check_values(values[i], want_values[i], rel, f"proportions[{year}]")
        if err:
            return err
    return None


def parse_proportions_csv(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "year,dem,rep,other":
        return None, None
    years, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        years.append(int(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    return years, np.asarray(rows, dtype=float)


def check_proportions_csv(text: str, want_years, want_values):
    years, values = parse_proportions_csv(text)
    if years is None:
        return "proportions CSV has no 'year,dem,rep,other' header"
    return check_proportions(years, values, want_years, want_values, REL_CSV12)


def check_sweep_csv(text: str, orders, expected, rel: float = REL_MODERATE):
    """Sweep CSV rows against oracle rows at the oracle's own grid."""
    lines = text.splitlines()
    if not lines or lines[0] != "order,lambda_dem,lambda_rep,lambda_oth":
        return "sweep CSV header missing"
    if len(lines) - 1 != len(orders):
        return f"sweep CSV has {len(lines) - 1} rows, expected {len(orders)}"
    for line, order, want in zip(lines[1:], orders, expected):
        cells = line.split(",")
        if len(cells) != 4 or "" in cells:
            return f"sweep row at order {order!r} is a gap or malformed: {line!r}"
        if abs(float(cells[0]) - order) > 1e-9 * max(1.0, abs(order)):
            return f"sweep order {cells[0]} differs from grid value {order!r}"
        err = check_values(cells[1:], want, rel, f"sweep[{order:g}]")
        if err:
            return err
    return None


def check_reject_lines(got_lines, want_lines):
    got, want = sorted(got_lines), sorted(want_lines)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        return f"rejected lines differ: {len(got)} vs {len(want)} (missing {missing}, extra {extra})"
    return None


_REASONS = (
    ("field_count", re.compile(r"fields")),
    ("bad_integer", re.compile(r"invalid integer")),
    ("year_range", re.compile(r"^year .*outside")),
    ("negative_votes", re.compile(r"^negative")),
    ("nonpositive_total", re.compile(r"non-positive")),
    ("votes_exceed_total", re.compile(r"exceeds")),
)


def reject_kind(reason: str) -> str:
    """Classify a pipeline reject reason; unknown wording maps to ``other``."""
    for kind, pattern in _REASONS:
        if pattern.search(reason):
            return kind
    return "other"
