"""Shared fixtures: random-sample helpers and a synthetic returns file.

The synthetic senate returns file follows the public statewide-returns
schema (year, state_po, party_simplified, candidatevotes, totalvotes) for
the 23 biennial cycles 1976-2020.  Party shares are drawn per state inside
disjoint bands (dem 0.50-0.55, rep 0.40-0.445, other the remainder), so
every aggregated national proportion column is interval-separated from the
others; the case-study ordering assertions then hold for every mean order
by the boundedness of the mean families.

Set the ``WMLE_SENATE_RETURNS`` environment variable to point the
case-study tests at a real returns file instead.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

SCHEMA_HEADER = "year,state_po,party_simplified,candidatevotes,totalvotes"

_STATES = ("AZ", "CA", "MT", "OH", "PA", "VT")


def write_synthetic_returns(path) -> None:
    rng = np.random.default_rng(19762020)
    lines = [SCHEMA_HEADER]
    for year in range(1976, 2021, 2):
        states = _STATES + (("GA",) if year == 1992 else ())  # special election
        for state in states:
            total = int(rng.integers(200_000, 1_400_000))
            dem_share = rng.uniform(0.50, 0.55)
            rep_share = rng.uniform(0.40, 0.445)
            dem = int(round(total * dem_share))
            rep = int(round(total * rep_share))
            other = total - dem - rep
            libertarian = int(other * 0.6)
            writein = other - libertarian
            for party, votes in (
                ("DEMOCRAT", dem),
                ("REPUBLICAN", rep),
                ("LIBERTARIAN", libertarian),
                ("", writein),
            ):
                lines.append(f"{year},{state},{party},{votes},{total}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def write_quoted_copies(path) -> dict:
    """Write three quoted copies of the comma-delimited returns file at
    ``path`` beside it, and return their paths by name: ``"text"`` quotes
    every field that is not an integer, ``"full"`` every field, and
    ``"line2"`` only the first field of line 2.  Blank lines stay blank.  No
    field of the file may hold a ``"``, so each copy reads as the same
    records as the original."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")

    def quoted(line, which):
        cells = line.split(",")
        return ",".join(f'"{c}"' if line and which(k, c) else c for k, c in enumerate(cells))

    spellings = {
        "text": [quoted(line, lambda k, c: not re.fullmatch(r"-?[0-9]+", c)) for line in lines],
        "full": [quoted(line, lambda k, c: True) for line in lines],
        "line2": lines[:1] + [quoted(lines[1], lambda k, c: k == 0)] + lines[2:],
    }
    paths = {}
    for name, copy in spellings.items():
        paths[name] = f"{path}.{name}.csv"
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(copy))
    return paths


@pytest.fixture(scope="session")
def synthetic_returns_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("returns") / "senate_synthetic.csv"
    write_synthetic_returns(path)
    return str(path)


@pytest.fixture(scope="session")
def returns_csv(synthetic_returns_csv) -> str:
    """Real returns file when WMLE_SENATE_RETURNS is set, else the fixture."""
    real = os.environ.get("WMLE_SENATE_RETURNS")
    if real:
        if not os.path.exists(real):
            pytest.fail(f"WMLE_SENATE_RETURNS points at a missing file: {real}")
        return real
    return synthetic_returns_csv


def read_sweep_csv(text: str) -> np.ndarray:
    """A sweep CSV's rows as ``(order, dem, rep, other)``; a gap row's
    estimates read as NaN, every other value exactly as written."""
    return np.genfromtxt(io.StringIO(text), delimiter=",", skip_header=1, ndmin=2)


def random_positive_sample(rng: np.random.Generator, max_n: int = 20,
                           min_n: int = 1, weighted: bool = True):
    """Unit-scale positive values with optional random positive weights."""
    n = int(rng.integers(min_n, max_n + 1))
    values = rng.uniform(0.05, 3.0, size=n)
    weights = rng.uniform(0.1, 4.0, size=n) if weighted else None
    return values, weights


def without_closed_inverse(model):
    """``model`` without a closed-form mean-map inverse, on its components
    too, so that fit solves every one of its problems by Newton."""
    components = model.components and tuple(
        dataclasses.replace(c, mean_map_inverse=None) for c in model.components)
    return dataclasses.replace(model, mean_map_inverse=None, components=components)



def _power(x: Decimal, alpha: float) -> Decimal:
    """``x ** alpha`` for a positive Decimal ``x``: exact at an integer order,
    by a square root at half an odd integer, else correctly rounded in all
    but rare cases (and slowly)."""
    if alpha == int(alpha):
        return x ** int(alpha)
    if 2 * alpha == int(2 * alpha):
        return x ** int(math.floor(alpha)) * x.sqrt()
    return x ** Decimal(alpha)


def _powers(alpha: float, values, weights=None):
    """``w * x**alpha`` and ``w * x**(alpha - 1)`` of float values and weights."""
    xs = [Decimal(float(v)) for v in values]  # exact conversions
    ws = [Decimal(1)] * len(xs) if weights is None else [Decimal(float(w)) for w in weights]
    num = [w * _power(x, alpha) for w, x in zip(ws, xs)]
    return num, [n / x for n, x in zip(num, xs)]


def lehmer_oracle(alpha: float, values, weights=None) -> Fraction:
    """The Lehmer mean ``sum(w * x**alpha) / sum(w * x**(alpha - 1))`` of
    float values, in 100-digit decimal arithmetic: a relative error near
    1e-98, some 1e82 times below one ulp, so as good as exact for counting
    ulps.  (The exact rational at alpha = -500 over 40 values has a
    denominator of about a million bits.)  Orders that are not integers nor
    halves of one take a decimal power of ~200 us per value."""
    with localcontext(prec=100):
        num, den = _powers(alpha, values, weights)
        return Fraction(sum(num) / sum(den))


def holder_oracle(k: float, values, weights=None) -> Fraction:
    """The Holder mean ``(sum(w * x**k) / sum(w)) ** (1/k)`` of float values
    at a nonzero integer or half-integer order, in 100-digit decimal
    arithmetic, as good as exact for counting ulps like :func:`lehmer_oracle`."""
    with localcontext(prec=100):
        xs = [Decimal(float(v)) for v in values]
        ws = [Decimal(1)] * len(xs) if weights is None else [Decimal(float(w)) for w in weights]
        mean = sum(w * _power(x, k) for w, x in zip(ws, xs)) / sum(ws)
        return Fraction(mean ** (Decimal(1) / Decimal(k)))


def lehmer_condition(alpha: float, values) -> float:
    """Condition number of the Lehmer mean under relative perturbations of
    the values: ``sum |alpha * v_i - (alpha - 1) * v'_i|``, with ``v`` and
    ``v'`` the normalized weights of the numerator and the denominator."""
    with localcontext(prec=100):
        num, den = _powers(alpha, values)
        total_num, total_den, a = sum(num), sum(den), Decimal(alpha)
        return float(sum(abs(a * p / total_num - (a - 1) * q / total_den)
                         for p, q in zip(num, den)))


def ulps_off(got: float, exact: Fraction) -> float:
    """Relative error of ``got`` in units of 2**-52."""
    if not math.isfinite(got):
        return math.inf
    return float(abs(Fraction(got) - exact) / exact) * 2.0**52
