"""Seeded input generators.

Everything here is a pure function of the seed and a size: the same seed
gives byte-identical inputs.  The generators know the exact answer they
encode (per-cycle vote counts, the line numbers of the malformed rows), so
the oracles never have to trust the program under test.

Returns files follow the MIT Election Lab statewide Senate schema, all 19
columns, so parsing cost matches the real file.  The real-size file has
about 3.1k rows: 23 biennial cycles 1976-2020, 33 or 34 races a cycle over
the 50 states, two major-party rows plus 0-4 minor-party or write-in rows a
race.  The precinct-size file comes from the same generator with every
race split into 64 precinct rows per candidate (about 2e5 rows), and one
cycle has no minor-party votes at all, so the zero-proportion floor fires.
``MALFORMED_SHARE`` of extra rows are corrupted copies of valid rows, one
of six kinds in rotation, so each reject reason the pipeline knows occurs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

MALFORMED_SHARE = 0.01
CYCLES = tuple(range(1976, 2021, 2))
LOG_UNIFORM_RANGE = (1e-3, 1e3)

COLUMNS = (
    "year", "state", "state_po", "state_fips", "state_cen", "state_ic", "office",
    "district", "stage", "special", "candidate", "party_detailed", "writein",
    "mode", "candidatevotes", "totalvotes", "unofficial", "version",
    "party_simplified",
)
_YEAR, _VOTES, _TOTAL = COLUMNS.index("year"), COLUMNS.index("candidatevotes"), COLUMNS.index("totalvotes")

REJECT_KINDS = (
    "field_count",
    "bad_integer",
    "year_range",
    "negative_votes",
    "nonpositive_total",
    "votes_exceed_total",
)

_STATES = (
    ("AL", "ALABAMA", 1), ("AK", "ALASKA", 2), ("AZ", "ARIZONA", 4), ("AR", "ARKANSAS", 5),
    ("CA", "CALIFORNIA", 6), ("CO", "COLORADO", 8), ("CT", "CONNECTICUT", 9),
    ("DE", "DELAWARE", 10), ("FL", "FLORIDA", 12), ("GA", "GEORGIA", 13), ("HI", "HAWAII", 15),
    ("ID", "IDAHO", 16), ("IL", "ILLINOIS", 17), ("IN", "INDIANA", 18), ("IA", "IOWA", 19),
    ("KS", "KANSAS", 20), ("KY", "KENTUCKY", 21), ("LA", "LOUISIANA", 22), ("ME", "MAINE", 23),
    ("MD", "MARYLAND", 24), ("MA", "MASSACHUSETTS", 25), ("MI", "MICHIGAN", 26),
    ("MN", "MINNESOTA", 27), ("MS", "MISSISSIPPI", 28), ("MO", "MISSOURI", 29),
    ("MT", "MONTANA", 30), ("NE", "NEBRASKA", 31), ("NV", "NEVADA", 32),
    ("NH", "NEW HAMPSHIRE", 33), ("NJ", "NEW JERSEY", 34), ("NM", "NEW MEXICO", 35),
    ("NY", "NEW YORK", 36), ("NC", "NORTH CAROLINA", 37), ("ND", "NORTH DAKOTA", 38),
    ("OH", "OHIO", 39), ("OK", "OKLAHOMA", 40), ("OR", "OREGON", 41),
    ("PA", "PENNSYLVANIA", 42), ("RI", "RHODE ISLAND", 44), ("SC", "SOUTH CAROLINA", 45),
    ("SD", "SOUTH DAKOTA", 46), ("TN", "TENNESSEE", 47), ("TX", "TEXAS", 48), ("UT", "UTAH", 49),
    ("VT", "VERMONT", 50), ("VA", "VIRGINIA", 51), ("WA", "WASHINGTON", 53),
    ("WV", "WEST VIRGINIA", 54), ("WI", "WISCONSIN", 55), ("WY", "WYOMING", 56),
)
_MINOR_PARTIES = (
    ("LIBERTARIAN", "LIBERTARIAN"), ("GREEN", "OTHER"), ("INDEPENDENT", "OTHER"),
    ("CONSTITUTION", "OTHER"), ("", "OTHER"),
)
_BUCKET = {"DEMOCRAT": 0, "REPUBLICAN": 1}


@dataclass
class ReturnsFile:
    """A generated returns file and the facts it encodes."""

    text: str
    counts: dict = field(default_factory=dict)  # year -> [dem, rep, other] of valid rows
    valid_rows: int = 0
    reject_lines: list = field(default_factory=list)  # physical line numbers, header = 1

    @property
    def rows_read(self) -> int:
        return self.valid_rows + len(self.reject_lines)


def returns_file(seed: int, *, races_per_cycle: int = 33, precincts: int = 1,
                 zero_other_cycle: bool = False) -> ReturnsFile:
    rng = random.Random(f"returns:{seed}:{races_per_cycle}:{precincts}")
    zero_year = rng.choice(CYCLES) if zero_other_cycle else None
    rows: list[list[str]] = []
    counts = {year: [0, 0, 0] for year in CYCLES}
    serial = 0
    for year in CYCLES:
        races = [(s, "FALSE") for s in rng.sample(_STATES, min(races_per_cycle, len(_STATES)))]
        if rng.random() < 0.5:  # a special election shares the cycle year
            races.append((rng.choice(_STATES), "TRUE"))
        for (po, name, fips), special in races:
            total = rng.randint(150_000, 9_000_000)
            n_minor = 0 if year == zero_year else rng.randint(0, 4)
            minor_share = rng.uniform(0.005, 0.08) if n_minor else 0.0
            dem_share = rng.uniform(0.3, 0.65) * (1.0 - minor_share)
            shares = [dem_share, 1.0 - minor_share - dem_share]
            splits = [rng.random() + 0.05 for _ in range(n_minor)]
            shares += [minor_share * s / sum(splits) for s in splits]
            parties = [("DEMOCRAT", "DEMOCRAT"), ("REPUBLICAN", "REPUBLICAN")]
            parties += [rng.choice(_MINOR_PARTIES) for _ in range(n_minor)]
            votes = [max(1, int(total * s)) for s in shares]
            weights = [rng.random() + 0.5 for _ in range(precincts)]
            scale = sum(weights)
            # per[c][p]: votes of candidate c in precinct p; the last precinct
            # takes the remainder so precinct rows sum to the race exactly.
            per = []
            for v in votes:
                parts = [int(v * w / scale) for w in weights[:-1]]
                per.append(parts + [v - sum(parts)])
            for p in range(precincts):
                precinct_total = sum(per[c][p] for c in range(len(votes)))
                for c, (detailed, simplified) in enumerate(parties):
                    serial += 1
                    rows.append([
                        str(year), name, po, str(fips), str(fips % 90 + 10), str(fips % 80 + 1),
                        "US SENATE", "statewide", "gen", special, f"CANDIDATE {serial:07d}",
                        detailed, "TRUE" if detailed == "" else "FALSE", "total",
                        str(per[c][p]), str(precinct_total), "FALSE", "20210114", simplified,
                    ])
                    counts[year][_BUCKET.get(simplified, 2)] += per[c][p]

    n_bad = int(round(MALFORMED_SHARE * len(rows)))
    bad_rows = []
    for i in range(n_bad):
        kind = REJECT_KINDS[i % len(REJECT_KINDS)]
        bad = list(rng.choice(rows))
        if kind == "field_count":
            bad.pop()
        elif kind == "bad_integer":
            bad[_VOTES] = bad[_VOTES] + "x"
        elif kind == "year_range":
            bad[_YEAR] = str(rng.choice((1970, 1974, 2022, 2030)))
        elif kind == "negative_votes":
            bad[_VOTES] = str(-max(1, int(bad[_VOTES])))
        elif kind == "nonpositive_total":
            bad[_TOTAL] = "0"
        else:
            bad[_VOTES] = str(int(bad[_TOTAL]) + rng.randint(1, 1000))
        bad_rows.append(bad)
    positions = sorted(rng.sample(range(len(rows) + n_bad), n_bad))
    lines = [",".join(COLUMNS)]
    reject_lines = []
    bad_iter = iter(bad_rows)
    valid_iter = iter(rows)
    bad_at = set(positions)
    for pos in range(len(rows) + n_bad):
        if pos in bad_at:
            lines.append(",".join(next(bad_iter)))
            reject_lines.append(pos + 2)
        else:
            lines.append(",".join(next(valid_iter)))
    return ReturnsFile(
        text="\n".join(lines) + "\n",
        counts=counts,
        valid_rows=len(rows),
        reject_lines=reject_lines,
    )


def exact_proportions(counts: dict, floor: float = 1e-9) -> tuple[list[int], np.ndarray]:
    """Per-cycle (dem, rep, other) shares from exact integer counts.

    Integer true division is correctly rounded, so these are the exact
    proportions to the last bit; an exactly-zero share is floored and the row
    renormalized, as the pipeline documents.
    """
    years = sorted(y for y, c in counts.items() if sum(c) > 0)
    values = np.empty((len(years), 3))
    for i, year in enumerate(years):
        c = counts[year]
        row = [v / sum(c) for v in c]
        if 0.0 in row:
            row = [floor if v == 0.0 else v for v in row]
            s = math.fsum(row)
            row = [v / s for v in row]
        values[i] = row
    return years, values


def log_uniform(seed: int, n: int, k: int = 3) -> np.ndarray:
    lo, hi = LOG_UNIFORM_RANGE
    rng = np.random.default_rng([seed, n, k])
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, k)))


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{purpose}:{seed}")
