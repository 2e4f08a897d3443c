"""Ingestion of statewide senate returns into per-cycle vote proportions.

Reads a delimited returns file (defaults match the public MIT Election Lab
senate file: ``year, state_po, party_simplified, candidatevotes,
totalvotes``), validates each row, and aggregates candidate votes per
election-cycle year into national (dem, rep, other) proportions.  Malformed
rows are collected into a rejects report instead of being silently dropped.

Ingest is one pass over the file, and each row is checked once: a row that
passes an inline accept test becomes a ``ReturnsRow``, an immutable named
tuple, at once.  Only a row that fails it is parsed again, by
``_parse_row``, to name the reason it is rejected; ``_parse_row`` has the
last word, so the few spellings it accepts and bare ``int()`` does not
(a leading ``chr(0x1c)``) are still rows.

Lines are split with ``str.split`` until the first line holding a ``"``
(or longer than ``csv.field_size_limit()``): a quote-free line is one
record, and its fields are the ones ``csv.reader`` would give.  From that
line on, the rest of the file goes to one ``csv.reader``, so a quoted
field may hold the delimiter or span lines.  A reject is numbered by the
physical line its record starts on (the header is line 1), and its
``raw`` text is the record's source lines without the final line break.

Aggregation sums candidate votes per (year, party label), maps each
distinct label to DEM/REP/OTHER once, and divides by the summed
mapped-party votes of that year, so each row of the resulting matrix sums
to one by construction and no vote is lost or double counted.  Special
elections sharing a cycle year are merged into that year's totals.  The
configured year range defaults to 1976-2020, which contains 23 biennial
cycles; the row count is surfaced rather than assumed.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import logging
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AggregationError, ConfigError, DomainError, SchemaError
from .expfam import WeightedDataset

__all__ = [
    "SchemaConfig",
    "ReturnsRow",
    "RejectedRow",
    "LoadResult",
    "ProportionMatrix",
    "DEFAULT_PARTY_MAPPING",
    "load_returns",
    "aggregate",
    "to_weighted_dataset",
]

logger = logging.getLogger(__name__)

#: Labels not mapped to DEM or REP (write-ins, blanks, minor parties) all
#: land in OTHER.
DEFAULT_PARTY_MAPPING = {"DEMOCRAT": "DEM", "REPUBLICAN": "REP"}

_BUCKETS = ("DEM", "REP", "OTHER")

#: Floor applied to an exactly-zero proportion before renormalizing, so the
#: matrix stays strictly positive (negative-order weight policies need it).
ZERO_PROPORTION_FLOOR = 1e-9


@dataclass(frozen=True)
class SchemaConfig:
    """Column names and accepted year range of the input file."""

    year_column: str = "year"
    state_column: str = "state_po"
    party_column: str = "party_simplified"
    candidate_votes_column: str = "candidatevotes"
    total_votes_column: str = "totalvotes"
    year_min: int = 1976
    year_max: int = 2020

    @classmethod
    def from_file(cls, path) -> "SchemaConfig":
        """Parse a small ``key=value`` config file (``#`` starts a comment)."""
        values = {}
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
                values[key] = value
        for int_key in ("year_min", "year_max"):
            if int_key in values:
                try:
                    values[int_key] = int(values[int_key])
                except ValueError as exc:
                    raise ConfigError(f"{int_key} must be an integer, got {values[int_key]!r}") from exc
        return cls(**values)

    def required_columns(self) -> tuple[str, ...]:
        return (
            self.year_column,
            self.state_column,
            self.party_column,
            self.candidate_votes_column,
            self.total_votes_column,
        )


class ReturnsRow(NamedTuple):
    """One validated (year, state, party) return."""

    year: int
    state: str
    party: str
    candidate_votes: int
    total_votes: int


@dataclass(frozen=True)
class RejectedRow:
    """A row that failed validation, kept for the rejects report.

    ``line_number`` is the physical line of the file the record starts on,
    and ``raw`` is the record's source text without its final line break.
    """

    line_number: int
    reason: str
    raw: str


@dataclass(frozen=True)
class LoadResult:
    rows: list[ReturnsRow]
    rejects: list[RejectedRow]


def _parse_int(text: str, column: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid integer for {column}: {text!r}") from None


def _parse_row(record: list[str], width: int, index: dict[str, int],
               config: SchemaConfig) -> ReturnsRow:
    """Validate one record; a ``ValueError`` carries the reject reason."""
    if len(record) != width:
        raise ValueError(f"expected {width} fields, got {len(record)}")
    year = _parse_int(record[index[config.year_column]], config.year_column)
    candidate = _parse_int(
        record[index[config.candidate_votes_column]], config.candidate_votes_column
    )
    total = _parse_int(record[index[config.total_votes_column]], config.total_votes_column)
    if not (config.year_min <= year <= config.year_max):
        raise ValueError(
            f"year {year} outside configured range {config.year_min}-{config.year_max}"
        )
    if candidate < 0:
        raise ValueError(f"negative candidatevotes {candidate}")
    if total <= 0:
        raise ValueError(f"non-positive totalvotes {total}")
    if candidate > total:
        raise ValueError(f"candidatevotes {candidate} exceeds totalvotes {total}")
    return ReturnsRow(
        year=year,
        state=record[index[config.state_column]].strip(),
        party=record[index[config.party_column]].strip(),
        candidate_votes=candidate,
        total_votes=total,
    )


def _records(handle, delimiter: str, source: list[str]):
    """Yield ``(start, fields)`` for each non-blank record after the header.

    ``start`` is the physical line the record starts on, the header being
    line 1.  A line without ``"`` and no longer than csv's field limit is
    one record, and ``str.split`` gives the fields ``csv.reader`` would.
    From the first other line on, the rest of the file goes to one
    ``csv.reader``; ``source`` then holds the lines of the record last
    yielded (it stays empty before).  The reader yields ``[]`` for a blank
    line, so each record starts on the line after the previous one ended.
    """
    limit = csv.field_size_limit()
    for start, line in enumerate(handle, 2):
        if '"' in line or len(line) > limit:
            break
        text = line.rstrip("\r\n")
        if text:
            yield start, text.split(delimiter)
    else:
        return
    first = start
    # list.append returns None, so filterfalse passes on every line it records.
    lines = itertools.filterfalse(source.append, itertools.chain((line,), handle))
    reader = csv.reader(lines, delimiter=delimiter)
    for record in reader:
        if record:
            yield start, record
        start = first + reader.line_num
        source.clear()


def load_returns(path, config: Optional[SchemaConfig] = None) -> LoadResult:
    """Parse a delimited returns file.

    The delimiter (comma or tab) is detected from the header line.  A
    missing required column raises ``SchemaError``; an unreadable file
    raises the underlying ``OSError``.  Rows violating the row invariants
    (unparsable integers, negative votes, candidate votes above the race
    total, year outside the configured range) are returned in
    ``LoadResult.rejects`` with a reason.
    """
    config = config or SchemaConfig()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header_line = handle.readline()
        if header_line == "":
            raise SchemaError(f"{path}: empty file, expected a header line")
        delimiter = "\t" if "\t" in header_line else ","
        header = next(csv.reader(io.StringIO(header_line), delimiter=delimiter))
        header = [name.strip().lstrip("﻿") for name in header]
        missing = [c for c in config.required_columns() if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {missing} in header {header}")
        index = {name: header.index(name) for name in config.required_columns()}
        width = len(header)

        # A record passing the inline accept test (_parse_row's checks; int()
        # ignores surrounding whitespace itself) becomes a row at once.  Any
        # other record goes to _parse_row, which alone decides whether it is
        # a row and names the reason when it is not.
        fields = operator.itemgetter(*(index[c] for c in config.required_columns()))
        year_min, year_max = config.year_min, config.year_max
        # tuple.__new__ builds the same ReturnsRow without a Python frame.
        new_row = functools.partial(tuple.__new__, ReturnsRow)
        rows: list[ReturnsRow] = []
        rejects: list[RejectedRow] = []
        source: list[str] = []
        for line_number, record in _records(handle, delimiter, source):
            if len(record) == width:
                year, state, party, candidate, total = fields(record)
                try:
                    year, candidate, total = int(year), int(candidate), int(total)
                except ValueError:
                    pass
                else:
                    if year_min <= year <= year_max and 0 <= candidate <= total and total > 0:
                        rows.append(new_row((year, state.strip(), party.strip(), candidate, total)))
                        continue
            try:
                rows.append(_parse_row(record, width, index, config))
            except ValueError as exc:
                raw = ("".join(source[:-1]) + source[-1].rstrip("\r\n")
                       if source else delimiter.join(record))
                rejects.append(RejectedRow(line_number, str(exc), raw))
    return LoadResult(rows=rows, rejects=rejects)


@dataclass(frozen=True)
class ProportionMatrix:
    """Per-cycle national vote proportions, columns (dem, rep, other)."""

    years: tuple[int, ...]
    values: np.ndarray  # (n, 3), strictly positive, rows sum to ~1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != 3:
            raise DomainError("proportion matrix must have exactly three columns")
        if values.shape[0] != len(self.years):
            raise DomainError("one row per cycle year is required")
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "values", values)

    @property
    def n_cycles(self) -> int:
        return len(self.years)

    def to_csv(self) -> str:
        """Serialize with 12 significant digits, header ``year,dem,rep,other``."""
        lines = ["year,dem,rep,other"]
        for year, row in zip(self.years, self.values):
            cells = ",".join(f"{float(v):.12g}" for v in row)
            lines.append(f"{year},{cells}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ProportionMatrix":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0].strip() != "year,dem,rep,other":
            raise SchemaError("proportion CSV must start with header 'year,dem,rep,other'")
        years = []
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != 4:
                raise SchemaError(f"malformed proportion row: {line!r}")
            years.append(int(cells[0]))
            rows.append([float(c) for c in cells[1:]])
        return cls(years=tuple(years), values=np.asarray(rows, dtype=float))


def aggregate(rows: list[ReturnsRow], party_mapping: Optional[dict] = None) -> ProportionMatrix:
    """Aggregate validated rows into one proportion row per cycle year.

    ``party_mapping`` sends party labels to ``DEM``/``REP``/``OTHER``;
    unmapped labels fall through to ``OTHER``.  A cycle whose mapped votes
    sum to zero raises ``AggregationError``.  An exactly-zero proportion is
    floored at ``ZERO_PROPORTION_FLOOR`` and the row renormalized, with a
    logged warning, so downstream weight policies stay in-domain.
    """
    mapping = DEFAULT_PARTY_MAPPING if party_mapping is None else dict(party_mapping)
    bad_targets = set(mapping.values()) - set(_BUCKETS)
    if bad_targets:
        raise ConfigError(f"party mapping targets must be in {_BUCKETS}, got {sorted(bad_targets)}")
    if not rows:
        raise AggregationError("no rows to aggregate")

    # Sum per (year, party) first, then map each distinct label once.
    # Integer sums are exact, so the grouping order changes no proportion.
    sums: dict[tuple[int, str], int] = {}
    for row in rows:
        key = (row.year, row.party)
        sums[key] = sums.get(key, 0) + row.candidate_votes
    totals: dict[int, dict[str, int]] = {}
    for (year, party), votes in sums.items():
        per_year = totals.setdefault(year, dict.fromkeys(_BUCKETS, 0))
        per_year[mapping.get(party, "OTHER")] += votes

    years = sorted(totals)
    values = np.empty((len(years), 3))
    for i, year in enumerate(years):
        per_year = totals[year]
        year_total = sum(per_year.values())
        if year_total == 0:
            raise AggregationError(f"cycle {year} has zero mapped votes")
        proportions = np.array([per_year[b] / year_total for b in _BUCKETS])
        zero_mask = proportions == 0.0
        if np.any(zero_mask):
            floored = [b for b, z in zip(_BUCKETS, zero_mask) if z]
            logger.warning(
                "cycle %d has zero votes for %s; flooring at %g and renormalizing",
                year,
                ",".join(floored),
                ZERO_PROPORTION_FLOOR,
            )
            proportions = np.where(zero_mask, ZERO_PROPORTION_FLOOR, proportions)
            proportions = proportions / proportions.sum()
        values[i] = proportions
    return ProportionMatrix(years=tuple(years), values=values)


def to_weighted_dataset(matrix: ProportionMatrix) -> WeightedDataset:
    """Wrap the proportion matrix as a dataset with unit initial weights.

    Weight policies are applied later by :mod:`wmle.mwle`.
    """
    if matrix.n_cycles == 0:
        raise DomainError("cannot build a dataset from an empty proportion matrix")
    return WeightedDataset(matrix.values.copy(), np.ones(matrix.n_cycles))
