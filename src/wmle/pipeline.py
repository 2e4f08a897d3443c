"""Ingestion of statewide senate returns into per-cycle vote proportions.

Reads a delimited returns file (defaults match the public MIT Election Lab
senate file: ``year, state_po, party_simplified, candidatevotes,
totalvotes``), validates each row, and aggregates candidate votes per
election-cycle year into national (dem, rep, other) proportions.  Malformed
rows are collected into a rejects report instead of being silently dropped.

Ingest is one pass over the file, which is read once from start to end (so
it may be a pipe), and each row is checked once.  The quote-free text
after the header, up to the first line holding a ``"`` (or longer than
``csv.field_size_limit()``), is read in blocks of about 1 MiB cut at line
breaks (``\\n``, ``\\r\\n`` or a lone ``\\r``).  In each block numpy finds
the line breaks and the delimiters and runs the accept test over all lines
at once: an ASCII line with the header's field count, year and vote fields
of 1-18 ASCII digits that pass ``_parse_row``'s range checks, and state
and party texts of at most 64 bytes becomes a ``ReturnsRow``, an immutable
named tuple, with the other accepted lines of its block.  Every other line
(ragged, an integer with a sign, spaces, ``_`` or ``chr(0x1c)``, out of
range, non-ASCII, blank) is decoded, so text that is not UTF-8 fails here,
split on the delimiter and given, in file order, to ``_parse_row``.
``_parse_row`` has the last word, so the few spellings it accepts and the
scan does not (``+5``, ``' 12 '``, a 19-digit count) are still rows, and
it names the reason a rejected line is not.

From the first line holding a ``"`` on, one ``csv.reader`` reads the rest
of the file, so a quoted field may hold the delimiter or span lines; its
records pass an inline accept test or go to ``_parse_row``.  A quote-free
line is one record, and its fields are the ones ``csv.reader`` would give.
A reject is numbered by the physical line its record starts on (the header
is line 1), and its ``raw`` text is the record's source lines without the
final line break.

The rows of one load share their label objects: a per-call dict maps each
field text to the first object parsed for its value (the block scan
decodes each distinct state and party byte string once), so the rows hold
one object per distinct year, state and party rather than three per row, and
``aggregate`` hashes strings whose hash is already cached.  The row loop
makes no reference cycles, so the cyclic garbage collector is paused for
it (if it was enabled) and restored after it, also when the load raises;
each accepted row is a tracked tuple, and the collector's passes would
otherwise walk the rows accepted so far again and again.

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
import gc
import io
import itertools
import logging
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AggregationError, ConfigError, DomainError, SchemaError, not_utf8
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

#: Bytes read at a time from the quote-free part of a returns file; a block
#: grows past this only to hold a longer line.
_BLOCK_BYTES = 1 << 20

#: The longest state or party text the block scan takes (longer ones go to
#: ``_parse_row``), which bounds its fixed-width label keys.
_LABEL_BYTES = 64


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
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(not_utf8(path, exc)) from None
        for line_no, raw in enumerate(lines, start=1):
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


class _Canonical(dict):
    """Field text -> its parsed value, one object per distinct value.

    A miss parses the text; the first object parsed for a value is stored
    under the value itself too, and every later equal value maps to it.
    """

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self.parse(text)
        value = self[text] = self.setdefault(value, value)
        return value


def _csv_records(lines, first: int, delimiter: str, source: list[str]):
    """Yield ``(start, fields)`` for each non-blank record ``csv.reader``
    reads from ``lines``, whose first line is physical line ``first``.

    ``source`` holds the lines of the record last yielded.  The reader
    yields ``[]`` for a blank line, so each record starts on the line after
    the previous one ended.
    """
    # list.append returns None, so filterfalse passes on every line it records.
    reader = csv.reader(itertools.filterfalse(source.append, lines), delimiter=delimiter)
    start = first
    for record in reader:
        if record:
            yield start, record
        start = first + reader.line_num
        source.clear()


def load_returns(path, config: Optional[SchemaConfig] = None) -> LoadResult:
    """Parse a delimited returns file.

    The delimiter (comma or tab) is detected from the header line.  A
    missing required column or text that is not UTF-8 raises
    ``SchemaError``; an unreadable file raises the underlying ``OSError``.
    Rows violating the row invariants (unparsable integers, negative votes,
    candidate votes above the race total, year outside the configured
    range) are returned in ``LoadResult.rejects`` with a reason.
    """
    config = config or SchemaConfig()
    try:
        with open(path, "rb") as stream:
            header_line, head = _header(stream)
            if not header_line:
                raise SchemaError(f"{path}: empty file, expected a header line")
            header_line = header_line.decode()
            delimiter = "\t" if "\t" in header_line else ","
            header = next(csv.reader(io.StringIO(header_line), delimiter=delimiter))
            header = [name.strip().lstrip("\ufeff") for name in header]
            missing = [c for c in config.required_columns() if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing} in header {header}")
            index = {name: header.index(name) for name in config.required_columns()}
            # The row loop makes no reference cycles, so pausing the collector
            # defers only its passes over the rows accepted so far.
            paused = gc.isenabled()
            gc.disable()
            try:
                return _load_rows(stream, head, delimiter, len(header), index, config)
            finally:
                if paused:
                    gc.enable()
    except UnicodeDecodeError as exc:
        raise SchemaError(not_utf8(path, exc)) from None


def _header(stream) -> tuple[bytes, bytes]:
    """The first line of ``stream`` with its line break, and the bytes read
    past it.  Nothing is read twice, so a pipe works as well as a file."""
    line = stream.readline()
    # readline stops at a \n only; a lone \r ends the line too.
    end = line.find(b"\r") + 1
    if 0 < end < len(line) and line[end] != ord("\n"):
        return line[:end], line[end:]
    return line, b""


def _blocks(stream, head: bytes):
    """Yield ``(buffer, size, held)``: ``head`` and then the rest of
    ``stream``, ``buffer[:size]`` at a time, each block ending with a line
    break (the file's last line may have none); ``buffer[size:held]`` holds
    the bytes read past the block.  One buffer of ``_BLOCK_BYTES`` is
    refilled, so no block is fresh memory; it grows only to hold a line
    longer than itself."""
    buffer = bytearray(_BLOCK_BYTES)
    buffer[: len(head)] = head
    held = len(head)
    while True:
        if held == len(buffer):
            buffer.extend(bytes(held))
        with memoryview(buffer) as view:
            read = stream.readinto(view[held:])
        held += read
        if not read:
            if held:
                yield buffer, held, held
            return
        # A \r that ends the bytes held may be the first half of a \r\n.
        cut = max(buffer.rfind(b"\n", 0, held), buffer.rfind(b"\r", 0, held - 1)) + 1
        if cut:
            yield buffer, cut, held
            buffer[: held - cut] = buffer[cut:held]
            held -= cut


class _Chained(io.RawIOBase):
    """``head``, then the rest of ``stream``, as one raw byte stream."""

    def __init__(self, head: bytes, stream):
        super().__init__()
        self.head, self.stream = memoryview(head), stream

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if not self.head:
            return self.stream.readinto(b)
        n = min(len(b), len(self.head))
        b[:n], self.head = self.head[:n], self.head[n:]
        return n


def _digits(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The int64 values of the fields ``a[lo:hi]``, and whether each field
    is 1-18 ASCII digits, a value an int64 holds."""
    size = hi - lo
    good = (size > 0) & (size <= 18)
    # Row k holds the digits of 10**k, read from the fields' right ends; the
    # uint8 subtraction wraps every byte below "0" above 9.
    place = np.arange(min(int(size.max(initial=0)), 18))[:, None]
    inside = place < size
    digits = a.take(hi - 1 - place, mode="clip") - np.uint8(48)
    good &= np.all((digits <= 9) | ~inside, axis=0)
    digits[~inside] = 0
    return 10 ** place[:, 0] @ digits.astype(np.int64), good


def _texts(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The fields ``a[lo:hi]`` of ASCII lines as fixed-width bytes, padded
    with 0xff (no ASCII byte) to one byte past the longest, so that no key
    ends in a NUL byte, which numpy would drop."""
    place = np.arange(int((hi - lo).max(initial=0)) + 1)[:, None]
    keys = np.where(place < hi - lo, a.take(lo + place, mode="clip"), np.uint8(255))
    return np.ascontiguousarray(keys.T).view(f"S{place.size}").ravel()


def _shared(keys: np.ndarray, canonical) -> list:
    """``canonical(key)`` for each of ``keys``, called once per distinct key.

    For the int64 years of a block this is faster than one ``canonical``
    call per key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    objects = np.array([canonical(key) for key in distinct.tolist()], dtype=object)
    return objects[inverse].tolist()


def _scan(block: bytearray, size: int, delimiter: str, width: int, columns: list[int],
          config: SchemaConfig, limit: int):
    """Cut ``block[:size]``, quote-free text, into lines and run the accept
    test over them at once.

    Returns each line's start and end offset (its line break included), the
    lines that pass, and those lines' year, state, party, candidate-vote and
    total-vote fields: the integers as int64, the texts as :func:`_texts`
    keys.  A line passes if it is ASCII, no longer than ``limit`` (csv's
    field limit), has ``width`` fields, its integers are 1-18 digits, its
    state and party texts at most ``_LABEL_BYTES`` long, and it passes
    ``_parse_row``'s checks.
    """
    a = np.frombuffer(block, np.uint8, size)
    breaks = a == 10
    if block.find(b"\r", 0, size) >= 0:  # a \r breaks a line too, unless a \n follows it
        lone = a == 13
        lone[:-1] &= ~breaks[1:]
        breaks |= lone
    ends = np.flatnonzero(breaks) + 1
    if not breaks[-1]:  # the file's last line, without a line break
        ends = np.append(ends, a.size)
    starts = np.concatenate(([0], ends[:-1]))
    # A line's text stops before its \n, \r or \r\n.
    crlf = (a[ends - 1] == 10) & (a.take(ends - 2, mode="clip") == 13)
    stops = ends - breaks[ends - 1] - crlf
    seps = np.flatnonzero(a == ord(delimiter))
    first = np.searchsorted(seps, starts)
    ok = (np.diff(first, append=seps.size) == width - 1) & (ends - starts <= limit)
    if a.max() >= 128:
        ok[np.searchsorted(ends, np.flatnonzero(a >= 128), side="right")] = False
    lines = np.flatnonzero(ok)
    seps_before = first[lines]

    def field(k):
        lo = starts[lines] if k == 0 else seps[seps_before + k - 1] + 1
        return lo, stops[lines] if k == width - 1 else seps[seps_before + k]

    years, states, parties, candidates, totals = map(field, columns)
    year, year_ok = _digits(a, *years)
    candidate, candidate_ok = _digits(a, *candidates)
    total, total_ok = _digits(a, *totals)
    keep = (year_ok & candidate_ok & total_ok & (config.year_min <= year)
            & (year <= config.year_max) & (candidate <= total) & (total > 0)
            & (states[1] - states[0] <= _LABEL_BYTES) & (parties[1] - parties[0] <= _LABEL_BYTES))
    values = (year[keep], _texts(a, states[0][keep], states[1][keep]),
              _texts(a, parties[0][keep], parties[1][keep]), candidate[keep], total[keep])
    return starts, ends, lines[keep], values


def _load_rows(stream, head: bytes, delimiter: str, width: int, index: dict[str, int],
               config: SchemaConfig) -> LoadResult:
    """The rows and rejects of the records after the header line: ``head``,
    the bytes read past the header, then the rest of ``stream``."""
    columns = [index[c] for c in config.required_columns()]
    year_min, year_max = config.year_min, config.year_max
    # tuple.__new__ builds the same ReturnsRow without a Python frame.
    new_row = functools.partial(tuple.__new__, ReturnsRow)
    years, labels = _Canonical(int), _Canonical(str.strip)
    # A _texts key -> the label object, decoded once per load.
    texts = _Canonical(lambda key: labels[key.rstrip(b"\xff").decode()])

    limit = csv.field_size_limit()
    rows: list[ReturnsRow] = []
    rejects: list[RejectedRow] = []

    def parse(record, line_number, raw):
        # _parse_row alone decides whether a record that failed the accept
        # test is a row, and names the reason when it is not.
        try:
            row = _parse_row(record, width, index, config)
        except ValueError as exc:
            rejects.append(RejectedRow(line_number, str(exc), raw))
        else:
            rows.append(row._replace(year=years[row.year], state=labels[row.state],
                                     party=labels[row.party]))

    # The quote-free lines are read in blocks, each cut before its first
    # line holding a '"'.  The lines of a block that pass the accept test
    # become rows in bulk; every other line, in file order, is decoded (a
    # line that is not UTF-8 raises here) and split on the delimiter for
    # _parse_row.  The first line holding a '"' or longer than csv's field
    # limit ends the blocks.
    line_number = 2
    for block, size, held in _blocks(stream, head):
        quote = block.find(b'"', 0, size)
        cut = size if quote < 0 else max(block.rfind(b"\n", 0, quote),
                                          block.rfind(b"\r", 0, quote)) + 1
        if cut:
            starts, ends, lines, values = _scan(block, cut, delimiter, width, columns, config,
                                                limit)
            year, state, party, candidate, total = values
            made = map(new_row, zip(_shared(year, years.__getitem__),
                                    map(texts.__getitem__, state.tolist()),
                                    map(texts.__getitem__, party.tolist()),
                                    candidate.tolist(), total.tolist()))
            accepted = np.zeros(ends.size, dtype=bool)
            accepted[lines] = True
            others = np.flatnonzero(~accepted)
            count, done = ends.size, 0
            for j, before, lo, hi in zip(others.tolist(), np.searchsorted(lines, others).tolist(),
                                          starts[others].tolist(), ends[others].tolist()):
                rows.extend(itertools.islice(made, before - done))
                done = before
                line = block[lo:hi].decode()
                if len(line) > limit:
                    cut, count = lo, j
                    break
                raw = line.rstrip("\r\n")
                if raw:
                    parse(raw.split(delimiter), line_number + j, raw)
            else:
                rows.extend(made)
            line_number += count
        if cut < size:
            break
    else:
        return LoadResult(rows=rows, rejects=rejects)

    # From that line on one csv.reader reads the rest, so a quoted field may
    # hold the delimiter or span lines.
    rest = io.TextIOWrapper(_Chained(block[cut:held], stream), encoding="utf-8", newline="")
    fields = operator.itemgetter(*columns)
    source: list[str] = []
    for line_number, record in _csv_records(rest, line_number, delimiter, source):
        # A file quoted throughout runs only this loop, and this inline copy
        # of the accept test takes its records in about half the time that
        # _parse_row and _replace take; _parse_row judges the rest.
        if len(record) == width:
            year, state, party, candidate, total = fields(record)
            try:
                year, candidate, total = years[year], int(candidate), int(total)
            except ValueError:
                pass
            else:
                if year_min <= year <= year_max and 0 <= candidate <= total and total > 0:
                    rows.append(new_row((year, labels[state], labels[party], candidate, total)))
                    continue
        parse(record, line_number, "".join(source[:-1]) + source[-1].rstrip("\r\n"))
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
            # A wrong number of cells fails the unpacking, a bad cell int() or float().
            try:
                year, dem, rep, other = line.split(",")
                years.append(int(year))
                rows.append([float(dem), float(rep), float(other)])
            except ValueError:
                raise SchemaError(f"malformed proportion row: {line!r}") from None
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

    # Sum per year and party first, then map each distinct label once.
    # Integer sums are exact, so the grouping order changes no proportion.
    sums: dict[int, dict[str, int]] = {}
    for year, _, party, votes, _ in rows:
        per_party = sums.get(year)
        if per_party is None:
            per_party = sums[year] = {}
        per_party[party] = per_party.get(party, 0) + votes
    totals: dict[int, dict[str, int]] = {}
    for year, per_party in sums.items():
        per_year = totals[year] = dict.fromkeys(_BUCKETS, 0)
        for party, votes in per_party.items():
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
