"""Ingestion of statewide senate returns into per-cycle vote proportions.

Reads a delimited returns file (defaults match the public MIT Election Lab
senate file: ``year, state_po, party_simplified, candidatevotes,
totalvotes``), validates each row, and aggregates candidate votes per
election-cycle year into national (dem, rep, other) proportions.  Malformed
rows are collected into a rejects report instead of being silently dropped.

Ingest is one pass over the file, which is read once from start to end (so
it may be a pipe), and each row is checked once.  The text after the header
is read in blocks of about 1 MiB cut at line breaks (``\\n``, ``\\r\\n`` or
a lone ``\\r``), and every block is read alike.  Its lines before the first
one holding a ``"`` (or longer than ``csv.field_size_limit()``) are
quote-free, and numpy finds their line breaks and delimiters and runs the
accept test over all of them at once.  An ASCII line with the header's field
count, year and vote fields of 1-18 ASCII digits that pass ``_parse_row``'s
range checks, and state and party texts of at most 64 bytes is accepted
with the other accepted lines of its block, as arrays.  Every other such
line (ragged, an integer with a sign, spaces, ``_`` or ``chr(0x1c)``, out
of range, non-ASCII, blank) is decoded, so text that is not UTF-8 fails
here, split on the delimiter and given, in file order, to ``_parse_row``.
``_parse_row`` has the last word, so the few spellings it accepts and the
scan does not (``+5``, ``' 12 '``, a 19-digit count) are still rows, and it
names the reason a rejected line is not.

From a block's first line holding a ``"``, ``csv.reader`` reads to the end
of the block, so a quoted field may hold the delimiter or span lines, and
on into later blocks only while a record is still open; the block after
that is scanned again.  ``_parse_row`` judges its records, so ``_scan``
and ``_parse_row`` are the only accept tests.  A quote-free line is one
record, and its fields are the ones ``csv.reader`` would give, so a load
is that of one ``csv.reader`` over the whole file.  A reject is numbered by the physical line its record
starts on (the header is line 1), and its ``raw`` text is the record's
source lines without the final line break.

The accepted rows of one load are a ``ReturnsRows``, a read-only sequence
of ``ReturnsRow`` named tuples held as columns, in file order: year, state
and party as int32 codes into per-load tuples of label objects (the block
scan decodes each distinct state and party byte string once per block),
and the vote counts as int64, or as Python ints where a count does not
fit.  No per-row object is made unless a row is asked for.

Aggregation maps each distinct party label to DEM/REP/OTHER once, sums
candidate votes per (year, bucket) in one grouped integer sum, exact also
past 2**63, and divides by the summed mapped-party votes of that year, so
each row of the resulting matrix sums to one by construction and no vote
is lost or double counted.  Special elections sharing a cycle year are
merged into that year's totals.  The configured year range defaults to
1976-2020, which contains 23 biennial cycles; the row count is surfaced
rather than assumed.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import AggregationError, ConfigError, DomainError, SchemaError, not_utf8

__all__ = [
    "SchemaConfig",
    "ReturnsRow",
    "ReturnsRows",
    "RejectedRow",
    "LoadResult",
    "ProportionMatrix",
    "DEFAULT_PARTY_MAPPING",
    "load_returns",
    "aggregate",
]

#: Labels not mapped to DEM or REP (write-ins, blanks, minor parties) all
#: land in OTHER.
DEFAULT_PARTY_MAPPING = {"DEMOCRAT": "DEM", "REPUBLICAN": "REP"}

_BUCKETS = ("DEM", "REP", "OTHER")

#: Floor applied to an exactly-zero proportion before renormalizing, so the
#: matrix stays strictly positive (negative-order weight policies need it).
ZERO_PROPORTION_FLOOR = 1e-9

#: Bytes read at a time from a returns file after its header; a block grows
#: past this only to hold a longer line.
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


class RejectedRow(NamedTuple):
    """A row that failed validation, kept for the rejects report.

    ``line_number`` is the physical line of the file the record starts on,
    and ``raw`` is the record's source text without its final line break.
    """

    line_number: int
    reason: str
    raw: str


class ReturnsRows(Sequence):
    """The accepted rows of one load, in file order, held as columns.

    A read-only sequence of :class:`ReturnsRow`: integer indexing and
    iteration build rows only when asked for them, with Python ``int`` and
    ``str`` fields.  Year, state and party are held as codes into per-load
    tuples of label objects, so equal labels are one object; the vote
    counts are int64, or Python ints where a count does not fit.
    """

    __slots__ = ("_labels", "_columns")

    def __init__(self, labels: tuple[tuple, tuple, tuple], columns: tuple[np.ndarray, ...]):
        self._labels = labels  # year, state and party label objects
        self._columns = columns  # year, state and party codes, candidate and total votes

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        index = operator.index(index)
        year, state, party, candidate, total = (column[index] for column in self._columns)
        years, states, parties = self._labels
        return ReturnsRow(years[year], states[state], parties[party], int(candidate), int(total))

    def __iter__(self):
        labels = (map(objects.__getitem__, codes.tolist())
                  for objects, codes in zip(self._labels, self._columns))
        votes = (column.tolist() for column in self._columns[3:])
        return map(ReturnsRow._make, zip(*labels, *votes))


class LoadResult(NamedTuple):
    rows: ReturnsRows
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


def _coded(keys: np.ndarray, codes: dict, label=None) -> np.ndarray:
    """The int32 code of each of ``keys``: ``codes`` maps a label to its
    code, and a new label gets the next one, in sorted order of the keys.
    ``label(key)`` is the label of a key, called once per distinct key.
    Only the first key of each run of equal keys is sorted, stably (asking
    for ``return_index`` makes ``np.unique`` merge sort, faster here)."""
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size])
    distinct, _, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
    labels = distinct.tolist() if label is None else map(label, distinct.tolist())
    table = np.array([codes.setdefault(x, len(codes)) for x in labels], dtype=np.int32)
    return np.repeat(table[inverse], np.diff(heads, append=keys.size))


def _votes(counts) -> np.ndarray:
    """``counts`` as int64, or as Python ints if one does not fit."""
    try:
        return np.array(counts, dtype=np.int64)
    except OverflowError:
        return np.array(counts, dtype=object)


class _Columns:
    """The accepted rows of one load, gathered in file order into the
    columns of a :class:`ReturnsRows`."""

    def __init__(self):
        # Year, state and party label -> its code, in order of first use.
        self.codes: tuple[dict, dict, dict] = ({}, {}, {})
        self.parts: list[list[np.ndarray]] = []  # the columns of the rows added, in pieces
        # Rows not in parts yet, added in file order as (line number, year,
        # state, party, candidate votes, total votes) tuples and kept flat:
        # a tuple per row would be a tracked object for the collector.
        self.pending: list = []
        self.add = self.pending.extend

    def extend(self, lines, year, state, party, candidate, total):
        """Add the rows a block scan accepted, at line numbers ``lines``,
        merged by line number with the rows added since the last call.
        ``year`` is int64 and ``state`` and ``party`` are :func:`_texts`
        keys, each decoded once."""
        def text(key):
            return key.rstrip(b"\xff").decode().strip()

        years, states, parties = self.codes
        part = [_coded(year, years), _coded(state, states, text), _coded(party, parties, text),
                candidate, total]
        if self.pending:
            added, more = self._take_pending()
            order = np.argsort(np.concatenate((lines, added)), kind="stable")
            part = [np.concatenate(pair)[order] for pair in zip(part, more)]
        self.parts.append(part)

    def _take_pending(self):
        """The line numbers and the columns of the pending rows."""
        line, *labels, candidate, total = (self.pending[k::6] for k in range(6))
        self.pending.clear()
        codes = [np.array([table.setdefault(x, len(table)) for x in column], dtype=np.int32)
                 for table, column in zip(self.codes, labels)]
        return line, codes + [_votes(candidate), _votes(total)]

    def finish(self) -> ReturnsRows:
        if self.pending:
            self.parts.append(self._take_pending()[1])
        empty = [np.empty(0, np.int32)] * 3 + [np.empty(0, np.int64)] * 2
        columns = tuple(np.concatenate(pieces) for pieces in zip(empty, *self.parts))
        return ReturnsRows(tuple(tuple(codes) for codes in self.codes), columns)


def _csv_records(lines, first: int, delimiter: str, source: list[str]):
    """Yield ``(start, fields)`` for each non-blank record ``csv.reader``
    reads from ``lines``, whose first line is physical line ``first``.

    ``source`` holds the lines of the record last yielded.  The reader
    yields ``[]`` for a blank line, so each record starts on the line after
    the previous one ended.  A ``csv.Error`` names its record's start line.
    """
    # list.append returns None, so filterfalse passes on every line it records.
    reader = csv.reader(itertools.filterfalse(source.append, lines), delimiter=delimiter)
    start = first
    try:
        for record in reader:
            if record:
                yield start, record
            start = first + reader.line_num
            source.clear()
    except csv.Error as exc:  # a field above csv.field_size_limit()
        raise csv.Error(f"{exc} at line {start}") from None


def load_returns(path, config: Optional[SchemaConfig] = None) -> LoadResult:
    """Parse a delimited returns file.

    The delimiter (comma or tab) is detected from the header line.  A
    missing required column, text that is not UTF-8 or a field longer than
    ``csv.field_size_limit()`` raises ``SchemaError``; an unreadable file
    raises the underlying ``OSError``.
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
            return _load_rows(stream, head, delimiter, len(header), index, config)
    except UnicodeDecodeError as exc:
        raise SchemaError(not_utf8(path, exc)) from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _header(stream) -> tuple[bytes, bytes]:
    """The first line of ``stream`` with its line break, and the bytes read
    past it.  Nothing is read twice, so a pipe works as well as a file."""
    line = stream.readline()
    # readline stops at a \n only; splitlines ends the line at a lone \r too.
    first = line.splitlines(True)[0] if line else line
    return first, line[len(first):]


def _blocks(stream, head: bytes):
    """Yield ``(buffer, size)``: ``head`` and then the rest of ``stream``,
    ``buffer[:size]`` at a time, each block ending with a line break (the
    file's last line may have none).  One buffer of ``_BLOCK_BYTES`` is
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
                yield buffer, held
            return
        # A \r that ends the bytes held may be the first half of a \r\n.
        cut = max(buffer.rfind(b"\n", 0, held), buffer.rfind(b"\r", 0, held - 1)) + 1
        if cut:
            yield buffer, cut
            buffer[: held - cut] = buffer[cut:held]
            held -= cut


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
    # Each delimiter and line break ends a field, and so does the end of a
    # last line without a line break; line i ends at marks[last[i]].
    marks = np.flatnonzero(breaks | (a == ord(delimiter)))
    last = np.flatnonzero(breaks[marks])
    if not breaks[-1]:
        marks = np.append(marks, size)
        last = np.append(last, marks.size - 1)
    ends = np.minimum(marks[last] + 1, size)
    starts = np.concatenate(([0], ends[:-1]))
    # A line's text stops before its \n, \r or \r\n.
    crlf = (a[ends - 1] == 10) & (a.take(ends - 2, mode="clip") == 13)
    stops = ends - breaks[ends - 1] - crlf
    ok = (np.diff(last, prepend=-1) == width) & (ends - starts <= limit)
    if a.max() >= 128:
        ok[np.searchsorted(ends, np.flatnonzero(a >= 128), side="right")] = False
    lines = np.flatnonzero(ok)
    first = last[lines] - (width - 1)  # the mark that ends each line's first field

    def field(k):
        lo = starts[lines] if k == 0 else marks[first + k - 1] + 1
        return lo, stops[lines] if k == width - 1 else marks[first + k]

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
    limit = csv.field_size_limit()
    rows = _Columns()
    rejects: list[RejectedRow] = []
    blocks = _blocks(stream, head)
    source: list[str] = []
    line_number = 2

    def parse(record, line_number, raw=None):
        # _parse_row decides whether a record _scan did not take is a row,
        # and names the reason when it is not.  A csv record's raw text is
        # joined from its source lines only when it is rejected.
        try:
            row = _parse_row(record, width, index, config)
        except ValueError as exc:
            if raw is None:
                raw = "".join(source[:-1]) + source[-1].rstrip("\r\n")
            rejects.append(RejectedRow(line_number, str(exc), raw))
        else:
            rows.add((line_number, *row))

    def rest(data):
        # Lines of data, then of each later block while csv.reader is inside a
        # record (it is between records when it asks for a line past a block's
        # end and source holds none), each decoded only as csv.reader reads it.
        nonlocal line_number
        while True:
            lines = data.splitlines(True)
            line_number += len(lines)
            yield map(bytearray.decode, lines)
            block = next(blocks, None) if source else None
            if block is None:
                return
            data = block[0][: block[1]]

    # Every block is read alike.  Its lines before the first one holding a
    # '"' are scanned: those that pass the accept test are added as columns;
    # every other line, in file order, is decoded (a line that is not UTF-8
    # raises here) and split on the delimiter for _parse_row, and a row it
    # accepts is placed among them by its line.  From the first line holding
    # a '"' or longer than csv's field limit, csv.reader reads to the end of
    # the block, so a quoted field may hold the delimiter or span lines, and
    # on into later blocks while a record is open.
    for block, size in blocks:
        quote = block.find(b'"', 0, size)
        cut = size if quote < 0 else max(block.rfind(b"\n", 0, quote),
                                          block.rfind(b"\r", 0, quote)) + 1
        if cut:
            starts, ends, lines, values = _scan(block, cut, delimiter, width, columns, config,
                                                limit)
            accepted = np.zeros(ends.size, dtype=bool)
            accepted[lines] = True
            others = np.flatnonzero(~accepted)
            count = ends.size
            for j, lo, hi in zip(others.tolist(), starts[others].tolist(), ends[others].tolist()):
                line = block[lo:hi].decode()
                if len(line) > limit:
                    cut, count = lo, j
                    break
                raw = line.rstrip("\r\n")
                if raw:
                    parse(raw.split(delimiter), line_number + j, raw)
            scanned = np.searchsorted(lines, count)
            rows.extend(line_number + lines[:scanned], *(column[:scanned] for column in values))
            line_number += count
        if cut == size:
            continue
        tail = itertools.chain.from_iterable(rest(block[cut:size]))
        for start, record in _csv_records(tail, line_number, delimiter, source):
            parse(record, start)
    return LoadResult(rows=rows.finish(), rejects=rejects)


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


def aggregate(rows: ReturnsRows) -> ProportionMatrix:
    """Aggregate validated rows into one proportion row per cycle year.

    ``rows`` is the :class:`ReturnsRows` of a load (``LoadResult.rows``),
    whose columns are summed as they are.  ``DEFAULT_PARTY_MAPPING`` sends
    party labels to ``DEM``/``REP``; every other label counts as ``OTHER``.
    A cycle whose mapped votes sum to zero raises ``AggregationError``.  An
    exactly-zero proportion is floored at ``ZERO_PROPORTION_FLOOR`` and the
    row renormalized, with a logged warning, so downstream weight policies
    stay in-domain.
    """
    if not rows:
        raise AggregationError("no rows to aggregate")

    # Map each distinct party label once, then sum the votes per year and
    # bucket.  Integer sums are exact, so the grouping changes no
    # proportion; int64 sums are exact while no sum can pass 2**63.
    (years, _, parties), (year, _, party, votes, _) = rows._labels, rows._columns
    bucket = np.array([_BUCKETS.index(DEFAULT_PARTY_MAPPING.get(p, "OTHER")) for p in parties],
                      dtype=np.intp)
    if votes.dtype != object and max(int(votes.max()), -int(votes.min())) * votes.size >= 1 << 63:
        votes = votes.astype(object)
    sums = np.zeros(3 * len(years), dtype=votes.dtype)
    np.add.at(sums, 3 * year.astype(np.intp) + bucket[party], votes)
    totals = sums.reshape(-1, 3).tolist()
    present = sorted(np.flatnonzero(np.bincount(year, minlength=len(years))).tolist(),
                     key=years.__getitem__)

    values = np.empty((len(present), 3))
    for i, code in enumerate(present):
        per_year = totals[code]
        year_total = sum(per_year)
        if year_total == 0:
            raise AggregationError(f"cycle {years[code]} has zero mapped votes")
        proportions = np.array([count / year_total for count in per_year])
        zero_mask = proportions == 0.0
        if np.any(zero_mask):
            floored = [b for b, z in zip(_BUCKETS, zero_mask) if z]
            import logging  # imported only to warn: a fresh process starts faster without it

            logging.getLogger(__name__).warning(
                "cycle %d has zero votes for %s; flooring at %g and renormalizing",
                years[code],
                ",".join(floored),
                ZERO_PROPORTION_FLOOR,
            )
            proportions = np.where(zero_mask, ZERO_PROPORTION_FLOOR, proportions)
            proportions = proportions / proportions.sum()
        values[i] = proportions
    return ProportionMatrix(years=tuple(years[code] for code in present), values=values)
