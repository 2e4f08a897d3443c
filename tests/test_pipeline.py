"""Tests for returns ingestion and per-cycle aggregation."""

import csv
import gc
import importlib.util
import io
import logging
import os
import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmle import (
    AggregationError,
    ConfigError,
    DomainError,
    SchemaError,
    aggregate,
    load_returns,
    to_weighted_dataset,
)
from wmle import pipeline
from wmle.pipeline import ProportionMatrix, ReturnsRow, SchemaConfig

from conftest import SCHEMA_HEADER, write_synthetic_returns


def write_file(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return str(path)


class TestSchemaConfig:
    def test_defaults_match_public_senate_file(self):
        config = SchemaConfig()
        assert config.required_columns() == (
            "year", "state_po", "party_simplified", "candidatevotes", "totalvotes"
        )
        assert (config.year_min, config.year_max) == (1976, 2020)

    def test_from_file(self, tmp_path):
        path = write_file(
            tmp_path / "schema.cfg",
            "# custom layout\nyear_column = yr\nparty_column= party\nyear_min=1980\n",
        )
        config = SchemaConfig.from_file(path)
        assert config.year_column == "yr"
        assert config.party_column == "party"
        assert config.year_min == 1980
        assert config.total_votes_column == "totalvotes"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_file(tmp_path / "schema.cfg", "not_a_key=1\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            SchemaConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_file(tmp_path / "schema.cfg", "year_column\n")
        with pytest.raises(ConfigError):
            SchemaConfig.from_file(path)


class TestLoadReturns:
    def test_header_only_file(self, tmp_path):
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n")
        result = load_returns(path)
        assert result.rows == []
        assert result.rejects == []

    def test_three_row_fixture_roundtrips(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,400,1000\n"
            "1976,AZ,REPUBLICAN,500,1000\n"
            "1978,CA,LIBERTARIAN,100,900\n",
        )
        result = load_returns(path)
        assert len(result.rows) == 3 and not result.rejects
        first = result.rows[0]
        assert (first.year, first.state, first.party) == (1976, "AZ", "DEMOCRAT")
        assert (first.candidate_votes, first.total_votes) == (400, 1000)
        assert result.rows[2].party == "LIBERTARIAN"

    def test_candidate_votes_above_total_rejected_with_reason(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,1200,1000\n",
        )
        result = load_returns(path)
        assert result.rows == []
        assert len(result.rejects) == 1
        assert "exceeds totalvotes" in result.rejects[0].reason
        assert result.rejects[0].line_number == 2

    def test_year_outside_range_rejected(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1974,AZ,DEMOCRAT,10,100\n1976,AZ,DEMOCRAT,10,100\n",
        )
        result = load_returns(path)
        assert len(result.rows) == 1
        assert len(result.rejects) == 1
        assert "outside configured range" in result.rejects[0].reason

    def test_unparsable_votes_rejected(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,NA,100\n",
        )
        result = load_returns(path)
        assert not result.rows
        assert "invalid integer" in result.rejects[0].reason

    def test_tab_delimited_detection(self, tmp_path):
        path = write_file(
            tmp_path / "r.tsv",
            SCHEMA_HEADER.replace(",", "\t") + "\n" + "1976\tAZ\tDEMOCRAT\t40\t100\n",
        )
        result = load_returns(path)
        assert len(result.rows) == 1
        assert result.rows[0].candidate_votes == 40

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_file(tmp_path / "r.csv", "year,state_po,candidatevotes,totalvotes\n")
        with pytest.raises(SchemaError, match="party_simplified"):
            load_returns(path)

    def test_unreadable_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_returns(tmp_path / "missing.csv")

    def test_blank_party_kept(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1976,AZ,,25,100\n",
        )
        result = load_returns(path)
        assert result.rows[0].party == ""

    def test_synthetic_fixture_parses_clean(self, synthetic_returns_csv):
        result = load_returns(synthetic_returns_csv)
        assert result.rejects == []
        assert len(result.rows) > 0

    def test_extra_columns_and_quoted_fields(self, tmp_path):
        # the public file carries many more columns; required ones are
        # picked by name, quoted fields with commas must survive
        path = write_file(
            tmp_path / "r.csv",
            "year,state,state_po,office,candidate,party_detailed,"
            "candidatevotes,totalvotes,party_simplified\n"
            '1976,ARIZONA,AZ,US SENATE,"DOE, JANE",DEMOCRAT,400,1000,DEMOCRAT\n'
            '1976,ARIZONA,AZ,US SENATE,"ROE, RON",REPUBLICAN,600,1000,REPUBLICAN\n',
        )
        result = load_returns(path)
        assert len(result.rows) == 2 and not result.rejects
        assert result.rows[0].candidate_votes == 400
        assert result.rows[1].party == "REPUBLICAN"


    def test_reject_line_numbers_are_physical_lines(self, tmp_path):
        # The quoted name spans lines 2-3, so the bad record is on line 4,
        # and the last record starts on line 5 and ends on line 6.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            '1976,AZ,"DOE\nJANE",10,100\n'
            "1976,AZ,DEMOCRAT,x,100\n"
            '1976,AZ,"A\r\nB",y,100\n',
        )
        result = load_returns(path)
        assert [row.party for row in result.rows] == ["DOE\nJANE"]
        assert [r.line_number for r in result.rejects] == [4, 5]

    def test_zero_over_zero_votes_rejected(self, tmp_path):
        # 0 <= candidate <= total holds for 0/0; the total must be positive
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,0,0\n")
        result = load_returns(path)
        assert result.rows == []
        assert [(r.line_number, r.reason) for r in result.rejects] == [
            (2, "non-positive totalvotes 0")
        ]

    def test_reject_raw_is_the_source_text(self, tmp_path):
        # A quoted record keeps its quotes and inner line break; a quote-free
        # record is its line without the terminator, before and after it.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\r\n"
            "1976,AZ,DEMOCRAT,x,100\r\n"
            '1976,AZ,"DOE\nJANE",x,100\r\n'
            '1976,AZ,"DOE, JANE",x,100\r'
            "1976,AZ,DEMOCRAT,x,100",
        )
        result = load_returns(path)
        assert [(r.line_number, r.raw) for r in result.rejects] == [
            (2, "1976,AZ,DEMOCRAT,x,100"),
            (3, '1976,AZ,"DOE\nJANE",x,100'),
            (5, '1976,AZ,"DOE, JANE",x,100'),
            (6, "1976,AZ,DEMOCRAT,x,100"),
        ]

    def test_rows_are_immutable_named_tuples(self, tmp_path):
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n1976, AZ ,DEMOCRAT, 40 ,100\n")
        (row,) = load_returns(path).rows
        assert row == ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100)
        with pytest.raises(AttributeError):
            row.candidate_votes = 41


_COLUMNS = ("year", "state_po", "party_simplified", "candidatevotes", "totalvotes", "office")
_INTEGER_TEXTS = (" 12 ", "+5", "1_000", "\x1c5", "12x", "-3", "0", "1\n0")
_YEAR_TEXTS = ("1975", "1976", "2020", "2021", " 1976 ", "\x1c2020", "1976x", "19\r\n76")
#: The line breaks of a file opened with newline="" (str.splitlines would
#: also split at "\x1c").
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _quoted(cell):
    return f'"{cell}"' if "\n" in cell or "\r" in cell else cell


@st.composite
def _returns_files(draw):
    """A header over the required columns (maybe plus one more, in any
    order) and records that are valid, malformed, ragged or blank; a
    field may be quoted and span lines."""
    columns = draw(st.permutations(_COLUMNS[: draw(st.sampled_from((5, 6)))]))
    delimiter = draw(st.sampled_from((",", "\t")))
    cells = {
        "year": st.sampled_from(_YEAR_TEXTS),
        "state_po": st.sampled_from(("AZ", " CA ", "", "A\nZ")),
        "party_simplified": st.sampled_from(("DEMOCRAT", " REPUBLICAN", "GREEN", "", "DOE\r\n\nJANE")),
        "candidatevotes": st.sampled_from(_INTEGER_TEXTS),
        "totalvotes": st.sampled_from(_INTEGER_TEXTS),
        "office": st.just("US SENATE"),
    }
    record = st.fixed_dictionaries({c: cells[c] for c in columns}).map(
        lambda fields: [fields[c] for c in columns]
    )
    ragged = st.tuples(record, st.sampled_from((-1, 1))).map(
        lambda pair: pair[0][:-1] if pair[1] < 0 else pair[0] + ["7"]
    )
    records = draw(st.lists(st.one_of(record, record, ragged, st.just([])), max_size=25))
    return columns, delimiter, records


class TestLoadReturnsMatchesParseRow:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=_returns_files())
    def test_rows_and_rejects_match_parse_row_on_every_record(self, tmp_path_factory, drawn):
        columns, delimiter, records = drawn
        # A reject is numbered by the physical line its record starts on.
        text = delimiter.join(columns) + "\n"
        starts = []
        for record in records:
            starts.append(1 + len(_LINE_BREAK.findall(text)))
            text += delimiter.join(map(_quoted, record)) + "\n"
        path = write_file(tmp_path_factory.mktemp("returns") / "r.csv", text)
        config = SchemaConfig()
        index = {name: columns.index(name) for name in config.required_columns()}
        rows, rejects = [], []
        for line_number, record in zip(starts, records):
            if not record:
                continue
            try:
                rows.append(pipeline._parse_row(record, len(columns), index, config))
            except ValueError as exc:
                rejects.append((line_number, str(exc), delimiter.join(map(_quoted, record))))
        result = load_returns(path, config)
        assert result.rows == rows
        assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects


def _whole_file_csv_reference(path, config):
    """``load_returns`` as one ``csv.reader`` over the whole file: rows and
    ``(line_number, reason)`` of each reject, a reject numbered by the line
    its record starts on (``reader.line_num`` minus the line breaks inside
    its fields)."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header_line = handle.readline()
        delimiter = "\t" if "\t" in header_line else ","
        header = next(csv.reader(io.StringIO(header_line), delimiter=delimiter))
        header = [name.strip().lstrip("\ufeff") for name in header]
        index = {name: header.index(name) for name in config.required_columns()}
        rows, rejects = [], []
        reader = csv.reader(handle, delimiter=delimiter)
        for record in reader:
            if not record:
                continue
            try:
                rows.append(pipeline._parse_row(record, len(header), index, config))
            except ValueError as exc:
                breaks = sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in record)
                rejects.append((reader.line_num + 1 - breaks, str(exc)))
    return rows, rejects


#: Cells as they appear in the file.  A line holding a ``"`` sends the
#: rest of the file to csv.reader, so these mix quote-free cells with
#: quoted ones (holding either delimiter, a doubled quote or a line break)
#: and with a ``"`` inside an unquoted cell.
_SOURCE_TEXTS = ("AZ", " CA ", "", '"AZ"', '"DOE, JANE"', '"DOE\tJANE"', 'DO"E', '"A""B"',
                 '"AB"C', '"DOE\nJANE"', '"DOE\r\nJANE"', '"A\rB"')
_SOURCE_INTEGERS = ("12", " 40 ", "0", "-3", "12x", '"25"', '" 7 "', '"1\n0"', 'x"1')
_SOURCE_YEARS = ("1976", "2020", "2021", '"1976"', '"19\r\n76"')


@st.composite
def _source_files(draw):
    """``(text, delimiter, sources)``: a returns file over the required
    columns, and the start line -> source text (terminator dropped) of each
    non-blank record.  Records end in ``\n``, ``\r\n`` or ``\r``; the
    last one may have no terminator."""
    delimiter = draw(st.sampled_from((",", "\t")))
    columns = SCHEMA_HEADER.split(",")
    texts = dict(zip(columns, (_SOURCE_YEARS, _SOURCE_TEXTS, _SOURCE_TEXTS,
                               _SOURCE_INTEGERS, _SOURCE_INTEGERS)))
    cells = {c: st.sampled_from(t) for c, t in texts.items()}
    quote_free = {c: st.sampled_from([text for text in t if '"' not in text])
                  for c, t in texts.items()}

    def records(strategies):
        record = st.fixed_dictionaries(strategies).map(lambda f: [f[c] for c in columns])
        ragged = record.map(lambda r: r[:-1])
        return st.one_of(record, record, ragged, st.just(None)).map(
            lambda r: "" if r is None else delimiter.join(r))

    # A quote-free prefix, then records that may hold quotes.
    lines = draw(st.lists(records(quote_free), max_size=8))
    lines += draw(st.lists(records(cells), max_size=12))
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    text = delimiter.join(columns) + "\n"
    sources = {}
    for line, end in zip(lines, ends):
        if line:
            sources[1 + len(_LINE_BREAK.findall(text))] = line
        text += line + end
    return text, delimiter, sources


class TestSplitPathMatchesWholeFileReader:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=_source_files())
    def test_rows_and_rejects_match_the_whole_file_reader(self, tmp_path_factory, drawn):
        text, delimiter, sources = drawn
        path = write_file(tmp_path_factory.mktemp("returns") / "r.csv", text)
        config = SchemaConfig()
        rows, rejects = _whole_file_csv_reference(path, config)
        result = load_returns(path, config)
        assert result.rows == rows
        assert [(r.line_number, r.reason) for r in result.rejects] == rejects
        assert [r.raw for r in result.rejects] == [sources[r.line_number] for r in result.rejects]

    def test_a_line_longer_than_the_field_limit_goes_to_csv_reader(self, tmp_path):
        # csv.reader raises on a field above its limit; a quote-free line
        # longer than the limit is left to it, so the error still comes.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,10,100\n1976,AZ,DEMOCRATDEMOCRATDEMOCRAT,10,100\n",
        )
        limit = csv.field_size_limit(20)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                load_returns(path)
        finally:
            csv.field_size_limit(limit)


def _four_ways(tmp_path):
    """The synthetic returns, plus malformed records and one row only
    ``_parse_row`` accepts, written with LF and CRLF line breaks, with
    every field quoted, and with the first ``"`` halfway down."""
    write_synthetic_returns(tmp_path / "synthetic.csv")
    with open(tmp_path / "synthetic.csv", encoding="utf-8", newline="") as handle:
        lines = handle.read().rstrip("\n").split("\n")
    lines[5:5] = ["1976,AZ,DEMOCRAT,x,100", "2022,AZ,DEMOCRAT,1,100", "\x1c1976,AZ,GREEN,1,100"]
    lines[400:400] = ["1990,OH,DEMOCRAT,5", "1990,OH,DEMOCRAT,-5,100", "", "1990,OH,REPUBLICAN,9,8"]
    records = [line.split(",") if line else [] for line in lines]
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(records)
    middle = len(lines) // 2
    halfway = lines[:middle] + ['"{}",{}'.format(*lines[middle].split(",", 1))] + lines[middle + 1:]
    texts = {
        "lf": "\n".join(lines) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "quoted": quoted.getvalue(),
        "halfway": "\n".join(halfway) + "\n",
    }
    return {name: write_file(tmp_path / f"{name}.csv", text) for name, text in texts.items()}


class TestBothRecordSourcesAgree:
    def test_four_spellings_of_one_file_load_alike(self, tmp_path):
        loads = {name: load_returns(path) for name, path in _four_ways(tmp_path).items()}
        lf = loads.pop("lf")
        assert len(lf.rows) == 556 + 1
        assert [(r.line_number, r.reason) for r in lf.rejects] == [
            (6, "invalid integer for candidatevotes: 'x'"),
            (7, "year 2022 outside configured range 1976-2020"),
            (401, "expected 5 fields, got 4"),
            (402, "negative candidatevotes -5"),
            (404, "candidatevotes 9 exceeds totalvotes 8"),
        ]
        for name, other in loads.items():
            assert other.rows == lf.rows, name
            assert ([(r.line_number, r.reason) for r in other.rejects]
                    == [(r.line_number, r.reason) for r in lf.rejects]), name
            assert aggregate(other.rows).to_csv() == aggregate(lf.rows).to_csv(), name

    def test_equal_labels_within_one_load_are_one_object(self, tmp_path):
        for name, path in _four_ways(tmp_path).items():
            rows = load_returns(path).rows
            for field in ("year", "state", "party"):
                values = [getattr(row, field) for row in rows]
                assert len({id(v) for v in values}) == len(set(values)), (name, field)
            # rows[4] is the row only _parse_row accepts.
            assert rows[4].party == "GREEN"
            assert rows[4].year is rows[0].year and rows[4].state is rows[0].state


@pytest.fixture
def collector():
    """Sets the collector's state for one test and restores it after."""
    before = gc.isenabled()
    yield lambda enabled: (gc.enable if enabled else gc.disable)()
    (gc.enable if before else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, synthetic_returns_csv, collector, enabled):
        collector(enabled)
        load_returns(synthetic_returns_csv)
        assert gc.isenabled() is enabled

    def test_collector_state_is_restored_when_the_load_raises(self, tmp_path, collector):
        # The bad byte lies past the first 8 KiB read, so decoding fails
        # inside the row loop.
        path = tmp_path / "r.csv"
        path.write_bytes((SCHEMA_HEADER + "\n" + "1976,AZ,DEMOCRAT,40,100\n" * 2000).encode()
                         + b"1976,AZ,D\xe9MOCRAT,40,100\n")
        collector(True)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text")):
            load_returns(path)
        assert gc.isenabled()



def _load_at(monkeypatch, path, block_bytes):
    """``load_returns(path)`` with the quote-free scan reading
    ``block_bytes`` at a time."""
    monkeypatch.setattr(pipeline, "_BLOCK_BYTES", block_bytes)
    return load_returns(path)


def _summary(result):
    """Rows, rejects, and which rows share each year, state and party
    object (by the index of the first row holding it)."""
    sharing = {}
    for field in ("year", "state", "party"):
        first = {}
        sharing[field] = [first.setdefault(id(getattr(row, field)), i)
                          for i, row in enumerate(result.rows)]
    rejects = [(r.line_number, r.reason, r.raw) for r in result.rejects]
    return result.rows, rejects, sharing


def _perfbench_gen(monkeypatch):
    """The benchmark's input generator, ``perfbench/gen.py``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestBlockScan:
    @pytest.mark.parametrize("block_bytes", [1, 7, 64])
    def test_tiny_blocks_load_as_the_default_size(self, tmp_path, monkeypatch, block_bytes):
        for name, path in _four_ways(tmp_path).items():
            default = _summary(load_returns(path))
            assert _summary(_load_at(monkeypatch, path, block_bytes)) == default, name
            monkeypatch.undo()
            rows = default[0]
            for field in ("year", "state", "party"):
                values = [getattr(row, field) for row in rows]
                assert len(set(default[2][field])) == len(set(values)), (name, field)

    @pytest.mark.parametrize("body", [
        # A \r\n, a lone \r, a blank line and a rejected row, each of which
        # lands on a block end at some block size.
        "1976,AZ,DEMOCRAT,40,100\r\n1976,AZ,REPUBLICAN,50,100\r\n\r\n1976,CA,GREEN,x,9\r\n",
        "1976,AZ,DEMOCRAT,40,100\r1976,AZ,REPUBLICAN,50,100\r\r1976,CA,GREEN,x,9\r",
        "1976,AZ,DEMOCRAT,40,100\n\r\n1976,AZ,REPUBLICAN,50,100\r\r\n1978,CA,GREEN,7,9\n",
        # The last line has no terminator.
        "1976,AZ,DEMOCRAT,40,100\n1976,CA,GREEN,7,9",
        "1976,AZ,DEMOCRAT,40,100\n1976,CA,GREEN,x,9\r",
        # The first '"' lies in a later block; csv.reader reads from its line.
        "1976,AZ,DEMOCRAT,40,100\n1976,AZ,REPUBLICAN,x,100\n1978,\"C\nA\",GREEN,7,9\n1978,CA,LIB,y,9",
    ])
    def test_every_block_size_loads_alike(self, tmp_path, monkeypatch, body):
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)
        want = _summary(load_returns(path))
        rows, rejects = _whole_file_csv_reference(path, SchemaConfig())
        assert want[0] == rows
        assert [r[:2] for r in want[1]] == rejects
        for block_bytes in range(1, len(body.encode()) + 2):
            assert _summary(_load_at(monkeypatch, path, block_bytes)) == want, block_bytes

    def test_a_bad_byte_in_a_later_block_is_a_schema_error(self, tmp_path, monkeypatch, collector):
        # The bad byte is in a column the rows do not keep.
        path = tmp_path / "r.csv"
        path.write_bytes((SCHEMA_HEADER + ",office\n" + "1976,AZ,DEMOCRAT,40,100,SENATE\n" * 3000).encode()
                         + b"1976,AZ,DEMOCRAT,40,100,S\xe9NATE\n" + b"1976,AZ,DEMOCRAT,40,100,SENATE\n" * 10)
        collector(True)
        message = re.escape(f"{path}: not UTF-8 text (byte 0xe9: invalid continuation byte)")
        for block_bytes in (100, 4096, 1 << 20):
            with pytest.raises(SchemaError, match=f"^{message}$"):
                _load_at(monkeypatch, path, block_bytes)
            assert gc.isenabled()

    def test_rows_only_parse_row_accepts(self, tmp_path, monkeypatch):
        # A label padded with U+00A0 (stripped as whitespace), 19-digit
        # counts (9234567890123456789 is more than an int64 holds) and a
        # signed count.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,\xa0AZ\xa0,DEMOCRAT,40,100\n"
            "1976,AZ,\xa0DEMOCRAT,1234567890123456789,9234567890123456789\n"
            "1976,AZ,REPUBLICAN,+5,100\n"
            "1976,AZ,REPUBLICAN,9234567890123456789,100\n",
        )
        for block_bytes in (16, 1 << 20):
            result = _load_at(monkeypatch, path, block_bytes)
            assert result.rows == [
                ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100),
                ReturnsRow(1976, "AZ", "DEMOCRAT", 1234567890123456789, 9234567890123456789),
                ReturnsRow(1976, "AZ", "REPUBLICAN", 5, 100),
            ]
            assert result.rows[0].state is result.rows[1].state
            assert result.rows[0].party is result.rows[1].party
            assert [(r.line_number, r.reason) for r in result.rejects] == [
                (5, "candidatevotes 9234567890123456789 exceeds totalvotes 100")
            ]

    def test_tab_delimited_file(self, tmp_path, monkeypatch):
        path = write_file(
            tmp_path / "r.tsv",
            SCHEMA_HEADER.replace(",", "\t") + "\n"
            "1976\tAZ\tDEMOCRAT\t40\t100\n"
            "1976\tAZ, CA\tREPUBLICAN\t50\t100\n"
            "1976\tAZ\tGREEN\t5\n",
        )
        for block_bytes in (9, 1 << 20):
            result = _load_at(monkeypatch, path, block_bytes)
            assert result.rows == [ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100),
                                   ReturnsRow(1976, "AZ, CA", "REPUBLICAN", 50, 100)]
            assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == [
                (4, "expected 5 fields, got 4", "1976\tAZ\tGREEN\t5")
            ]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("block_bytes", [7, 1 << 20])
    def test_a_pipe_loads_as_the_file_it_carries(self, tmp_path, monkeypatch, block_bytes):
        # A pipe cannot seek, so nothing read may be read again; the
        # "halfway" file hands over to csv.reader in the middle of a block.
        fifo = tmp_path / "returns.pipe"
        os.mkfifo(fifo)
        for name, path in _four_ways(tmp_path).items():
            want = _summary(_load_at(monkeypatch, path, block_bytes))
            with open(path, "rb") as handle:
                data = handle.read()
            writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
            writer.start()
            try:
                assert _summary(load_returns(fifo)) == want, name
            finally:
                writer.join(timeout=60)
            monkeypatch.undo()

    def test_a_header_ended_by_a_lone_cr(self, tmp_path, monkeypatch):
        body = "1976,AZ,DEMOCRAT,40,100\r1976,AZ,REPUBLICAN,x,100\r1976,AZ,GREEN,7,9\r"
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\r" + body)
        want = _summary(load_returns(write_file(tmp_path / "lf.csv",
                                                SCHEMA_HEADER + "\n" + body.replace("\r", "\n"))))
        for block_bytes in (5, 1 << 20):
            assert _summary(_load_at(monkeypatch, path, block_bytes)) == want

    def test_generated_precinct_file_matches_the_whole_file_reader(self, tmp_path, monkeypatch):
        generated = _perfbench_gen(monkeypatch).returns_file(5, races_per_cycle=6, precincts=2,
                                                  zero_other_cycle=True)
        path = write_file(tmp_path / "precinct.csv", generated.text)
        config = SchemaConfig()
        rows, rejects = _whole_file_csv_reference(path, config)
        result = load_returns(path, config)
        assert result.rows == rows and len(rows) == generated.valid_rows
        assert [(r.line_number, r.reason) for r in result.rejects] == rejects
        assert [r.line_number for r in result.rejects] == generated.reject_lines


class TestAggregate:
    def test_single_state_single_year(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,60,100\n"
            "1976,AZ,REPUBLICAN,30,100\n"
            "1976,AZ,GREEN,10,100\n",
        )
        matrix = aggregate(load_returns(path).rows)
        assert matrix.years == (1976,)
        np.testing.assert_allclose(matrix.values[0], [0.6, 0.3, 0.1], atol=1e-15)

    def test_two_states_pool_votes(self, tmp_path, caplog):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,60,100\n"
            "1976,AZ,REPUBLICAN,40,100\n"
            "1976,CA,DEMOCRAT,40,100\n"
            "1976,CA,REPUBLICAN,60,100\n",
        )
        with caplog.at_level(logging.WARNING):
            matrix = aggregate(load_returns(path).rows)
        assert matrix.values[0, 0] == pytest.approx(0.5, abs=1e-9)
        # OTHER got no votes: floored at a tiny epsilon and renormalized
        assert 0.0 < matrix.values[0, 2] < 1e-8
        assert matrix.values[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert any("flooring" in message for message in caplog.messages)

    def test_unmapped_labels_fall_into_other(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,50,100\n"
            "1976,AZ,WRITE-IN,25,100\n"
            "1976,AZ,,25,100\n",
        )
        matrix = aggregate(load_returns(path).rows)
        np.testing.assert_allclose(matrix.values[0], [0.5, 1e-9, 0.5], atol=1e-8)

    def test_rows_sum_to_one_before_flooring(self, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        np.testing.assert_allclose(matrix.values.sum(axis=1), 1.0, atol=1e-12)

    def test_synthetic_fixture_has_23_biennial_cycles(self, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        assert matrix.n_cycles == 23
        assert matrix.years == tuple(range(1976, 2021, 2))

    def test_vote_conservation(self, synthetic_returns_csv):
        rows = load_returns(synthetic_returns_csv).rows
        per_year_total = {}
        for row in rows:
            per_year_total[row.year] = per_year_total.get(row.year, 0) + row.candidate_votes
        matrix = aggregate(rows)
        # proportions are mapped-party sums over the summed candidate votes,
        # so reconstructing the numerators must recover every vote
        for year, proportions in zip(matrix.years, matrix.values):
            reconstructed = proportions.sum() * per_year_total[year]
            assert reconstructed == pytest.approx(per_year_total[year], rel=1e-12)

    def test_row_order_does_not_change_the_csv(self, synthetic_returns_csv):
        rows = load_returns(synthetic_returns_csv).rows
        shuffled = list(rows)
        random.Random(11).shuffle(shuffled)
        assert shuffled != rows
        assert aggregate(shuffled).to_csv() == aggregate(rows).to_csv()

    def test_explicit_other_mapping_equals_unmapped(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,50,100\n"
            "1976,AZ,REPUBLICAN,30,100\n"
            "1976,AZ,GREEN,15,100\n"
            "1976,AZ,LIBERTARIAN,5,100\n",
        )
        rows = load_returns(path).rows
        explicit = aggregate(rows, party_mapping={**pipeline.DEFAULT_PARTY_MAPPING, "GREEN": "OTHER"})
        unmapped = aggregate(rows)
        assert explicit.values.tobytes() == unmapped.values.tobytes()
        assert explicit.to_csv() == unmapped.to_csv()

    def test_bad_mapping_target_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([], party_mapping={"DEMOCRAT": "BLUE"})

    def test_no_rows_is_aggregation_error(self):
        with pytest.raises(AggregationError):
            aggregate([])

    def test_deterministic_csv_bytes(self, synthetic_returns_csv):
        first = aggregate(load_returns(synthetic_returns_csv).rows).to_csv()
        second = aggregate(load_returns(synthetic_returns_csv).rows).to_csv()
        assert first == second


class TestProportionMatrix:
    def test_csv_roundtrip_is_stable(self, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        text = matrix.to_csv()
        parsed = ProportionMatrix.from_csv(text)
        assert parsed.years == matrix.years
        np.testing.assert_allclose(parsed.values, matrix.values, rtol=1e-11)
        # 12 significant digits are idempotent: a second serialization is
        # byte-identical to the first
        assert parsed.to_csv() == text

    def test_header_enforced(self):
        with pytest.raises(SchemaError):
            ProportionMatrix.from_csv("a,b,c,d\n1976,0.5,0.4,0.1\n")

    def test_three_columns_enforced(self):
        with pytest.raises(DomainError):
            ProportionMatrix(years=(1976,), values=np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("row", ["19x6,0.5,0.4,0.1", "1976,0.5,abc,0.1", "1976,0.5,0.4"])
    def test_malformed_row_is_a_schema_error(self, row):
        with pytest.raises(SchemaError, match="malformed proportion row"):
            ProportionMatrix.from_csv(f"year,dem,rep,other\n1974,0.5,0.4,0.1\n{row}\n")


class TestToWeightedDataset:
    def test_unit_weights(self, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        data = to_weighted_dataset(matrix)
        assert data.observations.shape == (23, 3)
        assert data.total_weight == pytest.approx(23.0)
        np.testing.assert_array_equal(data.weights, np.ones(23))

    def test_empty_matrix_rejected(self):
        empty = ProportionMatrix(years=(), values=np.empty((0, 3)))
        with pytest.raises(DomainError):
            to_weighted_dataset(empty)
