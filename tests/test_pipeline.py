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
import tracemalloc
from collections.abc import Sequence

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
)
from wmle import pipeline
from wmle.cli import _load_numeric_matrix
from wmle.pipeline import ProportionMatrix, ReturnsRow, ReturnsRows, SchemaConfig

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
        assert list(result.rows) == []
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
        assert list(result.rows) == []
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
        assert list(result.rows) == []
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

    def test_rows_are_a_read_only_sequence(self, tmp_path):
        # Only _parse_row accepts "+5"; "x" is a reject.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,40,100\n"
            "1976,AZ,REPUBLICAN,50,100\n"
            "1978,CA,GREEN,+5,90\n"
            "1978,CA,GREEN,x,90\n"
            "1978,CA,DEMOCRAT,60,90\n",
        )
        rows = load_returns(path).rows
        want = [ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100), ReturnsRow(1976, "AZ", "REPUBLICAN", 50, 100),
                ReturnsRow(1978, "CA", "GREEN", 5, 90), ReturnsRow(1978, "CA", "DEMOCRAT", 60, 90)]
        assert isinstance(rows, ReturnsRows) and isinstance(rows, Sequence)
        assert len(rows) == 4
        assert [rows[i] for i in range(-4, 4)] == want + want
        for index in (4, -5):
            with pytest.raises(IndexError):
                rows[index]
        assert list(rows) == want and list(reversed(rows)) == want[::-1]
        assert rows.index(want[2]) == 2 and want[3] in rows
        for row in [*rows, *(rows[i] for i in range(4))]:
            assert type(row) is ReturnsRow
            assert [type(value) for value in row] == [int, str, str, int, int]
            with pytest.raises(AttributeError):
                row.year = 1980
        with pytest.raises(TypeError):
            rows[0] = want[0]
        for key in ("year", slice(1, 3)):
            with pytest.raises(TypeError):
                rows[key]
        assert not hasattr(rows, "append")

    def test_a_load_retains_at_most_64_bytes_a_row(self, tmp_path, monkeypatch):
        generated = _perfbench_gen(monkeypatch).returns_file(3, races_per_cycle=33, precincts=8)
        path = write_file(tmp_path / "precinct.csv", generated.text)
        load_returns(path)  # imports and caches filled before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = load_returns(path)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.rows) == generated.valid_rows > 20_000
        assert retained <= 64 * len(result.rows)


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
        assert list(result.rows) == rows
        assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects


def _whole_file_csv_reference(path, config):
    """``load_returns`` as one ``csv.reader`` over the whole file: rows and
    ``(line_number, reason, raw)`` of each reject, a reject numbered by the
    physical line its record starts on (the line after the previous
    record's last) and ``raw`` its lines without the final line break."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.readlines()
    delimiter = "\t" if "\t" in lines[0] else ","
    header = next(csv.reader(lines[:1], delimiter=delimiter))
    header = [name.strip().lstrip("\ufeff") for name in header]
    index = {name: header.index(name) for name in config.required_columns()}
    rows, rejects = [], []
    reader = csv.reader(lines[1:], delimiter=delimiter)
    start = 2
    for record in reader:
        if record:
            try:
                rows.append(pipeline._parse_row(record, len(header), index, config))
            except ValueError as exc:
                end = reader.line_num + 1
                raw = "".join(lines[start - 1 : end - 1]) + lines[end - 1].rstrip("\r\n")
                rejects.append((start, str(exc), raw))
        start = reader.line_num + 2
    return rows, rejects


#: Cells as they appear in the file: quote-free cells, simply quoted ones
#: (``""`` too), quoted ones holding either delimiter, a doubled quote or a
#: line break, cells with a ``"`` inside or after their text, and a lone
#: ``"``, which opens a field that may run on to the end of the file.
_SOURCE_TEXTS = ("AZ", " CA ", "", '"AZ"', '""', '" CA "', '"DOE, JANE"', '"DOE\tJANE"', 'DO"E',
                 '"A""B"', '"AB"C', '"DOE\nJANE"', '"DOE\r\nJANE"', '"A\rB"', '"A"B"', '"')
_SOURCE_INTEGERS = ("12", " 40 ", "0", "-3", "12x", '"25"', '""', '" 7 "', '"1\n0"', 'x"1',
                    '"1,2"', '"')
_SOURCE_YEARS = ("1976", "2020", "2021", '"1976"', '"2020"', '"19\r\n76"')


@st.composite
def _source_files(draw):
    """``(text, delimiter)``: a returns file over the required columns.
    Records end in ``\n``, ``\r\n`` or ``\r``; the last one may have no
    terminator."""
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
    text = delimiter.join(columns) + "\n" + "".join(map("".join, zip(lines, ends)))
    return text, delimiter


class TestSplitPathMatchesWholeFileReader:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=_source_files())
    def test_rows_and_rejects_match_the_whole_file_reader(self, tmp_path_factory, drawn):
        text, delimiter = drawn
        path = write_file(tmp_path_factory.mktemp("returns") / "r.csv", text)
        config = SchemaConfig()
        rows, rejects = _whole_file_csv_reference(path, config)
        result = load_returns(path, config)
        assert list(result.rows) == rows
        assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects

    def test_a_line_longer_than_the_field_limit_goes_to_csv_reader(self, tmp_path):
        # csv.reader raises on a field above its limit; a quote-free line
        # longer than the limit is left to it, so the error still comes,
        # as a SchemaError naming the file.
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,10,100\n1976,AZ,DEMOCRATDEMOCRATDEMOCRAT,10,100\n",
        )
        limit = csv.field_size_limit(20)
        try:
            with pytest.raises(SchemaError, match="field larger than field limit"):
                load_returns(path)
        finally:
            csv.field_size_limit(limit)


class TestOneBlockLoop:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn=_source_files())
    def test_small_blocks_match_the_whole_file_reader(self, tmp_path_factory, drawn):
        # At these sizes most blocks hold a line or two, so csv.reader hands
        # back to the scan between almost every pair of quoted records.
        text, delimiter = drawn
        path = write_file(tmp_path_factory.mktemp("returns") / "r.csv", text)
        config = SchemaConfig()
        rows, rejects = _whole_file_csv_reference(path, config)
        for block_bytes in (1, 3, 7, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "_BLOCK_BYTES", block_bytes)
                result = load_returns(path, config)
            assert list(result.rows) == rows, block_bytes
            assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects, block_bytes

    def test_blocks_after_a_quoted_line_are_scanned(self, tmp_path, monkeypatch):
        # Only line 2 is quoted; every block after the first is quote-free
        # and goes to the scan.
        body = "1976,\"AZ\",DEMOCRAT,40,100\n" + "".join(
            f"{1976 + 2 * (i % 23)},AZ,{party},{i % 90},100\n"
            for i in range(300) for party in ("DEMOCRAT", "REPUBLICAN"))
        body += "1976,AZ,GREEN,x,100\n"
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)
        scanned = []
        scan = pipeline._scan

        def spy(block, size, *args):
            scanned.append(bytes(block[:size]))
            return scan(block, size, *args)

        monkeypatch.setattr(pipeline, "_scan", spy)
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 256)
        result = load_returns(path)
        rows, rejects = _whole_file_csv_reference(path, SchemaConfig())
        assert list(result.rows) == rows and len(rows) == 601
        assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == [
            (603, "invalid integer for candidatevotes: 'x'", "1976,AZ,GREEN,x,100")]
        assert len(scanned) > 10
        tail = b"".join(scanned)
        assert body.encode().endswith(tail) and len(tail) > len(body) - 256

    def test_a_bad_byte_in_a_quoted_block_is_a_schema_error(self, tmp_path, monkeypatch):
        # The bad byte is in a quoted record, on its second line.
        path = tmp_path / "r.csv"
        path.write_bytes((SCHEMA_HEADER + "\n" + '1976,"AZ",DEMOCRAT,40,100\n' * 400).encode()
                         + b'1976,"AZ",DEMOCRAT,40,100\n1976,"A\nZ\xe9",DEMOCRAT,40,100\n'
                         + b'1976,"AZ",DEMOCRAT,40,100\n' * 10)
        message = re.escape(f"{path}: not UTF-8 text (byte 0xe9: invalid continuation byte)")
        for block_bytes in (1, 5, 100, 4096, 1 << 20):
            with pytest.raises(SchemaError, match=f"^{message}$"):
                _load_at(monkeypatch, path, block_bytes)

    @pytest.mark.parametrize("long_field", ['"' + "D" * 50 + '"', "D" * 50], ids=["quoted", "bare"])
    def test_the_first_fault_in_the_file_is_reported(self, tmp_path, monkeypatch, long_field):
        # A field over csv's limit, then a byte that is not UTF-8 thirty
        # lines on, and the other way round.  The default block decoded
        # its whole tail first and reported the bad byte.
        good = b"1976,AZ,DEMOCRAT,40,100\n" * 30
        long_line = f"1976,AZ,{long_field},40,100\n".encode()
        bad_line = b"1976,AZ,D\xe9M,40,100\n"
        path = tmp_path / "r.csv"
        limit = csv.field_size_limit(30)
        try:
            for body, message in (
                (good + long_line + good + bad_line, "field larger than field limit (30) at line 32"),
                (good + bad_line + good + long_line, "not UTF-8 text (byte 0xe9: invalid continuation byte)"),
            ):
                path.write_bytes(SCHEMA_HEADER.encode() + b"\n" + body)
                for block_bytes in _EDGE_BLOCKS:
                    with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
                        _load_at(monkeypatch, path, block_bytes)
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
            assert list(other.rows) == list(lf.rows), name
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
    """``load_returns(path)`` reading ``block_bytes`` at a time."""
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
    return list(result.rows), rejects, sharing


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
        assert want[1] == rejects
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
            assert list(result.rows) == [
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
            assert list(result.rows) == [ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100),
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
        assert list(result.rows) == rows and len(rows) == generated.valid_rows
        assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects
        assert [r.line_number for r in result.rejects] == generated.reject_lines


#: Block sizes for the scan's edge cases: a block of one line or less, a
#: few lines, and the default.
_EDGE_BLOCKS = (1, 3, 7, 64, 1 << 20)


class TestScanEdges:
    """Lines whose bounds the block scan most easily gets wrong, each
    loaded at every block size of ``_EDGE_BLOCKS``."""

    @staticmethod
    def _check(monkeypatch, path, rows, rejects):
        for block_bytes in _EDGE_BLOCKS:
            result = _load_at(monkeypatch, path, block_bytes)
            assert list(result.rows) == rows, block_bytes
            assert [(r.line_number, r.reason, r.raw) for r in result.rejects] == rejects, block_bytes

    @pytest.mark.parametrize("last", [
        "1976,AZ,REPUBLICAN,5,", '1976,"AZ",REPUBLICAN,5,', '"1976",AZ,"REPUBLICAN",5,'])
    def test_a_last_line_without_a_break_ends_in_the_delimiter(self, tmp_path, monkeypatch, last):
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,40,100\n" + last)
        self._check(monkeypatch, path, [ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100)],
                    [(3, "invalid integer for totalvotes: ''", last)])

    @pytest.mark.parametrize("last", ["1976,AZ,REPUBLICAN,5,100,", '1976,"AZ",REPUBLICAN,5,100,""'])
    def test_a_last_line_without_a_break_ends_in_an_empty_field(self, tmp_path, monkeypatch, last):
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + ",office\n" + last)
        self._check(monkeypatch, path, [ReturnsRow(1976, "AZ", "REPUBLICAN", 5, 100)], [])

    def test_a_crlf_split_across_a_block_edge(self, tmp_path, monkeypatch):
        # The first line is 63 bytes, so with 64-byte blocks its \r ends
        # the first read and its \n begins the next.
        first = "1976,AZ,{},40,100".format("D" * 48)
        body = (first + "\r\n1976,AZ,REPUBLICAN,x,100\r\n" + '1976,"CA",GREEN,7,9\r\n'
                + '1976,"CA",GREEN,y,9\r\n1978,CA,GREEN,7,9\r\n')
        assert len(first) == 63
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)
        self._check(monkeypatch, path, [ReturnsRow(1976, "AZ", "D" * 48, 40, 100),
                                        ReturnsRow(1976, "CA", "GREEN", 7, 9),
                                        ReturnsRow(1978, "CA", "GREEN", 7, 9)],
                    [(3, "invalid integer for candidatevotes: 'x'", "1976,AZ,REPUBLICAN,x,100"),
                     (5, "invalid integer for candidatevotes: 'y'", '1976,"CA",GREEN,y,9')])

    def test_lines_ended_by_a_lone_cr(self, tmp_path, monkeypatch):
        body = ('1976,AZ,DEMOCRAT,40,100\r1976,AZ,GREEN,x,9\r\r1978,"CA",GREEN,7,9\r'
                '1978,"CA","GREEN",-7,9\r"1980",CA,GREEN,7,9\r')
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)
        self._check(monkeypatch, path, [ReturnsRow(1976, "AZ", "DEMOCRAT", 40, 100),
                                        ReturnsRow(1978, "CA", "GREEN", 7, 9),
                                        ReturnsRow(1980, "CA", "GREEN", 7, 9)],
                    [(3, "invalid integer for candidatevotes: 'x'", "1976,AZ,GREEN,x,9"),
                     (6, "negative candidatevotes -7", '1978,"CA","GREEN",-7,9')])

    @pytest.mark.parametrize("first, reject", [
        ("1976,AZ,GREEN,x,100", "invalid integer for candidatevotes: 'x'"),
        ('"1976",AZ,GREEN,x,100', "invalid integer for candidatevotes: 'x'"),
        ('1976,"A,Z",GREEN,x,100', "invalid integer for candidatevotes: 'x'"),
        ('1976,"A\nZ",GREEN,x,100', "invalid integer for candidatevotes: 'x'"),
        ('1976,AZ,"GR"EEN,x,100', "invalid integer for candidatevotes: 'x'"),
        ("1976,AZ,GREEN,5", "expected 5 fields, got 4"),
        # An open quote runs on to the end of the file.
        ('"1976,AZ,GREEN,5,100', "expected 5 fields, got 4"),
    ])
    def test_a_blocks_first_line_fails_the_scan(self, tmp_path, monkeypatch, first, reject):
        # At the default size the first line of the file is a block's first
        # line; at the small sizes every line is.
        body = first + "\n1976,AZ,DEMOCRAT,40,100\n1976,\"AZ\",REPUBLICAN,50,100\n"
        path = write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)
        rows, rejects = _whole_file_csv_reference(path, SchemaConfig())
        want = _summary(load_returns(path))
        assert want[0] == rows and want[1] == rejects
        assert want[1][0][:2] == (2, reject) and want[1][0][2].startswith(first)
        for block_bytes in _EDGE_BLOCKS:
            assert _summary(_load_at(monkeypatch, path, block_bytes)) == want, block_bytes


def _unique_coded(keys, codes, label=None):
    """``pipeline._coded`` as ``np.unique`` defines it: each distinct key in
    sorted order gets the code of its label, a new label the next code."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    labels = distinct.tolist() if label is None else map(label, distinct.tolist())
    return np.array([codes.setdefault(x, len(codes)) for x in labels],
                    dtype=np.int32)[inverse.reshape(-1)]


def _padded(texts):
    """``texts`` as the block scan's fixed-width keys (``pipeline._texts``)."""
    width = max(map(len, texts), default=0) + 1
    return np.array([t.encode() + b"\xff" * (width - len(t)) for t in texts], dtype=f"S{width}")


def _label(key):
    return key.rstrip(b"\xff").decode().strip()


@st.composite
def _coded_keys(draw):
    """``(keys, label, codes)``: text keys with their label function, or
    year keys without one, in runs that are long, alternating, or of keys
    that strip to one label; ``codes`` may hold labels of an earlier block."""
    texts = draw(st.sampled_from([("AZ", "CA", "DEMOCRAT", "", "OH"),
                                  ("AZ", " AZ", "AZ ", " AZ "), ("GREEN", "GREEN ", "LIB")]))
    pool = draw(st.sampled_from([texts, (1976, 1978, 2020, 1990)]))
    kind = draw(st.sampled_from(["long", "alternating", "any"]))
    if kind == "alternating":
        pair = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        runs = [(pair[i % 2], draw(st.integers(1, 3))) for i in range(draw(st.integers(0, 40)))]
    else:
        length = st.integers(1, 300 if kind == "long" else 4)
        runs = draw(st.lists(st.tuples(st.sampled_from(pool), length), max_size=30))
    keys = [key for key, n in runs for _ in range(n)]
    earlier = draw(st.lists(st.sampled_from(pool), unique=True))
    if pool is texts:
        return _padded(keys), _label, {_label(k): i for i, k in enumerate(_padded(earlier))}
    return np.array(keys, dtype=np.int64), None, {k: i for i, k in enumerate(earlier)}


class TestCoded:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=_coded_keys())
    def test_codes_match_a_unique_coding(self, drawn):
        keys, label, earlier = drawn
        codes, want = dict(earlier), dict(earlier)
        got = pipeline._coded(keys, codes, label)
        assert got.dtype == np.int32
        assert got.tolist() == _unique_coded(keys, want, label).tolist()
        assert list(codes.items()) == list(want.items())


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

    def test_row_order_does_not_change_the_csv(self, tmp_path, synthetic_returns_csv):
        with open(synthetic_returns_csv, encoding="utf-8") as handle:
            header, *lines = handle.readlines()
        shuffled = lines.copy()
        random.Random(11).shuffle(shuffled)
        assert shuffled != lines
        path = write_file(tmp_path / "shuffled.csv", header + "".join(shuffled))
        assert (aggregate(load_returns(path).rows).to_csv()
                == aggregate(load_returns(synthetic_returns_csv).rows).to_csv())

    @pytest.mark.parametrize("body", [
        # Eighteen digits, which the block scan reads as int64: the DEM sum
        # of 1976 is about 1e19, above 2**63.
        "1976,AZ,DEMOCRAT,999999999999999999,999999999999999999\n" * 10
        + "1976,AZ,REPUBLICAN,999999999999999998,999999999999999999\n" * 3
        + "1976,AZ,GREEN,7,999999999999999999\n"
        "1978,CA,DEMOCRAT,40,100\n1978,CA,REPUBLICAN,50,100\n1978,CA,LIBERTARIAN,10,100\n",
        # Nineteen and twenty digits, which only _parse_row reads, among
        # counts the block scan reads.
        "1976,AZ,DEMOCRAT,12345678901234567890,99999999999999999999\n"
        "1976,AZ,DEMOCRAT,999999999999999999,999999999999999999\n"
        "1976,AZ,REPUBLICAN,9223372036854775807,99999999999999999999\n"
        "1976,AZ,GREEN,3,5\n"
        "1978,CA,DEMOCRAT,40,100\n1978,CA,REPUBLICAN,9999999999999999999,9999999999999999999\n"
        "1978,CA,LIBERTARIAN,10,100\n",
    ], ids=["18-digit-counts", "19-and-20-digit-counts"])
    def test_sums_are_exact_past_int64(self, tmp_path, body):
        rows = load_returns(write_file(tmp_path / "r.csv", SCHEMA_HEADER + "\n" + body)).rows
        assert len(rows) == body.count("\n")
        totals = {}
        for row in rows:
            per_year = totals.setdefault(row.year, dict.fromkeys(("DEM", "REP", "OTHER"), 0))
            per_year[pipeline.DEFAULT_PARTY_MAPPING.get(row.party, "OTHER")] += row.candidate_votes
        assert sum(totals[1976].values()) > 2**63
        want = [[votes / sum(per_year.values()) for votes in per_year.values()]
                for _, per_year in sorted(totals.items())]
        matrix = aggregate(rows)
        assert matrix.years == (1976, 1978)
        assert matrix.values.tolist() == want

    def test_unmapped_labels_count_as_other(self, tmp_path):
        path = write_file(
            tmp_path / "r.csv",
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,50,100\n"
            "1976,AZ,REPUBLICAN,30,100\n"
            "1976,AZ,GREEN,15,100\n"
            "1976,AZ,LIBERTARIAN,5,100\n",
        )
        # GREEN (15) and LIBERTARIAN (5) both land in OTHER: 20 of 100.
        matrix = aggregate(load_returns(path).rows)
        assert matrix.values.tolist() == [[0.5, 0.3, 0.2]]

    def test_default_mapping_targets_are_buckets(self):
        # aggregate takes no mapping, so nothing checks its targets at run
        # time; a target outside the buckets would fail every load.
        assert set(pipeline.DEFAULT_PARTY_MAPPING.values()) <= set(pipeline._BUCKETS) - {"OTHER"}

    def test_no_rows_is_aggregation_error(self):
        with pytest.raises(AggregationError):
            aggregate([])

    def test_deterministic_csv_bytes(self, synthetic_returns_csv):
        first = aggregate(load_returns(synthetic_returns_csv).rows).to_csv()
        second = aggregate(load_returns(synthetic_returns_csv).rows).to_csv()
        assert first == second


class TestProportionMatrix:
    def test_csv_roundtrip_is_stable(self, tmp_path, synthetic_returns_csv):
        # wmle fit --data reads the CSV back, without its year column.
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        text = matrix.to_csv()
        parsed = _load_numeric_matrix(write_file(tmp_path / "props.csv", text))
        np.testing.assert_allclose(parsed, matrix.values, rtol=1e-11)
        # 12 significant digits are idempotent: a second serialization is
        # byte-identical to the first
        assert ProportionMatrix(years=matrix.years, values=parsed).to_csv() == text

    def test_three_columns_enforced(self):
        with pytest.raises(DomainError):
            ProportionMatrix(years=(1976,), values=np.array([[0.5, 0.5]]))
