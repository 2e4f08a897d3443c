"""End-to-end tests of the command-line interface."""

import ast
import importlib
import json
import logging
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wmle
from wmle import (
    ConfigError,
    DomainError,
    NumericError,
    SchemaError,
    SolverError,
    WeightPolicy,
    fit,
    holder_mean,
    lehmer_mean,
    weibull_model,
)
from wmle import cli as cli_module
from wmle import mwle as mwle_module
from wmle import svg as svg_module
from wmle.cli import DEFAULT_GRIDS, SweepTable, main, parse_grid, run_sweep, validate_sweep_table
from wmle.pipeline import ProportionMatrix, aggregate, load_returns
from wmle.svg import render_line_chart

from conftest import (
    SCHEMA_HEADER,
    holder_oracle,
    lehmer_condition,
    lehmer_oracle,
    ulps_off,
    write_quoted_copies,
    write_synthetic_returns,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseGrid:
    def test_inclusive_endpoints(self):
        grid = parse_grid("-2:4:0.25")
        assert grid[0] == -2.0 and grid[-1] == 4.0 and grid.size == 25

    def test_bad_specs_rejected(self):
        for spec in ("1:2", "a:b:c", "0:1:0", "2:1:0.5", "0:inf:1"):
            with pytest.raises(Exception):
                parse_grid(spec)

    def test_default_grid_points_are_their_decimal_literals(self):
        # Float steps put -1.7999999999999998 at index 12 of the Lehmer grid.
        lehmer = parse_grid(DEFAULT_GRIDS["lehmer"])
        assert lehmer.tolist() == [float(Fraction(i - 30, 10)) for i in range(71)]
        assert repr(lehmer.tolist()[12]) == "-1.8"
        holder = parse_grid(DEFAULT_GRIDS["holder"])
        assert holder.tolist() == [float(Fraction(i + 1, 10)) for i in range(60)]
        assert max(len(repr(v)) for v in (*lehmer.tolist(), *holder.tolist())) == 4

    @pytest.mark.parametrize("spec, count", [
        ("-3:4:0.1", 71),
        ("0.1:6:0.1", 60),
        ("-3:4:0.001", 7001),
        ("0.1:6:0.001", 5901),
        ("-0.3:0.3:0.1", 7),
        ("1e-1:6:25e-2", 24),
        ("+.5:1_0:5E-1", 20),
        ("-2:4:0.25", 25),
        ("1e300:1.5e300:1e299", 6),
    ])
    def test_each_point_is_the_nearest_double_to_the_decimal_point(self, spec, count):
        start, _, step = (Fraction(part.replace("_", "")) for part in spec.split(":"))
        grid = parse_grid(spec)
        assert grid.size == count
        assert grid.tolist() == [float(start + i * step) for i in range(count)]

    def test_point_count_is_bounded(self, monkeypatch):
        monkeypatch.setattr(cli_module, "MAX_GRID_POINTS", 10)
        assert parse_grid("0:9:1").size == 10
        with pytest.raises(ConfigError, match="MAX_GRID_POINTS = 10 "):
            parse_grid("0:10:1")


class TestMeanCommand:
    def test_lehmer_hand_value(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "lehmer", "--alpha", "2", "0.6", "2")
        assert code == 0
        assert float(out) == pytest.approx(4.36 / 2.6, rel=1e-12)

    def test_holder_arithmetic(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "holder", "--alpha", "1", "0.6", "2")
        assert code == 0
        assert float(out) == pytest.approx(1.3, abs=1e-15)

    def test_holder_infinite_order(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "holder", "--alpha", "inf", "0.6", "2")
        assert code == 0
        assert float(out) == 2.0

    def test_weights_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "mean", "--kind", "holder", "--alpha", "1", "--weights", "1,2", "0.6", "2"
        )
        assert code == 0
        assert float(out) == pytest.approx(4.6 / 3.0, rel=1e-14)

    def test_f_kind_log_transform(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "f", "0.6", "2")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(1.2), rel=1e-12)

    @pytest.mark.parametrize("flag, value", [("--weights", "1,3"), ("--alpha", "2")])
    def test_f_kind_rejects_weights_and_order(self, capsys, flag, value):
        # The f mean is unweighted and has no order; neither flag may be dropped silently.
        code, out, err = run_cli(capsys, "mean", "--kind", "f", flag, value, "0.6", "2")
        assert code == 2
        assert out == "" and flag in err

    def test_domain_error_names_value_and_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mean", "--kind", "holder", "--alpha", "0", "0", "2")
        assert code == 2
        assert "0" in err and "error" in err

    @pytest.mark.parametrize("kind, alpha, expected", [
        ("lehmer", "--alpha=-inf", 1.0),
        ("holder", "--alpha=-1e-3", 1.4141286320290045),
    ])
    def test_negative_orders_in_the_equals_form(self, capsys, kind, alpha, expected):
        code, out, _ = run_cli(capsys, "mean", "--kind", kind, alpha, "1", "2")
        assert code == 0
        assert float(out) == pytest.approx(expected, rel=1e-12)

    def test_missing_alpha_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "mean", "--kind", "holder", "0.6", "2")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


class TestFitCommand:
    def test_unit_shape_lehmer_beta_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "weibull", "--shapes", "1",
            "--policy", "lehmer", "--beta", "1", "0.6", "2",
        )
        assert code == 0
        assert "1.3" in out

    def test_shape_two_holder_hand_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "weibull", "--shapes", "2", "0.6", "2"
        )
        assert code == 0
        assert f"{math.sqrt(2.18):.6f}"[:7] in out  # 1.476482...

    def test_gaussian_recovers_arithmetic_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "gaussian", "--sigma", "2", "--format", "csv",
            "0.6", "2",
        )
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(record["theta_1"]) == pytest.approx(1.3, rel=1e-12)
        assert float(record["eta_1"]) == pytest.approx(1.3 / 4.0, rel=1e-12)
        assert record["minimal"] == "true"
        assert float(record["hessian_largest"]) <= 1e-9

    def test_csv_format_roundtrips_floats(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--shapes", "1", "--policy", "lehmer", "--beta", "2.5",
            "--format", "csv", "0.6", "2",
        )
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(record["theta_1"]) == lehmer_mean(2.5, [0.6, 2.0])

    def test_data_file_with_ingest_header(self, capsys, tmp_path, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        data_path = tmp_path / "props.csv"
        data_path.write_text(matrix.to_csv(), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "fit", "--shapes", "1,1,1", "--data", str(data_path), "--format", "csv"
        )
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        for j in range(3):
            expected = float(np.mean(matrix.values[:, j]))
            assert float(record[f"theta_{j + 1}"]) == pytest.approx(expected, rel=1e-11)

    def test_data_file_with_a_byte_order_mark(self, capsys, tmp_path, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        plain, marked = tmp_path / "props.csv", tmp_path / "props-bom.csv"
        plain.write_text(matrix.to_csv(), encoding="utf-8")
        marked.write_text(matrix.to_csv(), encoding="utf-8-sig")
        outs = [run_cli(capsys, "fit", "--shapes", "1,1,1", "--data", str(path)) for path in
                (plain, marked)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_negative_beta_in_the_equals_form(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--shapes", "1", "--policy", "lehmer",
                               "--beta=-1e-3", "--format", "csv", "1", "2")
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(record["theta_1"]) == pytest.approx(1.3331793184252085, rel=1e-12)

    def test_headerless_numeric_data_file(self, capsys, tmp_path):
        data_path = tmp_path / "cols.csv"
        data_path.write_text("0.5,1.0\n1.5,3.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "fit", "--shapes", "1,1", "--data", str(data_path), "--format", "csv"
        )
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(record["theta_1"]) == pytest.approx(1.0, rel=1e-12)
        assert float(record["theta_2"]) == pytest.approx(2.0, rel=1e-12)

    def test_ragged_data_file_exits_2(self, capsys, tmp_path):
        data_path = tmp_path / "ragged.csv"
        data_path.write_text("1,2\n3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--data", str(data_path))
        assert code == 2
        assert "'3' has 1 cells" in err

    def test_wide_data_at_shape_60_fits_the_exact_means(self, capsys, tmp_path):
        # Unscaled, the curvature of this fit overflowed (exit 2); fitted on
        # x / max(x), every column matches its Holder mean.
        rng = np.random.default_rng(53)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(200, 3)))
        data_path = tmp_path / "wide.csv"
        data_path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in x.tolist()),
                             encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", "--data", str(data_path), "--policy", "holder",
                               "--shapes", "60,60,60", "--format", "csv")
        assert code == 0
        record = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        for j in range(3):
            assert ulps_off(float(record[f"theta_{j + 1}"]), holder_oracle(60, x[:, j])) <= 2
            assert float(record[f"scale_{j + 1}"]) == np.max(x[:, j])
        assert math.isfinite(float(record["hessian_smallest"]))
        code, out, _ = run_cli(capsys, "fit", "--data", str(data_path), "--policy", "holder",
                               "--shapes", "60,60,60")
        assert code == 0
        assert "scale:" in out

    def test_non_utf8_data_file_exits_2(self, capsys, tmp_path):
        data_path = tmp_path / "cols.csv"
        data_path.write_bytes(b"dem,r\xe9p\n0.5,1.0\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(data_path))
        assert code == 2
        assert f"{data_path}: not UTF-8 text" in err

    @pytest.mark.parametrize("row, message", [
        ("1976,0.5,abc,0.1", "non-numeric cell in row '1976,0.5,abc,0.1'"),
        ("1976,0.5,0.4", "row '1976,0.5,0.4' has 2 cells, the first row has 3"),
        # The year cell was dropped unread, and these fitted with exit 0.
        ("19x6,0.5,0.4,0.1", "year '19x6' in row '19x6,0.5,0.4,0.1' is not an integer"),
        ("1976.5,0.5,0.4,0.1", "year '1976.5' in row '1976.5,0.5,0.4,0.1' is not an integer"),
        (",0.5,0.4,0.1", "year '' in row ',0.5,0.4,0.1' is not an integer"),
    ])
    def test_a_malformed_proportion_row_exits_2(self, capsys, tmp_path, row, message):
        data_path = tmp_path / "props.csv"
        data_path.write_text(f"year,dem,rep,other\n1974,0.5,0.4,0.1\n{row}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--data", str(data_path))
        assert (code, out) == (2, "")
        assert err == f"error: {data_path}: {message}\n"

    def test_data_file_and_positional_values_exit_2(self, capsys, tmp_path):
        # The positional values were fitted and --data was ignored (exit 0).
        data_path = tmp_path / "cols.csv"
        data_path.write_text("0.5\n1.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--data", str(data_path), "1", "2", "3")
        assert (code, out) == (2, "")
        assert err == "error: fit takes positional values or --data PATH, not both\n"

    def test_seed_is_not_an_option(self, capsys):
        # The verdict is of the exact covariance: no fit samples.
        code, out, err = run_cli(capsys, "fit", "--seed", "1", "1", "2", "3")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --seed\n")

    def test_numeric_error_exits_2(self, capsys):
        # Lehmer weights at order 0 on values more than exp(600) apart.
        code, _, err = run_cli(capsys, "fit", "--policy", "lehmer", "--beta", "0", "1e-300", "1e300")
        assert code == 2
        assert "exp(600)" in err

    def test_an_estimate_that_underflows_exits_2(self, capsys):
        # The Holder mean of order 1e-4 is about 8.04e6; the closed-form
        # estimate underflowed to 0 and printed theta_hat [0.] with exit 0.
        code, out, err = run_cli(capsys, "fit", "--shapes", "1e-4", "1e-300", "1e300", "1")
        assert code == 2
        assert out == ""
        assert "theta_hat=[0.0] of weibull(k=[0.0001]) is not finite and positive" in err

    def test_a_tiny_shape_prints_the_exact_verdict(self, capsys, caplog):
        # Shape 1e-3 drew (-log u) ** 1000 for a sampled verdict, which
        # overflowed, so no verdict was printed; the exact covariance is
        # 1/eta**2 in the scaled coordinates of the Hessian.
        with caplog.at_level(logging.WARNING):
            code, out, _ = run_cli(capsys, "fit", "--shapes", "1e-3", "1", "2", "3")
        assert code == 0
        assert "theta_hat:        [1.817307535472]" in out
        assert "hessian eigens:   [-2.99699, -2.99699]" in out
        assert "minimality:       minimal (smallest/largest stat eigenvalue 9.990e-01/9.990e-01)" in out
        assert caplog.messages == []

    def test_an_overflowed_minimality_covariance_prints_no_verdict(self, capsys, caplog):
        # The covariance of values near 1e200 overflows: this printed
        # "minimal (smallest/largest stat eigenvalue inf/inf)", and later a
        # "degenerate (largest eigenvalue -inf)" warning as well.
        with caplog.at_level(logging.WARNING):
            code, out, _ = run_cli(capsys, "fit", "--policy", "lehmer", "--beta", "2",
                                   "1e200", "2e200", "4e200")
        assert code == 0
        assert "theta_hat:        [3.e+200]" in out
        assert "minimality" not in out
        assert caplog.messages == [
            "no minimality verdict: the covariance of the statistic of weibull(k=[1.0]) "
            "is not finite at eta=[-3.333333333333332e-201]"
        ]

    def test_solver_failure_exits_3(self, capsys):
        # all-zero data puts the moment target outside the attainable range
        code, _, err = run_cli(capsys, "fit", "--shapes", "1", "0", "0")
        assert code == 3
        assert "attainable" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "fit", "--shapes", "1", "--policy", "lehmer", "--beta", "0.5", "0", "2"
        )
        assert code == 2

    def test_no_data_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--shapes", "1")
        assert code == 2


class TestVweightsCommand:
    def test_default_pair_at_exponent_zero(self, capsys):
        code, out, _ = run_cli(capsys, "vweights", "--grid=0:0:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,vl_first,vl_second,vh_first,vh_second"
        row = [float(cell) for cell in lines[1].split(",")]
        assert row == pytest.approx([0.0, 0.5, 0.5, 0.5, 0.5], abs=1e-12)

    def test_max_value_dominates_at_large_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "vweights", "--grid=0:12:12", "0.6", "2")
        assert code == 0
        last = [float(cell) for cell in out.strip().splitlines()[-1].split(",")]
        assert last[2] > 0.999  # lehmer weight of the larger value

    def test_equal_pair_is_always_half(self, capsys):
        code, out, _ = run_cli(capsys, "vweights", "--grid=-3:3:1.5", "1.4", "1.4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = [float(c) for c in line.split(",")]
            assert cells[1] == pytest.approx(0.5, abs=1e-12)
            assert cells[2] == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_values_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "vweights", "0", "2")
        assert code == 2

    def test_wrong_arity_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "vweights", "1", "2", "3")
        assert code == 2

    def test_overflowing_holder_weights_exit_2(self, capsys):
        # 1000 ** 300 overflows; a NumericError, not an inf cell and a numpy warning.
        code, out, err = run_cli(capsys, "vweights", "--grid=300:302:1", "1000", "2")
        assert code == 2
        assert out == "" and "Holder v-weights of order 301.0 overflow" in err

    @pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e9:1"])
    def test_oversized_grid_exits_2(self, capsys, grid):
        # An infinite point count used to escape as an OverflowError, and
        # 1e9 points started building a 1e9-element list.
        code, out, err = run_cli(capsys, "vweights", f"--grid={grid}", "1", "2")
        assert code == 2
        assert out == "" and "MAX_GRID_POINTS = 1000000" in err


class TestSweepCommand:
    def test_sweep_csv_roundtrip_and_ordering(self, capsys, tmp_path, synthetic_returns_csv):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "lehmer",
            "--grid=-2:4:0.5", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        table = SweepTable.from_csv(text)
        assert table.gaps == {}
        # exact roundtrip through repr formatting
        assert table.to_csv() == text
        # dem > rep > oth at every grid point; columns non-decreasing
        assert np.all(table.estimates[:, 0] > table.estimates[:, 1])
        assert np.all(table.estimates[:, 1] > table.estimates[:, 2])
        assert np.all(np.diff(table.estimates, axis=0) >= -1e-12)

    @pytest.mark.parametrize("row", ["abc,1,2,3", "1.5,1,x,3", "1.5,1,2"])
    def test_malformed_sweep_row_is_a_schema_error(self, row):
        text = SweepTable("", np.array([1.0]), np.ones((1, 3))).to_csv() + row + "\n"
        with pytest.raises(SchemaError, match="malformed sweep row"):
            SweepTable.from_csv(text)

    def test_a_column_that_halves_below_one_violates_monotonicity(self):
        # The slack is relative to each estimate, not an absolute 1e-9 for
        # every estimate below 1.
        table = SweepTable("", np.array([1.0, 2.0]), np.array([[2e-9, 0.5, 0.3], [1e-9, 0.5, 0.3]]))
        with pytest.raises(DomainError, match="estimate column 0 decreases"):
            validate_sweep_table(table)

    def test_lehmer_and_holder_agree_at_order_one(self, capsys, tmp_path, synthetic_returns_csv):
        paths = {}
        for mode, grid in (("lehmer", "-1:2:0.5"), ("holder", "0.5:2:0.5")):
            paths[mode] = tmp_path / f"{mode}.csv"
            code, _, _ = run_cli(
                capsys, "sweep", "--data", synthetic_returns_csv, "--mode", mode,
                "--grid=" + grid, "--out", str(paths[mode]),
            )
            assert code == 0
        lehmer = SweepTable.from_csv(paths["lehmer"].read_text(encoding="utf-8"))
        holder = SweepTable.from_csv(paths["holder"].read_text(encoding="utf-8"))
        lehmer_row = lehmer.estimates[np.where(lehmer.orders == 1.0)[0][0]]
        holder_row = holder.estimates[np.where(holder.orders == 1.0)[0][0]]
        np.testing.assert_allclose(lehmer_row, holder_row, atol=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path, synthetic_returns_csv):
        outputs = []
        for name in ("a", "b"):
            path, chart = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            code, _, _ = run_cli(
                capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
                "--grid=0.5:3:0.5", "--out", str(path), "--svg", str(chart),
            )
            assert code == 0
            outputs.append((path.read_bytes(), chart.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_svg_output(self, capsys, tmp_path, synthetic_returns_csv):
        svg_path = tmp_path / "sweep.svg"
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "lehmer",
            "--grid=-1:3:0.5", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        svg_text = svg_path.read_text(encoding="utf-8")
        assert svg_text.startswith("<svg")
        assert svg_text.count("<polyline") == 3
        for label in ("lambda_dem", "lambda_rep", "lambda_oth"):
            assert label in svg_text
        assert 'viewBox="0 0 800 600"' in svg_text

    def test_svg_of_all_gap_sweep_exits_2(self, capsys, tmp_path, synthetic_returns_csv,
                                          monkeypatch):
        # Every order fits on this data; force each to be a gap.
        def no_estimates(kind, observations, orders):
            return np.full((orders.size, 3), math.nan), {float(o): "forced gap" for o in orders}

        monkeypatch.setattr(mwle_module, "_sweep_estimates", no_estimates)
        svg_path = tmp_path / "sweep.svg"
        csv_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
            "--grid=400:420:10", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 2
        assert "finite data point" in err
        assert csv_path.read_text(encoding="utf-8").count(",,,") == 3
        assert not svg_path.exists()

    def test_extreme_lehmer_sweep_fits_the_exact_means(self, capsys, tmp_path, synthetic_returns_csv):
        # The Lehmer weights at these orders overflowed before they were
        # taken relative to the largest; now every order fits.
        svg_path = tmp_path / "sweep.svg"
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "lehmer",
            "--grid=400:420:10", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        assert svg_path.exists()
        table = SweepTable.from_csv(csv_path.read_text(encoding="utf-8"))
        assert table.gaps == {}
        values = aggregate(load_returns(synthetic_returns_csv).rows).values
        for order, row in zip(table.orders, table.estimates):
            for j, got in enumerate(row):
                column = values[:, j]
                bound = 4 * max(1.0, lehmer_condition(int(order), column))
                assert ulps_off(got, lehmer_oracle(int(order), column)) <= bound

    def test_nonpositive_holder_grid_exits_2(self, capsys, synthetic_returns_csv):
        code, _, _ = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
            "--grid=0:2:0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ["lehmer", "holder"])
    @pytest.mark.parametrize("bad", [0.0, -0.25, math.inf, math.nan])
    def test_a_value_that_is_not_finite_and_positive_is_a_domain_error(self, mode, bad):
        values = np.full((2, 3), 0.5)
        values[1, 2] = bad
        with pytest.raises(DomainError, match="finite, strictly positive values"):
            run_sweep(ProportionMatrix(years=(1, 2), values=values), mode, np.array([1.0, 2.0]))

    def test_an_empty_matrix_is_a_domain_error(self):
        with pytest.raises(DomainError, match="non-empty matrix"):
            run_sweep(ProportionMatrix(years=(), values=np.empty((0, 3))), "lehmer", np.array([1.0]))

    @pytest.mark.parametrize("mode", ["lehmer", "holder"])
    @pytest.mark.parametrize("grid", [[1.0, math.inf], [math.nan], []])
    def test_a_non_finite_order_or_an_empty_grid_is_a_config_error(self, mode, grid):
        matrix = ProportionMatrix(years=(1, 2), values=np.full((2, 3), 0.5))
        with pytest.raises(ConfigError, match="non-empty grid of finite orders"):
            run_sweep(matrix, mode, np.array(grid))

    def test_solver_gaps_are_recorded_and_run_continues(self):
        years = (1976, 1978, 1980, 1982)
        values = np.tile([0.5, 0.45, 0.03], (4, 1))
        # 30 ** 210 overflows and 0.03 ** 205 is subnormal, which made these
        # Holder orders gaps; relative to each column's largest value they
        # fit each column's value.
        for rows, grid in ((np.tile([0.5, 30.0, 0.03], (4, 1)), [2.0, 210.0]),
                           (values, [2.0, 205.0])):
            table = run_sweep(ProportionMatrix(years=years, values=rows), "holder", np.array(grid))
            assert table.gaps == {}
            for order, row in zip(grid, table.estimates):
                for got, column in zip(row, rows.T):
                    assert ulps_off(got, holder_oracle(int(order), column)) <= 2
        # A Lehmer mean near 1e-310 is subnormal, so the closed-form inverse
        # -1/target overflows and leaves the natural domain: a NoSolutionError.
        rows = values.copy()
        rows[:, 2] = [1e-310, 1e-60, 1e-60, 1e-60]
        gap = -400.0
        table = run_sweep(ProportionMatrix(years=years, values=rows), "lehmer", np.array([gap, 2.0]))
        assert list(table.gaps) == [gap]
        assert "closed-form inverse left the natural domain" in table.gaps[gap]
        at_gap = table.orders == gap
        assert np.all(np.isnan(table.estimates[at_gap]))
        assert np.all(np.isfinite(table.estimates[~at_gap]))
        parsed = SweepTable.from_csv(table.to_csv())
        assert list(parsed.gaps) == [gap]
        np.testing.assert_array_equal(np.isnan(parsed.estimates), np.isnan(table.estimates))
        # 0.03 ** -401 overflowed the Lehmer weights here, a DomainError gap;
        # taken relative to the largest weight, they fit each column's value.
        table = run_sweep(ProportionMatrix(years=years, values=values), "lehmer",
                          np.array([-400.0, 0.5, 1.0]))
        assert table.gaps == {}
        for got, value in zip(table.estimates[0], values[0]):
            assert ulps_off(got, lehmer_oracle(-400, [value] * 4)) <= 4

    def test_estimates_that_underflow_are_gaps(self):
        # At Holder orders up to 8e-4, (1/target) ** (-1/k) underflows to 0 on
        # the column [1e-300, 1e300, 1]: fit returned 0 there, and the sweep
        # died in validate_sweep_table instead of recording gaps.
        values = np.array([[1e-300, 1.0, 1.0], [1e300, 2.0, 2.0], [1.0, 3.0, 3.0]])
        table = run_sweep(ProportionMatrix(years=(1, 2, 3), values=values), "holder",
                          parse_grid("0.0001:0.001:0.0001"))
        assert list(table.gaps) == [float(o) for o in table.orders[:8]]
        assert all("is not finite and positive" in reason for reason in table.gaps.values())
        assert np.all(np.isfinite(table.estimates[8:]))

    def test_numeric_failures_are_recorded_as_gaps(self):
        rng = np.random.default_rng(54)
        values = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(200, 3)))
        # Shape 60 was a NumericError gap here (an overflowing curvature);
        # it now fits each column's Holder mean.
        table = run_sweep(ProportionMatrix(years=tuple(range(200)), values=values), "holder",
                          np.array([2.0, 60.0]))
        assert table.gaps == {}
        for got, column in zip(table.estimates[1], values.T):
            assert ulps_off(got, holder_oracle(60, column)) <= 2
        # Below order 1 the Lehmer weights of values more than exp(600)
        # apart cannot be formed: a NumericError gap.
        values[:2, 0] = [1e-300, 1e30]
        table = run_sweep(ProportionMatrix(years=tuple(range(200)), values=values), "lehmer",
                          np.array([0.0, 2.0]))
        assert list(table.gaps) == [0.0]
        assert "exp(600)" in table.gaps[0.0]
        assert np.all(np.isfinite(table.estimates[1]))


def beyond_the_weight_range():
    """A 7-by-3 matrix whose columns each span more than exp(600)."""
    rng = np.random.default_rng(56)
    values = np.exp(rng.uniform(math.log(1e-135), math.log(1e135), size=(7, 3)))
    values[:2] = [[1e-135, 1e-130, 1e-120], [1e135, 1e140, 1e150]]
    return ProportionMatrix(years=tuple(range(7)), values=values)


def extreme_magnitudes():
    """A 3-by-3 matrix whose first column's Lehmer means are near 1e200, where
    fit's curvature overflows to -inf and fit warns of a flat maximum."""
    return ProportionMatrix(years=(1, 2, 3), values=np.array(
        [[1e200, 0.5, 0.25], [3e200, 0.25, 0.5], [2e200, 0.25, 0.25]]))


def subnormal_target():
    """A 17-by-3 matrix whose third column's Lehmer mean of order 3 rounds to 0."""
    values = np.ones((17, 3))
    values[:, 2] = [1e-323] + [5e-324] * 16
    return ProportionMatrix(years=tuple(range(17)), values=values)


def matrix_of(rows):
    return ProportionMatrix(years=tuple(range(len(rows))), values=np.array(rows, dtype=float))


def per_point_sweep(matrix, mode, grid):
    """The sweep as one ``fit`` per grid order, validated like ``run_sweep``:
    the reference the batched pass must reproduce."""
    estimates = np.full((grid.size, 3), math.nan)
    gaps = {}
    for i, order in enumerate(grid):
        try:
            if mode == "lehmer":
                model, policy = weibull_model(np.ones(3)), WeightPolicy.lehmer(np.full(3, order))
            else:
                model, policy = weibull_model(np.full(3, order)), WeightPolicy.holder()
            estimates[i] = fit(model, matrix.values, policy, minimality_samples=0).theta_hat
        except (SolverError, DomainError, NumericError) as exc:
            gaps[float(order)] = str(exc)
    table = SweepTable(parameter="", orders=grid, estimates=estimates, gaps=gaps)
    validate_sweep_table(table)
    return table


def assert_same_sweep(batched, reference):
    # Same gaps with the same reasons in the same order, and every estimate
    # equal to the bit: the batched pass takes fit's floating-point steps.
    assert list(batched.gaps.items()) == list(reference.gaps.items())
    np.testing.assert_array_equal(batched.estimates, reference.estimates)


@st.composite
def sweep_cases(draw):
    """A positive n-by-3 matrix, log-uniform in [1e-3, 1e3], and an ascending
    grid of orders up to 600 (Lehmer orders from -600), where the unscaled
    weights, targets or curvatures would overflow."""
    n = draw(st.integers(1, 40))
    # Entries are drawn from a pool that may be smaller than the matrix,
    # so tied values (and tied maxima) are common.
    pool = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=1, max_size=3 * n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3 * n, max_size=3 * n))
    values = np.exp(np.asarray(pool)[picks]).reshape(n, 3)
    mode = draw(st.sampled_from(["lehmer", "holder"]))
    lowest = -600.0 if mode == "lehmer" else 1e-3
    order = st.one_of(st.floats(lowest, 600.0), st.sampled_from([0.5, 1.0, 2.0, 60.0, 205.0]))
    grid = sorted(draw(st.lists(order, min_size=1, max_size=25, unique=True)))
    return ProportionMatrix(years=tuple(range(n)), values=values), mode, np.asarray(grid)


class TestBatchedSweep:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_cases())
    def test_matches_one_fit_per_order(self, case):
        matrix, mode, grid = case
        assert_same_sweep(run_sweep(matrix, mode, grid), per_point_sweep(matrix, mode, grid))

    @pytest.mark.parametrize("n", [1, 7, 9, 129, 1000])
    @pytest.mark.parametrize("mode, spec", [("lehmer", "-300:300:7.5"), ("holder", "0.25:300:7.5")])
    def test_matches_one_fit_per_order_at_every_summation_depth(self, n, mode, spec):
        # numpy's pairwise sum changes shape at 8 and 128 terms; each batched
        # row must still be summed like the 1-D column fit sums.  Orders 0.5
        # and 2 are where numpy's power has sqrt and square shortcuts.
        rng = np.random.default_rng(n)
        values = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, 3)))
        matrix = ProportionMatrix(years=tuple(range(n)), values=values)
        grid = np.union1d(parse_grid(spec), [0.5, 1.0, 2.0])
        assert_same_sweep(run_sweep(matrix, mode, grid), per_point_sweep(matrix, mode, grid))

    @pytest.mark.parametrize("matrix, mode, spec, reason", [
        # Below order 1 the weights of values more than exp(600) apart
        # cannot be formed.
        pytest.param(beyond_the_weight_range(), "lehmer", "-3:4:0.25", "exp(600)", id="weights"),
        # A Lehmer mean near 1.8e308 overflows.
        pytest.param(matrix_of([[1.7e308, 1, 1], [1.79e308, 2, 2], [1.5e308, 3, 3]]), "lehmer",
                     "-3:4:0.1", "moment target must be finite", id="target-not-finite"),
        # A Lehmer mean of order 3 of values near 5e-324 rounds to 0.
        pytest.param(subnormal_target(), "lehmer", "2:3:1", "target [0.0] is not attainable",
                     id="target-not-positive"),
        # A subnormal Lehmer mean: -1/target overflows to -inf.
        pytest.param(matrix_of([[0.5, 0.45, 1e-310]] + [[0.5, 0.45, 1e-60]] * 3), "lehmer",
                     "-600:600:50", "closed-form inverse left the natural domain", id="inverse"),
        # At Holder orders up to 8e-4, (1/target) ** (-1/k) underflows to 0.
        pytest.param(matrix_of([[1e-300, 1, 1], [1e300, 2, 2], [1, 3, 3]]), "holder",
                     "0.0001:0.001:0.0001", "is not finite and positive", id="estimate"),
    ])
    def test_matches_one_fit_per_order_at_each_gap_reason(self, matrix, mode, spec, reason):
        # The batched pass names each gap with the message fit raises there,
        # and agrees with fit elsewhere.
        grid = parse_grid(spec)
        table = run_sweep(matrix, mode, grid)
        assert any(reason in message for message in table.gaps.values())
        assert_same_sweep(table, per_point_sweep(matrix, mode, grid))

    @pytest.mark.parametrize("spans", [
        pytest.param({1: 650.0}, id="middle-column"),
        pytest.param({0: 620.0, 2: 700.0}, id="outer-columns-at-different-orders"),
    ])
    def test_matches_one_fit_per_order_where_some_columns_are_gaps(self, spans):
        # All three columns share each block; only the columns whose values
        # lie more than exp(600) apart cannot be weighted below order 1, each
        # from its own order down, and a gap names the first such column.
        rng = np.random.default_rng(57)
        values = np.exp(rng.uniform(-2.0, 2.0, size=(9, 3)))
        for j, span in spans.items():
            values[:2, j] = [math.exp(-span / 2), math.exp(span / 2)]
        matrix = ProportionMatrix(years=tuple(range(9)), values=values)
        grid = parse_grid("-3:4:0.05")
        table = run_sweep(matrix, "lehmer", grid)
        named = {int(re.search(r"column (\d)", m).group(1)) for m in table.gaps.values()}
        assert named == set(spans)
        assert 0 < len(table.gaps) < grid.size
        assert_same_sweep(table, per_point_sweep(matrix, "lehmer", grid))

    @pytest.mark.parametrize("mode, grid", [("lehmer", [-1.5, -0.5, 0.5, 1.0, 2.0]),
                                            ("holder", [0.25, 0.5, 1.0, 1.5, 2.0])])
    @pytest.mark.parametrize("n", [mwle_module._SWEEP_BLOCK_ELEMENTS // 6,
                                   mwle_module._SWEEP_BLOCK_ELEMENTS // 6 + 1,
                                   mwle_module._SWEEP_BLOCK_ELEMENTS // 3,
                                   mwle_module._SWEEP_BLOCK_ELEMENTS // 3 + 1])
    def test_matches_one_fit_per_order_where_a_block_holds_one_order(self, n, mode, grid):
        # The buffer holds two orders of the three columns up to n = budget
        # // 6 and one from there on, also past budget // 3, where a single
        # order overflows it.  Five orders end in a short block of one
        # order, 2, where numpy's power takes its square shortcut.
        rng = np.random.default_rng(n)
        values = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, 3)))
        matrix = ProportionMatrix(years=tuple(range(n)), values=values)
        grid = np.array(grid)
        assert_same_sweep(run_sweep(matrix, mode, grid), per_point_sweep(matrix, mode, grid))

    @pytest.mark.parametrize("mode, spec", [("lehmer", "-3:4.9:0.1"), ("holder", "0.1:5.1:0.1")])
    @pytest.mark.parametrize("n", [1000, 3000])
    def test_matches_one_fit_per_order_on_grids_of_part_blocks(self, n, mode, spec):
        # Neither 80 nor 51 orders is a multiple of the orders a block holds
        # (21 and 7): the last block is short, and its rows must still be
        # laid out like a full block's.
        rng = np.random.default_rng(n + 7)
        values = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(n, 3)))
        matrix = ProportionMatrix(years=tuple(range(n)), values=values)
        grid = parse_grid(spec)  # with orders 0.5 and 2
        assert grid.size % (mwle_module._SWEEP_BLOCK_ELEMENTS // (3 * n)) != 0
        assert_same_sweep(run_sweep(matrix, mode, grid), per_point_sweep(matrix, mode, grid))

    @pytest.mark.parametrize("mode", ["lehmer", "holder"])
    def test_matches_one_fit_per_order_at_power_shortcut_orders(self, mode):
        # numpy's power swaps in a square root, square or reciprocal, which
        # may differ in the last bit, when one exponent of 0.5, 2 or -1
        # repeats along its inner loop, as it does for a one-order grid.
        # Single rows keep every such bit visible in the estimate.
        rng = np.random.default_rng(55)
        for _ in range(100):
            values = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(1, 3)))
            matrix = ProportionMatrix(years=(2000,), values=values)
            for order in (0.5, 1.0, 2.0):
                grid = np.array([order])
                assert_same_sweep(run_sweep(matrix, mode, grid), per_point_sweep(matrix, mode, grid))

    def test_sweep_never_calls_fit(self, monkeypatch, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        fitted, models = [], []
        real_model = mwle_module.weibull_model
        monkeypatch.setattr(mwle_module, "fit", lambda *args, **kwargs: fitted.append(args))
        monkeypatch.setattr(mwle_module, "weibull_model",
                            lambda shapes: models.append(shapes) or real_model(shapes))
        for mode, spec in DEFAULT_GRIDS.items():
            assert run_sweep(matrix, mode, parse_grid(spec)).gaps == {}
        assert run_sweep(matrix, "lehmer", parse_grid("-600:600:50")).gaps == {}
        assert run_sweep(matrix, "holder", parse_grid("100:900:50")).gaps == {}
        # The batched pass takes the kernel's estimates even where fit's
        # curvature overflows.
        assert run_sweep(extreme_magnitudes(), "lehmer", parse_grid("-3:4:0.1")).gaps == {}
        # A sweep without gaps builds no model.
        assert models == []
        # The gaps are named without fit too.
        assert run_sweep(beyond_the_weight_range(), "lehmer", parse_grid("-3:4:0.25")).gaps
        holder_gaps = matrix_of([[1e-300, 1, 1], [1e300, 2, 2], [1, 3, 3]])
        assert run_sweep(holder_gaps, "holder", parse_grid("0.0001:0.001:0.0001")).gaps
        assert fitted == []

    def test_sweeps_log_no_degeneracy_warnings(self, capsys, caplog, synthetic_returns_csv):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        with caplog.at_level(logging.WARNING):
            for mode in ("holder", "lehmer"):
                code, _, _ = run_cli(capsys, "sweep", "--data", synthetic_returns_csv, "--mode", mode)
                assert code == 0
            # Unscaled, the minor party's curvature underflowed to -0 at
            # shapes of 150 and more, which read as flat.
            code, _, _ = run_cli(capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
                                 "--grid=10:250:20")
            assert code == 0
            # One fit per order: the party columns' curvatures lie up to 1e300
            # apart at these orders, and each is judged on its own.
            per_point_sweep(matrix, "lehmer", parse_grid("-250:250:25"))
            per_point_sweep(matrix, "holder", parse_grid("10:250:20"))
            # Unscaled, this curvature was -inf.
            result = fit(weibull_model([60.0]), [1e-3, 0.5, 10, 1e3], WeightPolicy.holder())
            assert math.isfinite(result.diagnostics.hessian_smallest)
            # fit's curvature at Lehmer means near 1e200 overflows to -inf,
            # and fit warns of a flat maximum; the sweep does not fit there.
            grid = parse_grid("-3:4:0.1")
            extreme = run_sweep(extreme_magnitudes(), "lehmer", grid)
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert_same_sweep(extreme, per_point_sweep(extreme_magnitudes(), "lehmer", grid))


class TestLineChart:
    def test_points_match_the_scalar_formula(self):
        # Gaps split the series into segments; a lone finite point between
        # gaps is drawn as a circle.  Every coordinate must carry exactly
        # the digits of the per-point formula.
        x = np.linspace(-3.0, 4.0, 29)
        y = np.sin(x) * 1e3
        y[[3, 5, 6, 12, 20, 22, 28]] = [np.nan, np.nan, np.inf, np.nan, np.nan, -np.inf, np.nan]
        flat = np.full(x.size, 2.5)
        flat[[0, 2]] = np.nan
        chart = render_line_chart(x, {"a": y, "b": flat}, title="t", x_label="x", y_label="y")

        finite = np.concatenate([y[np.isfinite(y)], flat[np.isfinite(flat)]])
        x_lo, x_hi = float(x.min()), float(x.max())
        y_lo, y_hi = float(finite.min()), float(finite.max())
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        drawn = []
        for series in (y, flat):
            segments, segment = [], []
            for xv, yv in zip(x.tolist(), series.tolist()):
                if math.isfinite(yv):
                    sx = 80 + (xv - x_lo) / (x_hi - x_lo) * 690
                    sy = 50 + (y_hi - yv) / (y_hi - y_lo) * 485
                    segment.append(f"{sx:.2f},{sy:.2f}")
                elif segment:
                    segments.append(segment)
                    segment = []
            segments += [segment] if segment else []
            drawn += [" ".join(points) if len(points) > 1 else points[0] for points in segments]
        got = [match.group(1) for match in re.finditer(r'points="([^"]*)"', chart)]
        got += [f"{cx},{cy}" for cx, cy in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', chart)]
        assert sorted(got) == sorted(drawn)
        assert sum(" " not in points for points in drawn) == 3  # the lone points

    @pytest.mark.parametrize("y", [[1e300, 1e300], [1e16, 1e16 + 2], [0.0, 5e-324], [0.0, 3e-323]])
    def test_a_range_narrower_than_the_values_ulp_still_draws(self, y):
        # A flat series at 1e300 left the ticks a zero span, a tick step
        # below half an ulp of the tick never advanced, and a range below
        # one subnormal tick step underflowed the step to zero.
        chart = render_line_chart([0.0, 1.0], {"a": y}, title="t", x_label="x", y_label="y")
        assert chart.count("<polyline") == 1

    def test_an_x_range_narrower_than_a_subnormal_tick_step_still_draws(self):
        # Only the y range was widened; the x tick step underflowed to 0.
        chart = render_line_chart([0.0, 5e-324], {"a": [0.0, 1.0]}, title="t", x_label="x", y_label="y")
        assert 'points="425.00,' in chart

    @pytest.mark.parametrize("x, y", [([0.0, 1.0], [-1e308, 1e308]), ([-1e308, 1e308], [0.0, 1.0])])
    def test_a_span_that_overflows_is_a_domain_error(self, x, y):
        # An infinite span reached math.floor(log10(inf)): OverflowError.
        with pytest.raises(DomainError, match=r"from -1e\+308 to 1e\+308 overflows"):
            render_line_chart(x, {"a": y}, title="t", x_label="x", y_label="y")

    def test_a_constant_x_axis_centres_every_point(self):
        chart = render_line_chart([1.0, 1.0], {"a": [0.0, 1.0]}, title="t", x_label="x", y_label="y")
        assert 'points="425.00,' in chart
        # The ticks spread around the point instead of all sitting on it.
        ticks = re.findall(r'<text x="([^"]*)" y="555"', chart)
        assert len(ticks) > 1 and len(set(ticks)) == len(ticks)


def per_row_csv(table):
    """``SweepTable.to_csv`` as one join and one f-string per row: the
    reference the bulk writer must reproduce byte for byte."""
    lines = ["order,lambda_dem,lambda_rep,lambda_oth"]
    estimates = np.asarray(table.estimates, dtype=float).reshape(-1, 3)
    complete = np.isfinite(estimates).all(axis=1).tolist()
    orders = np.asarray(table.orders, dtype=float).tolist()
    for order, row, full in zip(orders, estimates.tolist(), complete):
        cells = ",".join(map(repr, row)) if full else ",,"
        lines.append(f"{order!r},{cells}")
    return "\n".join(lines) + "\n"


def per_point_series(x, series):
    """The chart's ``<polyline>``/``<circle>`` elements from a walk over
    the points, one format call per point: the reference the bulk series
    writer must reproduce byte for byte."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in series.values()]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - max(0.5, math.ulp(y_lo)), y_hi + max(0.5, math.ulp(y_lo))
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px = [80 + (v - x_lo) / (x_hi - x_lo) * 690 if x_hi != x_lo else 80 + 690 / 2.0
          for v in x.tolist()]
    elements = []
    for idx, y in enumerate(ys):
        color, dash = svg_module._STYLES[idx % len(svg_module._STYLES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        py = [50 + (y_hi - v) / (y_hi - y_lo) * 485 for v in y.tolist()]
        segment, segments = [], []
        for finite_point, pair in zip(np.isfinite(y).tolist(), zip(px, py)):
            if finite_point:
                segment.append("%.2f,%.2f" % pair)
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for points in segments:
            if len(points) == 1:
                cx, cy = points[0].split(",")
                elements.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                elements.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="2"{dash_attr} '
                    f'points="{" ".join(points)}"/>'
                )
    return elements


def assert_bulk_writers_match(orders, estimates):
    table = SweepTable(parameter="beta", orders=np.asarray(orders, dtype=float),
                       estimates=np.asarray(estimates, dtype=float).reshape(-1, 3))
    assert table.to_csv() == per_row_csv(table)
    series = {label: table.estimates[:, j]
              for j, label in enumerate(("lambda_dem", "lambda_rep", "lambda_oth"))}
    if not np.isfinite(table.estimates).any():
        with pytest.raises(DomainError):
            render_line_chart(table.orders, series, title="t", x_label="beta", y_label="y")
        return
    chart = render_line_chart(table.orders, series, title="t", x_label="beta", y_label="y")
    drawn = [line for line in chart.splitlines() if line.startswith(("<polyline", "<circle"))]
    assert drawn == per_point_series(table.orders, series)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def sweep_tables(draw):
    """Ascending orders, negatives included, and estimates of magnitude
    1e-300 to 1e300 (either sign) mixed with nan and +-inf, so rows are
    complete or gaps anywhere, lone finite points sit between gaps, and a
    whole column may be non-finite."""
    orders = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40, unique=True)))
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    finite = st.tuples(magnitude, st.sampled_from((1.0, -1.0))).map(lambda p: p[0] * p[1])
    cell = st.one_of(finite, finite, st.sampled_from(_NON_FINITE))
    estimates = np.asarray(draw(st.lists(st.lists(cell, min_size=3, max_size=3),
                                         min_size=len(orders), max_size=len(orders))))
    dead = draw(st.sampled_from((None, 0, 1, 2)))
    if dead is not None:
        estimates[:, dead] = draw(st.sampled_from(_NON_FINITE))
    return orders, estimates


_F = 0.5253026203826832
_GAP = [math.nan] * 3


class TestBulkWriters:
    # The CSV and the chart's series are formatted in bulk; on any table
    # their bytes must be those of the per-row and per-point writers.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_tables())
    def test_match_the_per_row_and_per_point_writers(self, table):
        assert_bulk_writers_match(*table)

    @pytest.mark.parametrize("orders, estimates", [
        pytest.param([-3.0, -1.8, 0.0, 2.5, 4.0], np.linspace(0.1, 3.0, 15), id="all-finite"),
        pytest.param(range(7), [_GAP, [_F] * 3, [_F] * 3, _GAP, [_F] * 3, [_F] * 3, _GAP],
                     id="gaps-at-start-middle-end"),
        pytest.param(range(6), [_GAP, [_F] * 3, _GAP, [1.0] * 3, [2.0] * 3, _GAP],
                     id="isolated-point"),
        pytest.param(range(4), [[_F, 1.0, math.nan], [_F, 2.0, math.inf], [_F, 3.0, -math.inf],
                                [_F, 4.0, math.nan]], id="one-series-non-finite"),
        pytest.param(range(4), [[math.inf, 1.0, 2.0], [1.0, -math.inf, 2.0], [1.0, 2.0, 3.0],
                                [1.0, 2.0, 3.0]], id="plus-minus-inf"),
        pytest.param([1.0, 2.0, 3.0], [[1e-300, 1e300, 1.0], [5e-324, 1.7e300, 2.2e-308],
                                       [1e-300, 1e300, 1.0]], id="extreme-magnitudes"),
        pytest.param([-600.0, -250.5, -1e-9], [[1.0, 2.0, 3.0]] * 3, id="negative-orders"),
        pytest.param([0.0, 1.0], [[1e300] * 3, [1e300] * 3], id="flat-at-1e300"),
        pytest.param([0.0, 1.0], [[1e16, 1e16 + 2, 1e16]] * 2, id="span-below-tick-ulp"),
        pytest.param([-1.8], [[_F, 0.25, 0.125]], id="one-row"),
        pytest.param([0.5], [_GAP], id="one-gap-row"),
    ])
    def test_cases(self, orders, estimates):
        assert_bulk_writers_match(list(orders), estimates)


class TestIngestCommand:
    def test_writes_proportions_and_rejects(self, capsys, tmp_path):
        returns = tmp_path / "returns.csv"
        returns.write_text(
            SCHEMA_HEADER + "\n"
            "1976,AZ,DEMOCRAT,60,100\n"
            "1976,AZ,REPUBLICAN,30,100\n"
            "1976,AZ,GREEN,10,100\n"
            "1976,AZ,DEMOCRAT,500,100\n",  # invalid: exceeds total
            encoding="utf-8",
        )
        out_path = tmp_path / "props.csv"
        rejects_path = tmp_path / "rejects.csv"
        code, _, err = run_cli(
            capsys, "ingest", "--data", str(returns), "--out", str(out_path),
            "--rejects", str(rejects_path),
        )
        assert code == 0
        assert "1 row(s) rejected" in err
        values = cli_module._load_numeric_matrix(str(out_path))
        np.testing.assert_allclose(values, [[0.6, 0.3, 0.1]], atol=1e-12)
        assert "exceeds totalvotes" in rejects_path.read_text(encoding="utf-8")

    def test_stdout_default(self, capsys, synthetic_returns_csv):
        code, out, err = run_cli(capsys, "ingest", "--data", synthetic_returns_csv)
        assert code == 0
        assert out.startswith("year,dem,rep,other")
        assert "23 cycle(s)" in err

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "ingest", "--data", str(tmp_path / "nope.csv"))
        assert code == 4

    def test_bad_config_exits_2(self, capsys, tmp_path, synthetic_returns_csv):
        config = tmp_path / "schema.cfg"
        config.write_text("bogus_key=1\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "ingest", "--data", synthetic_returns_csv, "--config", str(config)
        )
        assert code == 2

    def test_quoted_copies_ingest_to_the_same_bytes(self, capsys, tmp_path):
        # The synthetic returns with malformed records among them; a reject's
        # raw text keeps its quotes, but the rejects report is (line, reason).
        plain = tmp_path / "returns.csv"
        write_synthetic_returns(plain)
        lines = plain.read_text(encoding="utf-8").split("\n")
        lines[2:2] = ["1976,AZ,DEMOCRAT,x,100", "", "2022,AZ,DEMOCRAT,1,100", "1976,AZ,GREEN,5"]
        lines[300:300] = ["1990,OH,DEMOCRAT,-5,100", "1990,OH,REPUBLICAN,9,8", "1990,OH,,0,0"]
        plain.write_text("\n".join(lines), encoding="utf-8")
        outputs = {}
        for name, path in {"plain": str(plain), **write_quoted_copies(plain)}.items():
            out, rejects = tmp_path / f"{name}.props.csv", tmp_path / f"{name}.rejects.csv"
            code, _, err = run_cli(capsys, "ingest", "--data", path, "--out", str(out),
                                   "--rejects", str(rejects))
            assert code == 0, (name, err)
            outputs[name] = out.read_bytes(), rejects.read_bytes()
        want = outputs.pop("plain")
        assert want[1].count(b"\n") == 1 + 6
        for name, got in outputs.items():
            assert got == want, name

    def test_non_utf8_returns_file_exits_2(self, capsys, tmp_path):
        returns = tmp_path / "returns.csv"
        returns.write_bytes(SCHEMA_HEADER.encode() + b"\n1976,AZ,D\xe9MOCRAT,60,100\n")
        code, _, err = run_cli(capsys, "ingest", "--data", str(returns))
        assert code == 2
        assert f"{returns}: not UTF-8 text" in err

    def test_a_field_above_csvs_limit_exits_2(self, capsys, tmp_path):
        returns = tmp_path / "returns.csv"
        returns.write_text(SCHEMA_HEADER + "\n1976,AZ,DEMOCRAT,60,100\n"
                           + '1976,AZ,"' + "D" * 200_000 + '",60,100\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "ingest", "--data", str(returns))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {returns}: field larger than field limit")
        assert err.rstrip().endswith("at line 3")

    def test_non_utf8_config_exits_2(self, capsys, tmp_path, synthetic_returns_csv):
        config = tmp_path / "schema.cfg"
        config.write_bytes(b"# r\xe9sum\xe9\nyear_min=1976\n")
        code, _, err = run_cli(
            capsys, "ingest", "--data", synthetic_returns_csv, "--config", str(config)
        )
        assert code == 2
        assert f"{config}: not UTF-8 text" in err

    def test_custom_schema_config(self, capsys, tmp_path):
        returns = tmp_path / "r.csv"
        returns.write_text(
            "yr,st,party,votes,total\n"
            "1980,AZ,DEMOCRAT,70,100\n"
            "1980,AZ,REPUBLICAN,25,100\n"
            "1980,AZ,GREEN,5,100\n",
            encoding="utf-8",
        )
        config = tmp_path / "schema.cfg"
        config.write_text(
            "year_column=yr\nstate_column=st\nparty_column=party\n"
            "candidate_votes_column=votes\ntotal_votes_column=total\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "ingest", "--data", str(returns), "--config", str(config)
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1980,0.7")


class TestMeanConsistencyAcrossSurfaces:
    def test_cli_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "mean", "--kind", "holder", "--alpha", "2.5", "0.6", "2")
        assert code == 0
        assert float(out) == holder_mean(2.5, [0.6, 2.0])


def modules_after_import(probe):
    """The ``sys.modules`` names of a fresh interpreter after ``probe``."""
    src = os.path.dirname(os.path.dirname(wmle.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"{probe}; import sys; print(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.split())


def modules_after_command(*argv):
    """The ``sys.modules`` names of a fresh interpreter after ``wmle.cli.main(argv)``
    has run and returned 0."""
    return modules_after_import(f"import wmle.cli; assert wmle.cli.main({list(argv)!r}) == 0")


#: Imports every wmle module.  ``import wmle`` and ``import wmle.cli`` load
#: almost none of them, so a probe of those alone would pass whatever the
#: estimator, pipeline and chart modules import.
FULL_STACK = "import " + ", ".join(f"wmle.{info.name}" for info in pkgutil.iter_modules(wmle.__path__))


class TestRuntimeDependencies:
    def test_imports_load_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-only oracle.
        loaded = modules_after_import(FULL_STACK)
        assert sorted(m for m in loaded if m.startswith("scipy")) == []

    def test_cli_import_loads_no_fractions_or_decimal(self):
        # parse_grid's exact decimal points take plain integers; the CLI
        # starts a fresh process per command, so every module is start-up.
        loaded = modules_after_import(FULL_STACK)
        assert loaded.isdisjoint({"fractions", "decimal", "_decimal", "_pydecimal"})

    def test_cli_import_loads_no_process_pools_or_mmap(self):
        # Ingest reads its file in blocks on one thread; every CLI process
        # would pay for importing these.
        loaded = modules_after_import(FULL_STACK)
        assert loaded.isdisjoint({"concurrent.futures", "multiprocessing", "mmap"})


class TestCommandImports:
    # Each command runs in a fresh process, where every module it loads but
    # does not run is start-up time.
    NOT_FOR_MEANS = {"wmle.expfam", "wmle.mwle", "wmle.families", "wmle.pipeline", "wmle.svg",
                     "logging", "csv"}

    def test_mean_loads_no_estimator_pipeline_or_chart(self):
        loaded = modules_after_command("mean", "--kind", "lehmer", "--alpha", "2", "0.6", "2")
        assert "wmle.means" in loaded
        assert loaded.isdisjoint(self.NOT_FOR_MEANS)

    def test_vweights_loads_no_estimator_pipeline_or_chart(self, tmp_path):
        loaded = modules_after_command("vweights", "--out", str(tmp_path / "vweights.csv"))
        assert "wmle.means" in loaded
        assert loaded.isdisjoint(self.NOT_FOR_MEANS)

    def test_ingest_loads_no_estimator_or_chart(self, tmp_path, synthetic_returns_csv):
        # The fixture has no zero proportion, so no cell is floored and
        # nothing is logged: logging is imported only to warn.
        loaded = modules_after_command("ingest", "--data", synthetic_returns_csv,
                                       "--out", str(tmp_path / "props.csv"))
        assert "wmle.pipeline" in loaded
        assert loaded.isdisjoint({"wmle.expfam", "wmle.mwle", "wmle.families", "wmle.means",
                                  "wmle.svg", "logging"})

    def test_fit_loads_no_numpy_random(self):
        # The minimality verdict is of the exact covariance: nothing samples.
        loaded = modules_after_command("fit", "1", "2", "3")
        assert "wmle.mwle" in loaded
        assert sorted(m for m in loaded if m.startswith("numpy.random")) == []

    def test_a_bare_package_import_loads_no_submodule(self):
        loaded = modules_after_import("import wmle")
        assert {m for m in loaded if m.startswith("wmle.")} <= {"wmle.errors"}


class TestBenchmarkTracer:
    def test_tracer_installs_on_this_tree(self):
        # perfbench/tracing.py rebinds names of the wmle modules, fit's
        # helpers among them; a rename must fail here, not only under --trace.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        probe = (
            "import sys; sys.path[:0] = ['perfbench', 'src']; "
            "import tracing; tracing.install(tracing.Tracer())"
        )
        result = subprocess.run([sys.executable, "-c", probe], cwd=root,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_benchmark_self_check_passes_on_this_tree(self):
        # Every workload's calls into wmle run on tiny inputs and their
        # outputs are checked; a change that breaks one fails here, not only
        # when the benchmark runs.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"], cwd=root,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]

    def test_traced_fits_record_the_solver_spans(self):
        # The benchmark's probe suite traces fit with and without the sampled
        # minimality check; its per-layer metrics read these spans.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        probe = (
            "import sys; sys.path[:0] = ['perfbench', 'src']\n"
            "import json, numpy as np, tracing\n"
            "tracer = tracing.Tracer(); tracing.install(tracer); tracer.enabled = True\n"
            "import wmle.mwle as mwle, wmle.families as families\n"
            "x = np.exp(np.random.default_rng(0).uniform(-3.0, 3.0, (7, 3)))\n"
            "for samples in (0, 2048):\n"
            "    fits = ((families.weibull_model(np.ones(3)), mwle.WeightPolicy.lehmer(np.full(3, 2.0))),\n"
            "            (families.weibull_model(np.full(3, 2.0)), mwle.WeightPolicy.holder()))\n"
            "    for model, policy in fits:\n"
            "        kwargs = {'minimality_samples': 0} if samples == 0 else {}\n"
            "        mwle.fit(model, x, policy, **kwargs)\n"
            "        print(json.dumps([samples, sorted({s[3] for s in tracer.take()[0]})]))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], cwd=root,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 4
        solver = {"mwle.fit", "expfam.solve_mean_target", "expfam.stat_covariance"}
        for line in lines:
            samples, names = json.loads(line)
            want = solver | ({"expfam.check_minimality"} if samples else set())
            assert want <= set(names), line


def _process_env():
    src = os.path.dirname(os.path.dirname(wmle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a user's shell
    return env


#: The same command ended by the interpreter: main's code raised as
#: SystemExit, after which the interpreter flushes both streams and tears
#: every module down.
INTERPRETER_EXIT = "import sys, wmle.cli; raise SystemExit(wmle.cli.main(sys.argv[1:]))"


def run_process(argv, *, entry=True, stdout=subprocess.PIPE, env=None):
    """Exit code, stdout and stderr bytes of ``python -m wmle.cli argv``, or with
    ``entry=False`` of the same command ended through ``INTERPRETER_EXIT``."""
    cmd = [sys.executable, "-m", "wmle.cli"] if entry else [sys.executable, "-c", INTERPRETER_EXIT]
    result = subprocess.run(cmd + list(argv), stdout=stdout, stderr=subprocess.PIPE,
                            env=env or _process_env())
    return result.returncode, result.stdout or b"", result.stderr


@pytest.fixture(scope="module")
def process_inputs(tmp_path_factory, synthetic_returns_csv):
    """A returns file with one rejected row, and its proportions CSV."""
    root = tmp_path_factory.mktemp("process")
    returns = root / "returns.csv"
    with open(synthetic_returns_csv, encoding="utf-8") as handle:
        returns.write_text(handle.read() + "1976,AZ,DEMOCRAT,500,100\n", encoding="utf-8")
    props = root / "props.csv"
    assert main(["ingest", "--data", str(returns), "--out", str(props)]) == 0
    return {"returns": str(returns), "props": str(props)}


#: name -> (argv, exit code, the files it writes into ``{out}``)
PROCESS_COMMANDS = {
    "mean": (["mean", "--kind", "lehmer", "--alpha", "2", "0.6", "2"], 0, []),
    "vweights": (["vweights"], 0, []),
    "ingest-rejects": (["ingest", "--data", "{returns}", "--rejects", "{out}/rejects.txt"], 0,
                       ["rejects.txt"]),
    "sweep-svg": (["sweep", "--data", "{returns}", "--mode", "lehmer", "--svg", "{out}/sweep.svg"], 0,
                  ["sweep.svg"]),
    "sweep-over-a-pipe-buffer": (["sweep", "--data", "{returns}", "--mode", "holder",
                                  "--grid", "0.01:20:0.01"], 0, []),
    "fit-text": (["fit", "--shapes", "1,1,1", "--policy", "lehmer", "--beta", "2", "--data", "{props}"],
                 0, []),
    "fit-csv": (["fit", "--shapes", "1,1,1", "--data", "{props}", "--format", "csv"], 0, []),
    "fit-logs-a-warning": (["fit", "--policy", "lehmer", "--beta", "2", "1e200", "2e200", "4e200"], 0,
                           []),
    "help": (["--help"], 0, []),
    "argparse-error": (["mean", "1", "2"], 2, []),
    "domain-error": (["mean", "--kind", "holder", "--alpha", "2", "0", "-1"], 2, []),
    "unreadable-data": (["fit", "--shapes", "1", "--data", "{out}/missing.csv"], 4, []),
}


def both_exits(name, tmp_path, inputs, **kwargs):
    """``(code, stdout, stderr, written files)`` of command ``name`` through
    the entry and through ``INTERPRETER_EXIT``, each writing into its own
    directory, whose path in stderr reads ``OUT``."""
    results = []
    for entry in (True, False):
        out = tmp_path / ("entry" if entry else "interpreter")
        out.mkdir()
        argv = [a.format(out=out, **inputs) for a in PROCESS_COMMANDS[name][0]]
        code, stdout, stderr = run_process(argv, entry=entry, **kwargs)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((code, stdout, stderr.replace(bytes(out), b"OUT"), files))
    return results


def closed_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    return write


class TestProcessExit:
    # `python -m wmle.cli` ends through cli.entry, which flushes the streams
    # itself and skips the interpreter's teardown.  Each command must print,
    # write and exit exactly as the same command ended by the interpreter.

    @pytest.mark.parametrize("name", sorted(PROCESS_COMMANDS))
    def test_a_command_prints_writes_and_exits_as_at_an_interpreter_exit(self, name, tmp_path,
                                                                      process_inputs):
        got, want = both_exits(name, tmp_path, process_inputs)
        assert got == want
        _, code, files = PROCESS_COMMANDS[name]
        assert got[0] == code
        assert sorted(got[3]) == files and all(got[3].values())
        if name == "sweep-over-a-pipe-buffer":
            assert len(got[1]) > 65536
        if name == "fit-logs-a-warning":
            assert b"no minimality verdict: the covariance of the statistic" in got[2]
            assert b"theta_hat:        [3.e+200]" in got[1]

    def test_output_matches_the_library(self):
        code, out, err = run_process(["mean", "--kind", "holder", "--alpha", "2.5", "0.6", "2"])
        assert (code, out, err) == (0, f"{holder_mean(2.5, [0.6, 2.0])!r}\n".encode(), b"")

    # mean's line and vweights' ~6 KB stay in stdout's buffers until the exit
    # flush, which fails; the big sweep's write fails inside the command.
    # vweights' text is more than the binary buffer holds, so the failed
    # flush drops it: an interpreter flushing again would succeed and exit 0
    # without the report an interpreter exit prints.
    SINK_CASES = [("mean", 120), ("vweights", 120), ("sweep-over-a-pipe-buffer", 4)]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("name, code", SINK_CASES)
    def test_stdout_to_a_full_device(self, name, code, tmp_path, process_inputs):
        with open("/dev/full", "wb") as full:
            got, want = both_exits(name, tmp_path, process_inputs, stdout=full)
        assert got == want
        assert got[0] == code
        assert b"No space left on device" in got[2]

    @pytest.mark.parametrize("name, code", SINK_CASES)
    def test_stdout_to_a_reader_that_closed(self, name, code, tmp_path, process_inputs):
        write = closed_pipe()
        try:
            got, want = both_exits(name, tmp_path, process_inputs, stdout=write)
        finally:
            os.close(write)
        assert got == want
        assert got[0] == code
        assert b"Broken pipe" in got[2]

    def test_unbuffered_stdout_to_a_reader_that_closed(self, tmp_path, process_inputs):
        write = closed_pipe()
        try:
            got, want = both_exits("mean", tmp_path, process_inputs, stdout=write,
                                   env=dict(_process_env(), PYTHONUNBUFFERED="1"))
        finally:
            os.close(write)
        assert got == want
        assert got[:3] == (4, b"", b"error: [Errno 32] Broken pipe\n")

    # name -> (argv, the files it writes into ``{out}``): a command whose
    # result goes to stdout, which fails before any file is written, or with
    # "--out", one that writes only files.
    CLOSED_STDOUT_COMMANDS = {
        "mean": (["mean", "--kind", "lehmer", "--alpha", "2", "0.6", "2"], []),
        "fit-text": (["fit", "--shapes", "1,1,1", "--policy", "lehmer", "--beta", "2", "--data", "{props}"],
                     []),
        "fit-csv": (["fit", "--shapes", "1,1,1", "--data", "{props}", "--format", "csv"], []),
        "vweights": (["vweights"], []),
        "sweep": (["sweep", "--data", "{returns}", "--mode", "lehmer", "--svg", "{out}/sweep.svg"], []),
        "ingest": (["ingest", "--data", "{returns}"], []),
        "vweights --out": (["vweights", "--out", "{out}/vw.csv"], ["vw.csv"]),
        "sweep --out": (["sweep", "--data", "{returns}", "--mode", "holder", "--out", "{out}/sweep.csv"],
                        ["sweep.csv"]),
        "ingest --out": (["ingest", "--data", "{returns}", "--out", "{out}/props.csv",
                          "--rejects", "{out}/rejects.txt"], ["props.csv", "rejects.txt"]),
    }

    @pytest.mark.parametrize("name", sorted(CLOSED_STDOUT_COMMANDS))
    def test_a_closed_stdout_is_an_io_error(self, name, tmp_path, process_inputs):
        # Started with fd 1 closed (`wmle vweights >&-`), the interpreter
        # sets sys.stdout to None.
        argv, files = self.CLOSED_STDOUT_COMMANDS[name]
        argv = [a.format(out=tmp_path, **process_inputs) for a in argv]
        result = subprocess.run([sys.executable, "-m", "wmle.cli", *argv], stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=_process_env(), preexec_fn=lambda: os.close(1))
        notes = [line for line in result.stderr.splitlines() if line.startswith(b"note: ")]
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        if "--out" in name:
            assert (result.returncode, result.stderr.splitlines()) == (0, notes)
        else:
            assert (result.returncode, result.stderr.splitlines()) == (
                4, notes + [b"error: [Errno 9] stdout is closed"])


class TestEntryPoint:
    def test_main_returns_its_code_and_the_process_keeps_running(self, capsys):
        assert main(["mean", "--kind", "lehmer", "--alpha", "2", "0.6", "2"]) == 0
        assert main(["mean", "--kind", "holder", "--alpha", "2", "0", "-1"]) == 2
        assert main(["mean", "1", "2"]) == 2
        probe = ("import wmle.cli; codes = [wmle.cli.main(['mean', '--kind', 'f', '1', '4']),"
                 " wmle.cli.main(['mean', '--kind', 'f', '--alpha', '1', '1'])]; print('after', codes)")
        result = subprocess.run([sys.executable, "-c", probe], env=_process_env(),
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "after [0, 2]"

    def test_the_installed_command_runs_the_entry_of_python_m(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["wmle"]
        module, _, name = target.partition(":")
        function = getattr(importlib.import_module(module), name)
        with open(cli_module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        (statement,) = block.body
        assert ast.unparse(statement) == f"{function.__name__}()"
        assert getattr(cli_module, function.__name__) is function is cli_module.entry
