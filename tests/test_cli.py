"""End-to-end tests of the command-line interface."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import wmle
from wmle import NoSolutionError, holder_mean, lehmer_mean
from wmle import mwle as mwle_module
from wmle.cli import SweepTable, main, parse_grid, run_sweep
from wmle.pipeline import ProportionMatrix, aggregate, load_returns

from conftest import SCHEMA_HEADER


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

    def test_domain_error_names_value_and_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mean", "--kind", "holder", "--alpha", "0", "0", "2")
        assert code == 2
        assert "0" in err and "error" in err

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
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
                "--grid=0.5:3:0.5", "--out", str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
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

    def test_nonpositive_holder_grid_exits_2(self, capsys, synthetic_returns_csv):
        code, _, _ = run_cli(
            capsys, "sweep", "--data", synthetic_returns_csv, "--mode", "holder",
            "--grid=0:2:0.5",
        )
        assert code == 2

    def test_solver_gaps_are_recorded_and_run_continues(
        self, monkeypatch, synthetic_returns_csv
    ):
        matrix = aggregate(load_returns(synthetic_returns_csv).rows)
        real_fit = mwle_module.fit

        def flaky_fit(model, observations, policy, **kwargs):
            if policy.kind == "lehmer" and policy.exponents[0] == 0.5:
                raise NoSolutionError("synthetic failure for the gap path")
            return real_fit(model, observations, policy, **kwargs)

        monkeypatch.setattr(mwle_module, "fit", flaky_fit)
        table = run_sweep(matrix, "lehmer", np.array([0.0, 0.5, 1.0]))
        assert list(table.gaps) == [0.5]
        assert np.all(np.isnan(table.estimates[1]))
        assert np.all(np.isfinite(table.estimates[[0, 2]]))
        parsed = SweepTable.from_csv(table.to_csv())
        assert list(parsed.gaps) == [0.5]
        np.testing.assert_array_equal(
            np.isnan(parsed.estimates), np.isnan(table.estimates)
        )


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
        matrix = ProportionMatrix.from_csv(out_path.read_text(encoding="utf-8"))
        np.testing.assert_allclose(matrix.values[0], [0.6, 0.3, 0.1], atol=1e-12)
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


class TestRuntimeDependencies:
    def test_imports_load_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-only oracle.
        src = os.path.dirname(os.path.dirname(wmle.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, wmle, wmle.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"
