"""Tests for the trajectory writer's parsing and summaries, on canned lines,
and its source records, on a throwaway git repository; no benchmark runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def _run_stdout(seed, items_per_s, op_p50_s, correct=True):
    info = {"workload": "fit-large-n", "trace": 0, "scale": "full",
            "env": {"cpu": "test cpu", "nproc": 2, "numpy": "2.0", "seed": seed, "commit": "abc"},
            "attempted": 66, "failed": 0}
    result = {"correct": correct, "attempted": 66, "failed": 1 if not correct else 0,
              "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                          "op_p50_s": {"value": op_p50_s, "unit": "s"}}}
    return "note: a line that is not JSON\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"


class TestParseRun:
    def test_the_last_two_json_lines_are_the_environment_and_the_metrics(self):
        info, result = bench_trajectory.parse_run(_run_stdout(3, 9.5e7, 0.34))
        assert info["env"]["seed"] == 3
        assert result["metrics"]["items_per_s"] == {"value": 9.5e7, "unit": "1/s"}

    @pytest.mark.parametrize("stdout", ["", "{}\n", '{"env": {}}\n{"correct": true}\n'])
    def test_output_without_both_lines_is_refused(self, stdout):
        with pytest.raises(ValueError):
            bench_trajectory.parse_run(stdout)


class TestSummaries:
    def test_quartiles_of_one_value_and_of_several(self):
        assert bench_trajectory.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}
        assert bench_trajectory.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_a_workload_record_holds_each_metric_n_the_environment_and_correctness(self):
        runs = [bench_trajectory.parse_run(_run_stdout(s, v, 0.3, correct=s != 2))
                for s, v in ((1, 1.0), (2, 3.0), (3, 2.0))]
        record = bench_trajectory.summarize(runs)
        assert (record["n"], record["seeds"], record["correct"], record["failed"]) == (3, [1, 2, 3], False, 1)
        assert record["env"]["cpu"] == "test cpu"
        assert record["metrics"]["items_per_s"] == {"unit": "1/s", "median": 2.0, "q1": 1.5, "q3": 2.5,
                                                     "values": [1.0, 3.0, 2.0]}

    def test_pair_wins_follow_each_metrics_direction(self):
        change = [bench_trajectory.parse_run(_run_stdout(s, v, p)) for s, v, p in ((1, 5.0, 0.3), (2, 5.0, 0.5))]
        parent = [bench_trajectory.parse_run(_run_stdout(s, v, p)) for s, v, p in ((1, 4.0, 0.4), (2, 6.0, 0.4))]
        wins = bench_trajectory.pair_wins(change, parent, {"items_per_s": "higher", "op_p50_s": "lower"})
        assert {name: (w["first_better"], w["pairs"]) for name, w in wins.items()} == {
            "items_per_s": (1, 2), "op_p50_s": (1, 2)}

    def test_a_difference_within_the_second_spread_is_unresolved(self):
        change = [bench_trajectory.parse_run(_run_stdout(s, v, p))
                  for s, v, p in ((1, 10.0, 0.30), (2, 11.0, 0.31), (3, 12.0, 0.32))]
        parent = [bench_trajectory.parse_run(_run_stdout(s, v, p))
                  for s, v, p in ((1, 9.0, 0.40), (2, 11.0, 0.41), (3, 13.0, 0.42))]
        wins = bench_trajectory.pair_wins(change, parent, {"items_per_s": "higher", "op_p50_s": "lower"})
        # items_per_s: equal medians inside a spread of 2; op_p50_s: 0.1 apart, spread 0.01.
        assert wins["items_per_s"] == {"first_better": 1, "pairs": 3, "median_diff_rel": 0.0,
                                       "second_iqr": 2.0, "resolved": False}
        p50 = wins["op_p50_s"]
        assert p50["resolved"] and p50["median_diff_rel"] == pytest.approx(-0.1 / 0.41)
        assert p50["second_iqr"] == pytest.approx(0.01)

    def test_seed_lists(self):
        assert bench_trajectory.seed_list("1-4") == [1, 2, 3, 4]
        assert bench_trajectory.seed_list("1,3,7-8") == [1, 3, 7, 8]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestSourceRecord:
    def test_a_commit_a_changed_tree_and_directories_outside_git(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)

        def git(*args):
            return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com",
                                   *args], check=True, capture_output=True, text=True).stdout.strip()

        git("init", "-q")
        (repo / "a.txt").write_text("one\n")
        git("add", "a.txt")
        git("commit", "-q", "-m", "one")
        head = git("rev-parse", "HEAD")
        assert bench_trajectory.source_record(repo) == {"commit": head, "dirty": False}
        (repo / "a.txt").write_text("two\n")
        assert bench_trajectory.source_record(repo) == {"commit": head, "dirty": True}
        # A copy inside another work tree, or outside any, is not a commit.
        for outside in (repo / "sub", tmp_path):
            assert bench_trajectory.source_record(outside) == {"commit": None, "dirty": None}
