"""Run perfbench's end-to-end workloads and write one ``BENCH_<pr>.json``.

    python3 tools/bench_trajectory.py --pr 32 --workload fit-large-n --seeds 1-10 --seconds 8
    python3 tools/bench_trajectory.py --pr 32 --workload fit-large-n --seeds 1-10 --seconds 8 \\
        --checkout change=. --checkout parent=../parent-copy

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace
0`` in a fresh process, from the checkout's own ``perfbench``, which
prints two JSON lines: the environment record and the end-to-end metrics.
With several checkouts, every seed runs each of them once, in an order
that alternates from seed to seed, so the runs of one seed form a pair
taken under the same machine load.

The file holds, per checkout and workload, the median and quartiles of
every end-to-end metric over the seeds, N, the first run's environment,
and whether every run was correct; with two checkouts, per workload and
metric, in how many pairs the first checkout did better, how far the
medians differ, and whether that exceeds the second checkout's
interquartile spread (``resolved``).  It also records
numpy's CPU dispatch list, on which the last bits of every estimate
depend, and per checkout the commit its tree is at and whether the tree
differs from it, so an exported copy or an uncommitted tree shows as
such.  The file is rewritten after every run, so a cut session leaves
the runs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The environment record and the metrics line of one ``--trace 0``
    run of ``perfbench/run.py`` on one workload: its last two JSON lines."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError(f"expected two JSON lines, got {len(lines)}")
    info, result = (json.loads(line) for line in lines[-2:])
    if "env" not in info or "metrics" not in result:
        raise ValueError("the last two JSON lines are not an environment record and a metrics line")
    return info, result


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (inclusive method: the quartiles
    of one value are that value)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[tuple[dict, dict]]) -> dict:
    """Per-workload record of the parsed runs of one checkout."""
    first_info, first = runs[0]
    metrics = {}
    for name, metric in first["metrics"].items():
        values = [result["metrics"][name]["value"] for _, result in runs]
        metrics[name] = {"unit": metric["unit"], **quartiles(values), "values": values}
    return {
        "n": len(runs),
        "seeds": [info["env"]["seed"] for info, _ in runs],
        "correct": all(result["correct"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "env": first_info["env"],
        "metrics": metrics,
    }


def pair_wins(first: list[tuple[dict, dict]], second: list[tuple[dict, dict]], better: dict) -> dict:
    """Per metric, in how many pairs (runs of one seed) ``first`` did better
    than ``second``, by the direction ``better`` gives ("higher"/"lower");
    the medians' difference relative to ``second``'s median; ``second``'s
    interquartile spread; and whether the medians differ by more than that
    spread (``resolved``), so that a difference within the noise reads as
    unresolved rather than as no change."""
    wins = {}
    for name, direction in better.items():
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for (_, a), (_, b) in zip(first, second) if name in a["metrics"]]
        if pairs:
            count = sum((x > y) if direction == "higher" else (x < y) for x, y in pairs)
            mine, theirs = quartiles([x for x, _ in pairs]), quartiles([y for _, y in pairs])
            difference, spread = mine["median"] - theirs["median"], theirs["q3"] - theirs["q1"]
            wins[name] = {"first_better": count, "pairs": len(pairs),
                          "median_diff_rel": difference / theirs["median"] if theirs["median"] else None,
                          "second_iqr": spread, "resolved": abs(difference) > spread}
    return wins


def cpu_dispatch() -> list[str]:
    """The CPU features numpy dispatches its loops for in this interpreter."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return sorted(name for name, on in umath.__cpu_features__.items() if on)


def seed_list(spec: str) -> list[int]:
    """``1-10`` or ``1,3,5`` as a list of seeds."""
    seeds = []
    for part in spec.split(","):
        start, _, stop = part.partition("-")
        seeds.extend(range(int(start), int(stop or start) + 1))
    return seeds


def source_record(checkout: Path) -> dict:
    """``git -C DIR rev-parse HEAD`` of a checkout and whether its tree
    differs from that commit (``git status --porcelain`` lists a file); both
    ``None`` unless the checkout is the top of a git work tree."""
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                                  check=False)
        except OSError:  # no git
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != Path(checkout).resolve():
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {done.returncode}: {done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", default="1-5", help="seeds as 1-10 or 1,3,5 (default 1-5)")
    parser.add_argument("--seconds", type=float, default=15.0, help="seconds per run (default 15)")
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                        help="a checkout to run, labelled; repeat to run pairs (default change=<this repo>)")
    parser.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json in this repo)")
    args = parser.parse_args(argv)
    checkouts = dict(spec.split("=", 1) for spec in (args.checkout or [f"change={ROOT}"]))
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    runs = {label: {w: [] for w in args.workload} for label in checkouts}
    record = {"pr": args.pr, "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
              "seconds": args.seconds, "cpu_dispatch": cpu_dispatch(), "checkouts": list(checkouts),
              "sources": {label: source_record(Path(path)) for label, path in checkouts.items()}}
    for workload in args.workload:
        for i, seed in enumerate(seed_list(args.seeds)):
            order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
            for label in order:
                runs[label][workload].append(run_once(Path(checkouts[label]), workload, seed, args.seconds))
                record["workloads"] = {
                    w: {label: summarize(runs[label][w]) for label in checkouts if runs[label][w]}
                    for w in args.workload if any(runs[label][w] for label in checkouts)}
                if len(checkouts) == 2:
                    first, second = checkouts
                    record["pairs"] = {w: pair_wins(runs[first][w], runs[second][w], better)
                                       for w in args.workload}
                out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
