"""Self-check of the benchmark itself (``python3 perfbench/run.py --self-check``).

1. Runs every workload once untraced and once traced on tiny inputs, and
   asserts that the result line is correct and carries every metric of
   BENCHMARK.json by name, with its unit and a finite value.
2. Produces real outputs with the library (a sweep CSV, an ingested
   proportion matrix, the reject list, a fit) and shows that each oracle
   accepts them and rejects a deliberately perturbed copy.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import common
import gen
import oracle
import run


def _metrics_complete(line: dict, units: dict) -> list[str]:
    problems = []
    metrics = line["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metric names differ: missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, unit in units.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def check_runs(seed: int) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            line, info = run.run_workload(workload, seed, 0.2, trace, scale="tiny")
            units = run.metric_units(trace)
            label = f"{workload} trace={int(trace)}"
            found = _metrics_complete(line, units)
            if not line["correct"]:
                found.append(f"incorrect output: {info['first_errors']}")
            if line["attempted"] < 1:
                found.append("no operation attempted")
            json.loads(json.dumps(line, allow_nan=False))
            print(f"{'ok ' if not found else 'BAD'} {label}: {len(line['metrics'])} metrics, "
                  f"attempted={line['attempted']} failed={line['failed']} {info['failures_by_type']}")
            problems += [f"{label}: {problem}" for problem in found]
    return problems


def _perturb_csv_cell(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_oracles(seed: int) -> list[str]:
    import wmle.cli as cli
    import wmle.families as families
    import wmle.mwle as mwle
    import wmle.pipeline as pipeline

    problems = []

    def expect(label: str, verdict_ok, verdict_bad):
        good = verdict_ok is None and verdict_bad is not None
        print(f"{'ok ' if good else 'BAD'} oracle {label}: accepts real output, "
              f"rejects perturbed copy ({verdict_bad})")
        if not good:
            problems.append(f"oracle {label}: real -> {verdict_ok!r}, perturbed -> {verdict_bad!r}")

    case = gen.returns_file(seed, races_per_cycle=6)
    years, props = gen.exact_proportions(case.counts)
    matrix = pipeline.ProportionMatrix(years=tuple(years), values=props)

    text = cli.run_sweep(matrix, "lehmer", cli.parse_grid(run.DEFAULT_LEHMER_GRID)).to_csv()
    want = run._sweep_expectation(props, "lehmer", run.DEFAULT_LEHMER_GRID)
    expect("sweep CSV",
           oracle.check_sweep_csv(text, want["lehmer_orders"], want["lehmer_rows"]),
           oracle.check_sweep_csv(_perturb_csv_cell(text, 5, 2, 1 + 1e-10),
                                  want["lehmer_orders"], want["lehmer_rows"]))

    path = common.WORK_ROOT / f"selfcheck-{seed}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(case.text, encoding="utf-8")
    try:
        loaded = pipeline.load_returns(str(path))
    finally:
        path.unlink()
    got = pipeline.aggregate(loaded.rows)
    bumped = got.values.copy()
    bumped[3, 1] *= 1 + 1e-14
    expect("exact proportions",
           oracle.check_proportions(got.years, got.values, years, props),
           oracle.check_proportions(got.years, bumped, years, props))
    expect("proportions CSV",
           oracle.check_proportions_csv(got.to_csv(), years, props),
           oracle.check_proportions_csv(_perturb_csv_cell(got.to_csv(), 2, 1, 1 + 1e-9), years, props))
    lines = [r.line_number for r in loaded.rejects]
    expect("reject lines",
           oracle.check_reject_lines(lines, case.reject_lines),
           oracle.check_reject_lines(lines[1:], case.reject_lines))

    x = gen.log_uniform(seed, 2_000)
    theta = mwle.fit(families.weibull_model(np.ones(3)), x,
                     mwle.WeightPolicy.lehmer(np.full(3, 4.0))).theta_hat
    want_theta = oracle.mean_columns("lehmer", 4.0, x)
    expect("Lehmer fit",
           oracle.check_values(theta, want_theta, oracle.REL_MODERATE, "theta"),
           oracle.check_values(theta * (1 + 1e-11), want_theta, oracle.REL_MODERATE, "theta"))
    return problems


def main() -> int:
    sys.path.insert(0, str(common.SRC))
    seed = 7
    problems = check_runs(seed) + check_oracles(seed)
    for problem in problems:
        print(f"problem: {problem}")
    print("self-check " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1
