"""Benchmark runner for the wmle library and CLI.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-check

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli-case-study``  the senate case study, one fresh ``python -m wmle.cli``
  process per command (ingest, two sweeps, two fits, mean, vweights);
* ``fit-large-n``     ``mwle.fit`` on a 1e6 x 3 log-uniform matrix at
  moderate and extreme Lehmer orders and Holder shapes;
* ``sweep-dense``     ``cli.run_sweep`` over 7001 + 5901 grid points, CSV
  and SVG written;
* ``ingest-precinct`` ``load_returns`` -> ``aggregate`` -> ``to_csv`` on a
  2e5-row returns file.

The runner generates the inputs from ``--seed``, computes the oracle
answers, times fresh-interpreter imports (``setup_s``), then starts one
worker process (``worker.py``) that runs the closed loop.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the line before it records the
machine, versions, seed, sample counts and failure classes.

Exits 2 without a result when the checkout has no ``src/wmle``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import common
import gen
import oracle

WORKLOADS = ("cli-case-study", "fit-large-n", "sweep-dense", "ingest-precinct")

#: wmle modules each workload imports; ``setup_s`` times importing them.
SETUP_MODULES = {
    "cli-case-study": ("wmle.cli",),
    "fit-large-n": ("wmle.mwle", "wmle.families"),
    "sweep-dense": ("wmle.cli", "wmle.svg"),
    "ingest-precinct": ("wmle.pipeline",),
}
SETUP_REPS = 7

#: Workloads whose latency sample is a whole pass rather than one operation.
#: The fits of ``fit-large-n`` differ about fivefold in cost by design
#: (failing extreme orders, Holder, Lehmer), so the median single fit sat
#: on the boundary between kinds and moved 20% from run to run; the scan
#: over all eleven orders is one user-level request.
SCAN_WORKLOADS = ("fit-large-n",)
IMPORT_PROBE_REPS = 3

FIT_LEHMER_ORDERS = (-2.0, 0.5, 2.0, 4.0, 200.0, -200.0)
FIT_HOLDER_SHAPES = (0.5, 2.0, 6.0, 60.0, 200.0)
DEFAULT_LEHMER_GRID = "-3:4:0.1"
DEFAULT_HOLDER_GRID = "0.1:6:0.1"

#: Input sizes.  ``tiny`` is what the self-check runs.
SIZES = {
    "full": {"races": 33, "precincts": 64, "fit_n": 1_000_000, "sweep_step": "0.001"},
    "tiny": {"races": 6, "precincts": 2, "fit_n": 3_000, "sweep_step": "0.05"},
}



def metric_units(trace: bool) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for one kind of run."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --------------------------------------------------------------------- #
# Inputs and oracle answers
# --------------------------------------------------------------------- #


def _grid(spec: str) -> list[float]:
    """The benchmark's own reading of start:stop:step (inclusive)."""
    start, stop, step = (float(p) for p in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _sweep_expectation(values, mode: str, spec: str) -> dict:
    orders = _grid(spec)
    return {
        f"{mode}_orders": orders,
        f"{mode}_rows": [oracle.mean_columns(mode, o, values) for o in orders],
    }


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def prepare(workload: str, seed: int, scale: str, work: Path) -> dict:
    size = SIZES[scale]
    case = gen.returns_file(seed, races_per_cycle=size["races"])
    years, props = gen.exact_proportions(case.counts)
    job = {
        "workload": workload,
        "seed": seed,
        "case": {"years": years, "proportions": props.tolist()},
        "probe": {"returns": _write(work / "case_returns.csv", case.text)},
        "inputs": {},
        "expected": {},
    }
    e = job["expected"]
    if workload == "cli-case-study":
        job["inputs"]["returns"] = job["probe"]["returns"]
        csv_values = [[float(f"{v:.12g}") for v in row] for row in props]
        rng = gen.rng_for(seed, "cli")
        pair = [round(rng.uniform(0.2, 5.0), 6) for _ in range(2)]
        e.update(years=years, proportions=props.tolist(), reject_lines=case.reject_lines)
        e.update(_sweep_expectation(props, "lehmer", DEFAULT_LEHMER_GRID))
        e.update(_sweep_expectation(props, "holder", DEFAULT_HOLDER_GRID))
        e["fit_lehmer"] = oracle.mean_columns("lehmer", 2.0, csv_values)
        e["fit_holder"] = oracle.mean_columns("holder", 2.0, csv_values)
        e["mean_values"] = props[:, 0].tolist()
        e["mean"] = oracle.lehmer(2.0, props[:, 0])
        e["vweights_pair"] = pair
        rows = []
        for alpha in _grid("-4:6:0.1"):
            powered = [v ** alpha for v in pair]
            rows.append([alpha] + [p / math.fsum(powered) for p in powered] + [p / 2.0 for p in powered])
        e["vweights"] = rows
    elif workload == "fit-large-n":
        n = size["fit_n"]
        x = gen.log_uniform(seed, n)
        job["inputs"]["n"] = n
        e["fits"] = [["lehmer", a, oracle.mean_columns("lehmer", a, x)] for a in FIT_LEHMER_ORDERS]
        e["fits"] += [["holder", k, oracle.mean_columns("holder", k, x)] for k in FIT_HOLDER_SHAPES]
    elif workload == "sweep-dense":
        step = size["sweep_step"]
        for mode, lo_hi in (("lehmer", "-3:4"), ("holder", "0.1:6")):
            spec = f"{lo_hi}:{step}"
            job["inputs"][f"{mode}_grid"] = spec
            e.update(_sweep_expectation(props, mode, spec))
    else:
        precinct = gen.returns_file(seed, races_per_cycle=size["races"], precincts=size["precincts"],
                                    zero_other_cycle=True)
        p_years, p_props = gen.exact_proportions(precinct.counts)
        job["inputs"]["returns"] = _write(work / "precinct_returns.csv", precinct.text)
        e.update(years=p_years, proportions=p_props.tolist(), reject_lines=precinct.reject_lines,
                 rows_read=precinct.rows_read)
    return job


# --------------------------------------------------------------------- #
# Fresh-interpreter timings
# --------------------------------------------------------------------- #


def time_import(modules, reps: int, work: Path) -> float:
    """Median seconds to import ``modules`` in fresh interpreters, after one
    warm-up, each scaled by the interpreter kernel timed just before it."""
    code = common.child_code(
        "t = perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(perf_counter() - t))\n"
    )
    ref_path = work / "import.ref"
    env = common.child_env({"PERFBENCH_REF_OUT": str(ref_path)})
    samples = []
    for i in range(reps + 1):
        out, err = work / "import.out", work / "import.err"
        rc, _rss = common.run_child([sys.executable, "-c", code], cwd=work, stdout_path=out,
                                    stderr_path=err, timeout=60, env=env)
        if rc != 0:
            raise RuntimeError(f"importing {modules} failed: {err.read_text()[-300:]}")
        if i:
            samples.append(common.scale(float(out.read_text()), float(ref_path.read_text()),
                                        common.PY_REF_NOMINAL_S))
    return common.median(samples)


# --------------------------------------------------------------------- #
# Environment record
# --------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            if level > best[0]:
                best = (level, f"L{level} {(index / 'size').read_text().strip()}")
        except (OSError, ValueError):
            continue
    return best[1]


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "blas_threads": 1,
    }


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """Runs one workload; returns (result line, info record)."""
    work = common.WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = prepare(workload, seed, scale, work)
        job.update(seconds=seconds, trace=int(trace),
                   spans_out=str(common.RESULTS_DIR / f"{workload}.spans.csv.gz"))
        (work / "job.json").write_text(json.dumps(job))
        info = {"workload": workload, "trace": int(trace), "scale": scale, "env": environment(seed)}

        metrics = {}
        if not trace:
            metrics["setup_s"] = time_import(SETUP_MODULES[workload], SETUP_REPS, work)
            info["setup_samples"] = SETUP_REPS
        else:
            for metric, modules in (("cli.import_s", ("wmle.cli",)),
                                    ("cli.import_numpy_s", ("numpy",)),
                                    ("cli.import_scipy_special_s", ("scipy.special",))):
                metrics[metric] = time_import(modules, IMPORT_PROBE_REPS, work)

        rc, worker_rss = common.run_child(
            common.python_child("worker.py", work), cwd=common.ROOT,
            stdout_path=work / "worker.out", stderr_path=work / "worker.err",
            timeout=seconds + 120,
        )
        if rc != 0:
            raise RuntimeError(f"worker exited {rc}: {(work / 'worker.err').read_text()[-2000:]}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if r[4] != "ok")
    failures = {}
    for r in records:
        if r[4] != "ok":
            failures[r[5]] = failures.get(r[5], 0) + 1
    info.update(result["info"])
    info["pass_seconds"] = {k: [round(v, 4) for v in walls] for k, walls in result["pass_walls"].items()}
    info.update(attempted=attempted, failed=failed, failures_by_type=failures,
                first_errors=result["errors"][:8])

    if trace:
        metrics.update(result["layers"])
    else:
        # All passes of an untraced run are untraced.
        walls = [common.scale(r[3], r[7], r[8]) for r in records]
        samples = walls
        if workload in SCAN_WORKLOADS:
            per_pass: dict = {}
            for r, wall in zip(records, walls):
                per_pass[r[0]] = per_pass.get(r[0], 0.0) + wall
            samples = list(per_pass.values())
        tail_value, beyond = common.tail(samples)
        metrics["op_p50_s"] = common.median(samples)
        metrics["op_tail_s"] = tail_value
        metrics["items_per_s"] = sum(r[6] for r in records) / sum(walls)
        rss = result["child_rss_mb"] or [worker_rss]
        metrics["peak_rss_mb"] = max(rss)
        metrics["ops_ok_frac"] = (attempted - failed) / attempted
        raw_walls = [r[3] for r in records]
        info.update(op_samples=len(samples), tail_percentile=common.TAIL_PERCENTILE,
                    samples_beyond_tail=beyond, passes=len({r[0] for r in records}),
                    reference_median_s=common.median(r[7] for r in records),
                    reference_nominal_s=common.median(r[8] for r in records),
                    raw_op_p50_s=common.median(raw_walls), raw_op_tail_s=common.tail(raw_walls)[0],
                    raw_items_per_s=sum(r[6] for r in records) / sum(raw_walls))
    units = metric_units(trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    bad = sorted(name for name in units if not math.isfinite(metrics[name]))
    if bad:
        raise RuntimeError(f"metrics not finite: {bad}")
    line = {
        "correct": not result["incorrect"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return line, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once on tiny inputs and test the oracles")
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"error: no wmle sources under {common.SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        line, info = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(info), flush=True)
        if len(workloads) > 1:
            print(f"== {workload}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}")
            for name, m in line["metrics"].items():
                print(f"   {name:<34} {m['value']:.6g} {m['unit']}")
        lines[workload] = line
    if len(workloads) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        print(json.dumps({"workloads": lines}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
