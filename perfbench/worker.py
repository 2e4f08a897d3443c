"""One benchmark run's closed loop, in a process of its own.

    python3 perfbench/worker.py WORK_DIR

Reads ``WORK_DIR/job.json`` written by ``run.py`` (workload, seconds, trace
flag, input paths, oracle expectations), runs whole passes of the
workload's operations back to back (one client, closed loop) until the time
is used, checks every output, and writes ``WORK_DIR/result.json``.

An operation fails on any exception, a nonzero exit, an output outside the
oracle tolerance, or output bytes that differ from the first pass's.  The
last two also make the run incorrect.

With tracing on, untraced and traced passes alternate: the untraced ones
give the tracing overhead, the traced ones the spans.  Each traced pass is
followed by a traced probe suite (the ROADMAP baselines plus a real-size
ingest and two default-minimality fits), so every layer has spans on every
workload.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import common
import gen
import oracle
import tracing


@dataclass
class Op:
    name: str
    items: float
    run: Callable[[], object]
    check: Callable[[object], object]
    identity: Callable[[object], bytes]


# --------------------------------------------------------------------- #
# Workload operations
# --------------------------------------------------------------------- #


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _csv_fields(text: str) -> dict:
    return dict(line.split(",", 1) for line in text.splitlines()[1:] if "," in line)


_RUN_CLI = "import runpy\nrunpy.run_module('wmle.cli', run_name='__main__', alter_sys=True)\n"


class CliOps:
    """The case study as a user runs it: one fresh process per command."""

    def __init__(self, job, work: Path):
        self.job = job
        self.work = work
        self.exp = job["expected"]
        self.child_rss: list[float] = []
        self.shim_dumps: list[Path] = []
        self.traced = False
        self.counter = 0
        self.ref_path = work / "cli.ref"

    def _invoke(self, argv, outputs):
        self.counter += 1
        out = self.work / "stdout.txt"
        err = self.work / "stderr.txt"
        extra = {"PERFBENCH_REF_OUT": str(self.ref_path)}
        if self.traced:
            dump = self.work / f"spans-{self.counter}.json"
            extra.update(PERFBENCH_SPANS=str(dump), PERFBENCH_TRACE_ID=str(self.counter))
            cmd = common.python_child("cli_shim.py", *argv)
            self.shim_dumps.append(dump)
        else:
            # What ``python -m wmle.cli`` does, after the interpreter kernel.
            cmd = [sys.executable, "-c", common.child_code(_RUN_CLI), *argv]
        env = common.child_env(extra)
        self.ref_path.unlink(missing_ok=True)
        code, rss = common.run_child(cmd, cwd=self.work, stdout_path=out, stderr_path=err,
                                     timeout=60, env=env)
        self.child_rss.append(rss)
        if code != 0:
            tail = _read(err).decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
            raise ChildExitError(f"exit {code}: {tail[0][:160]}")
        return tuple([_read(out)] + [_read(self.work / name) for name in outputs])

    def child_reference(self) -> float | None:
        """Seconds the last CLI process spent on the interpreter kernel."""
        try:
            return float(self.ref_path.read_text())
        except (OSError, ValueError):
            return None

    def ops(self) -> list[Op]:
        w = self.job["inputs"]["returns"]
        e = self.exp

        def ingest_check(out):
            _stdout, props, rejects = out
            err = oracle.check_proportions_csv(props.decode(), e["years"], e["proportions"])
            if err:
                return err
            lines = [int(line.split(",", 1)[0]) for line in rejects.decode().splitlines()[1:]]
            return oracle.check_reject_lines(lines, e["reject_lines"])

        def sweep_check(mode):
            def check(out):
                _stdout, table, chart = out
                if not chart.startswith(b"<svg"):
                    return f"{mode} chart is not an SVG document"
                return oracle.check_sweep_csv(table.decode(), e[f"{mode}_orders"], e[f"{mode}_rows"])
            return check

        def fit_check(key):
            def check(out):
                fields = _csv_fields(out[0].decode())
                got = [float(fields.get(f"theta_{j}", "nan")) for j in (1, 2, 3)]
                return oracle.check_values(got, e[key], oracle.REL_MODERATE, key)
            return check

        def mean_check(out):
            return oracle.check_values([float(out[0].decode())], [e["mean"]], oracle.REL_MODERATE, "mean")

        def vweights_check(out):
            rows = [[float(c) for c in line.split(",")] for line in out[1].decode().splitlines()[1:]]
            if len(rows) != len(e["vweights"]):
                return f"vweights has {len(rows)} rows, expected {len(e['vweights'])}"
            for got, want in zip(rows, e["vweights"]):
                err = oracle.check_values(got, want, oracle.REL_MODERATE, f"vweights[{want[0]:g}]")
                if err:
                    return err
            return None

        def cli_op(name, argv, outputs, check):
            return Op(name, 1.0, lambda: self._invoke(argv, outputs), check, lambda out: b"\0".join(out))

        mean_args = [repr(v) for v in e["mean_values"]]
        return [
            cli_op("ingest", ["ingest", "--data", w, "--out", "props.csv", "--rejects", "rejects.csv"],
                   ["props.csv", "rejects.csv"], ingest_check),
            cli_op("sweep-lehmer", ["sweep", "--data", w, "--mode", "lehmer", "--out", "lehmer.csv",
                                    "--svg", "lehmer.svg"], ["lehmer.csv", "lehmer.svg"], sweep_check("lehmer")),
            cli_op("sweep-holder", ["sweep", "--data", w, "--mode", "holder", "--out", "holder.csv",
                                    "--svg", "holder.svg"], ["holder.csv", "holder.svg"], sweep_check("holder")),
            cli_op("fit-lehmer", ["fit", "--data", "props.csv", "--policy", "lehmer", "--beta", "2",
                                  "--shapes", "1,1,1", "--format", "csv"], [], fit_check("fit_lehmer")),
            cli_op("fit-holder", ["fit", "--data", "props.csv", "--policy", "holder",
                                  "--shapes", "2,2,2", "--format", "csv"], [], fit_check("fit_holder")),
            cli_op("mean", ["mean", "--kind", "lehmer", "--alpha", "2", *mean_args], [], mean_check),
            cli_op("vweights", ["vweights", "--grid=-4:6:0.1", "--out", "vweights.csv",
                                *[repr(v) for v in e["vweights_pair"]]], ["vweights.csv"], vweights_check),
        ]


class ChildExitError(Exception):
    """A CLI process exited with a nonzero code."""


def fit_ops(job) -> list[Op]:
    import wmle.families as families
    import wmle.mwle as mwle

    n = job["inputs"]["n"]
    x = gen.log_uniform(job["seed"], n)
    ops = []
    for kind, order, want in job["expected"]["fits"]:
        def run(kind=kind, order=order):
            if kind == "lehmer":
                model = families.weibull_model(np.ones(3))
                policy = mwle.WeightPolicy.lehmer(np.full(3, order))
            else:
                model = families.weibull_model(np.full(3, order))
                policy = mwle.WeightPolicy.holder()
            return mwle.fit(model, x, policy).theta_hat

        def check(theta, kind=kind, order=order, want=want):
            return oracle.check_values(theta, want, oracle.tolerance(order), f"{kind}({order:g})")

        ops.append(Op(f"{kind}:{order:g}", float(x.size), run, check, lambda theta: theta.tobytes()))
    return ops


def render_sweep(table, mode):
    """The write side of ``wmle sweep``: the CSV text and the SVG chart."""
    import wmle.svg as svg

    chart = svg.render_line_chart(
        table.orders,
        {
            "lambda_dem": table.estimates[:, 0],
            "lambda_rep": table.estimates[:, 1],
            "lambda_oth": table.estimates[:, 2],
        },
        title=f"Scale estimates vs {table.parameter} ({mode} sweep)",
        x_label=table.parameter,
        y_label="estimated scale",
    )
    return table.to_csv(), chart


def case_matrix(job):
    import wmle.pipeline as pipeline

    case = job["case"]
    return pipeline.ProportionMatrix(years=tuple(case["years"]), values=np.asarray(case["proportions"]))


#: Grid points per ``run_sweep`` call, about.  Each operation sweeps the
#: i-th of k slices of the lehmer grid and then the i-th slice of the holder
#: grid, so every operation costs about the same and a run holds dozens of
#: latency samples rather than four, while each call still fits hundreds
#: of grid points.
SWEEP_SLICE = 500


def sweep_ops(job) -> list[Op]:
    import wmle.cli as cli

    matrix = case_matrix(job)
    e = job["expected"]
    grids = {mode: cli.parse_grid(job["inputs"][f"{mode}_grid"]) for mode in ("lehmer", "holder")}
    k = -(-max(g.size for g in grids.values()) // SWEEP_SLICE)
    bounds = {mode: [(int(p[0]), int(p[-1]) + 1) for p in np.array_split(np.arange(g.size), k)]
              for mode, g in grids.items()}
    ops = []
    for i in range(k):
        parts = [(mode, *bounds[mode][i]) for mode in grids]

        def run(parts=parts):
            return [render_sweep(cli.run_sweep(matrix, mode, grids[mode][lo:hi]), mode)
                    for mode, lo, hi in parts]

        def check(out, parts=parts):
            for (mode, lo, hi), (table, chart) in zip(parts, out):
                if not chart.startswith("<svg"):
                    return f"{mode} chart is not an SVG document"
                err = oracle.check_sweep_csv(table, e[f"{mode}_orders"][lo:hi], e[f"{mode}_rows"][lo:hi])
                if err:
                    return err
            return None

        ops.append(Op(f"sweep-slice-{i}", float(sum(hi - lo for _mode, lo, hi in parts)), run, check,
                      lambda out: "\0".join(text for pair in out for text in pair).encode()))
    return ops


def ingest_ops(job) -> list[Op]:
    import wmle.pipeline as pipeline

    path = job["inputs"]["returns"]
    e = job["expected"]

    def run():
        loaded = pipeline.load_returns(path)
        matrix = pipeline.aggregate(loaded.rows)
        return matrix, [r.line_number for r in loaded.rejects], matrix.to_csv()

    def check(out):
        matrix, reject_lines, _text = out
        err = oracle.check_proportions(matrix.years, matrix.values, e["years"], e["proportions"])
        return err or oracle.check_reject_lines(reject_lines, e["reject_lines"])

    def identity(out):
        matrix, reject_lines, text = out
        return text.encode() + matrix.values.tobytes() + repr(reject_lines).encode()

    return [Op("ingest", float(e["rows_read"]), run, check, identity)]


# --------------------------------------------------------------------- #
# Probes (traced run only)
# --------------------------------------------------------------------- #


class Probes:
    def __init__(self, job):
        import wmle.pipeline as pipeline

        self.job = job
        self.matrix = case_matrix(job)
        self.returns = job["probe"]["returns"]
        self.x1e5 = gen.log_uniform(job["seed"], 100_000)
        self.pipeline = pipeline

    def traced_suite(self):
        """Exercises every layer once; run with tracing on after each traced pass."""
        import wmle.cli as cli
        import wmle.families as families
        import wmle.mwle as mwle

        for mode, spec in (("lehmer", "-3:4:0.1"), ("holder", "0.1:6:0.1")):
            render_sweep(cli.run_sweep(self.matrix, mode, cli.parse_grid(spec)), mode)
        unit = families.weibull_model(np.ones(3))
        mwle.fit(unit, self.x1e5, mwle.WeightPolicy.lehmer(np.full(3, 2.0)), minimality_samples=0)
        mwle.fit(families.weibull_model(np.ones(3)), self.matrix.values,
                 mwle.WeightPolicy.lehmer(np.full(3, 2.0)))
        mwle.fit(families.weibull_model(np.full(3, 2.0)), self.matrix.values, mwle.WeightPolicy.holder())
        loaded = self.pipeline.load_returns(self.returns)
        self.pipeline.aggregate(loaded.rows).to_csv()

    def baselines(self) -> dict:
        """ROADMAP re-anchor baselines, untraced, median of three."""
        import wmle.cli as cli
        import wmle.families as families
        import wmle.mwle as mwle

        lehmer_grid = cli.parse_grid("-3:4:0.1")
        holder_grid = cli.parse_grid("0.1:6:0.1")
        unit = families.weibull_model(np.ones(3))
        policy = mwle.WeightPolicy.lehmer(np.full(3, 2.0))
        return {
            "probe.run_sweep_lehmer_71_s": _timed(lambda: cli.run_sweep(self.matrix, "lehmer", lehmer_grid), 3),
            "probe.run_sweep_holder_60_s": _timed(lambda: cli.run_sweep(self.matrix, "holder", holder_grid), 3),
            "probe.fit_1e5x3_lehmer_s": _timed(
                lambda: mwle.fit(unit, self.x1e5, policy, minimality_samples=0), 3),
        }

    def means(self) -> dict:
        import wmle.means as means

        xs = gen.log_uniform(self.job["seed"], 1_000_000, 1)[:, 0]
        out = {}
        for label, n in (("23", 23), ("1e3", 1_000), ("1e5", 100_000), ("1e6", 1_000_000)):
            x = xs[:n]
            out[f"means.lehmer_mean_n{label}_s"] = _timed(lambda: means.lehmer_mean(2.0, x))
            out[f"means.holder_mean_n{label}_s"] = _timed(lambda: means.holder_mean(2.0, x))
            out[f"means.v_weights_n{label}_s"] = _timed(lambda: means.v_weights("lehmer", 2.0, x))
        return out

    @staticmethod
    def solver(targets) -> tuple[dict, dict]:
        """Times ``inverse_mean_map`` per path on targets the workload produced."""
        import wmle.expfam as expfam
        import wmle.families as families

        unique = sorted(set(targets))
        step = max(1, len(unique) // 48)
        sample = unique[::step][:48]
        times = defaultdict(list)
        iters = defaultdict(list)
        fallbacks = 0
        newton_runs = 0
        problems = Counter()
        for shapes, target in sample:
            model = families.weibull_model(np.asarray(shapes))
            for method in ("closed", "newton", "bisect"):
                try:
                    times[method].append(_timed(lambda: expfam.inverse_mean_map(model, target, method=method), 1))
                    info = expfam._solve_mean_target(model, target, method=method)
                except Exception as exc:  # a probe failing is reported, not fatal
                    problems[f"{method}:{type(exc).__name__}"] += 1
                    continue
                iters[method].append(info.iterations)
                if method == "newton":
                    newton_runs += 1
                    fallbacks += info.method != "newton"
        metrics = {
            "expfam.solve_closed_s": _median_or_nan(times["closed"]),
            "expfam.solve_newton_s": _median_or_nan(times["newton"]),
            "expfam.solve_bisect_s": _median_or_nan(times["bisect"]),
            "expfam.newton_iters": _mean_or_nan(iters["newton"]),
            "expfam.bisect_iters": _mean_or_nan(iters["bisect"]),
            "expfam.newton_fallback_ratio": fallbacks / newton_runs if newton_runs else float("nan"),
        }
        return metrics, {"solver_targets": len(sample), "solver_probe_failures": dict(problems)}


def _median_or_nan(values):
    return common.median(values) if values else float("nan")


def _mean_or_nan(values):
    return sum(values) / len(values) if values else float("nan")


def _timed(fn, reps: int | None = None) -> float:
    """Median seconds per call; with ``reps`` unset, repeat for at least 50 ms."""
    samples = []
    total = 0.0
    while True:
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        samples.append(dt)
        total += dt
        if reps is not None:
            if len(samples) >= reps:
                break
        elif len(samples) >= 3 and (total >= 0.05 or len(samples) >= 2000):
            break
    return common.median(samples)


# --------------------------------------------------------------------- #
# The loop
# --------------------------------------------------------------------- #

#: Per-layer self times reported from spans, keyed by span name.
SELF_TIME_METRICS = {
    "cli.run_sweep": "cli.run_sweep_self_s",
    "cli.to_csv": "cli.to_csv_s",
    "cli.validate_sweep_table": "cli.validate_sweep_table_s",
    "svg.render_line_chart": "svg.render_line_chart_s",
    "mwle.fit": "mwle.fit_self_s",
    "mwle.apply_policy": "mwle.apply_policy_s",
    "mwle.weighted_stat_mean": "mwle.weighted_stat_mean_s",
    "expfam.weighted_dataset": "expfam.weighted_dataset_s",
    "expfam.stat_covariance": "expfam.stat_covariance_s",
    "expfam.check_minimality": "expfam.check_minimality_s",
    "expfam.solve_mean_target": "expfam.solve_mean_target_s",
    "families.weibull_model": "families.weibull_model_s",
    "families.sufficient_stat": "families.sufficient_stat_s",
    "pipeline.load_returns": "pipeline.load_returns_s",
    "pipeline.aggregate": "pipeline.aggregate_s",
    "pipeline.to_csv": "pipeline.to_csv_s",
}
COUNT_METRICS = (
    "cli.sweep_gaps",
    "mwle.target_bytes_computed",
    "pipeline.rows_read",
    "pipeline.cells_floored",
) + tuple("pipeline.rows_rejected." + kind for kind in gen.REJECT_KINDS + ("other",))


def main(work: Path) -> int:
    job = json.loads((work / "job.json").read_text())
    workload = job["workload"]
    trace = bool(job["trace"])
    cli_ops = CliOps(job, work) if workload == "cli-case-study" else None
    if cli_ops is not None:
        ops = cli_ops.ops()
    else:
        ops = {"fit-large-n": fit_ops, "sweep-dense": sweep_ops, "ingest-precinct": ingest_ops}[workload](job)

    tracer = tracing.Tracer()
    probes = None
    if trace:
        import wmle  # noqa: F401  (the probes and wrappers need the package loaded)

        tracing.install(tracer)
        probes = Probes(job)

    # [pass, traced, op, seconds, status, error type, items, reference seconds, nominal reference seconds]
    records = []
    errors = []
    first_bytes: dict = {}
    incorrect = False
    pass_walls = {False: [], True: []}  # seconds at nominal speed
    speed = common.SpeedReference()
    layer_sums: dict = defaultdict(float)
    count_sums: Counter = Counter()
    targets: list = []
    kept_spans = None
    traced_passes = 0

    # Warm-up, untimed: the first large allocations, file reads and lazy
    # imports happen here rather than in the first timed pass.
    try:
        ops[0].run()
    except Exception:  # the timed passes count and classify the same failure
        pass

    start = perf_counter()
    p = 0
    while True:
        traced = trace and p % 2 == 1
        if cli_ops is not None:
            cli_ops.traced = traced
            cli_ops.shim_dumps = []
        tracer.take()
        ref_before = speed.measure()
        for i, op in enumerate(ops):
            tracer.trace_id = p * 1000 + i
            tracer.enabled = traced and cli_ops is None
            t0 = perf_counter()
            try:
                out = op.run()
                status, err_type = "ok", ""
            except Exception as exc:  # every failure is counted and classified
                out, status, err_type = None, "error", type(exc).__name__
                if len(errors) < 20:
                    errors.append(f"{op.name}: {type(exc).__name__}: {str(exc)[:200]}")
            dt = perf_counter() - t0
            tracer.enabled = False
            ref_after = speed.measure()
            ref, nominal = 0.5 * (ref_before + ref_after), common.REF_NOMINAL_S
            ref_before = ref_after
            child_ref = cli_ops.child_reference() if cli_ops is not None else None
            if child_ref is not None:
                # A CLI process is scaled by the kernel it ran itself (below,
                # by the pass median), and its time excludes the two runs.
                dt, ref, nominal = dt - 2 * child_ref, child_ref, common.PY_REF_NOMINAL_S
            if out is not None:
                blob = op.identity(out)
                if op.name not in first_bytes:
                    reason = op.check(out)
                    if reason is None:
                        first_bytes[op.name] = blob
                elif blob != first_bytes[op.name]:
                    reason = "output bytes differ from the first pass"
                else:
                    reason = None
                if reason is not None:
                    status, err_type, incorrect = "wrong", "WrongOutput", True
                    if len(errors) < 20:
                        errors.append(f"{op.name}: {reason}")
            records.append([p, traced, op.name, dt, status, err_type,
                            op.items if status == "ok" else 0.0, ref, nominal])
        this_pass = records[-len(ops):]
        if cli_ops is not None:
            # One 5 ms kernel run in a new process is a noisy sample; the
            # median over the pass's processes is not.
            pass_ref = common.median(r[7] for r in this_pass)
            for r in this_pass:
                r[7] = pass_ref
        pass_walls[traced].append(sum(common.scale(r[3], r[7], r[8]) for r in this_pass))
        if traced:
            traced_passes += 1
            tracer.enabled = True
            tracer.trace_id = p * 1000 + 999
            probes.traced_suite()
            tracer.enabled = False
            spans, counts, pass_targets = tracer.take()
            if cli_ops is not None:
                offset = 10 ** 9
                for dump in cli_ops.shim_dumps:
                    if not dump.exists():  # the process died before writing; already counted
                        continue
                    data = json.loads(dump.read_text())
                    spans += [(t, sid + offset, parent + offset if parent else 0, name, s, e)
                              for t, sid, parent, name, s, e in data["spans"]]
                    counts.update(data["counts"])
                    pass_targets += [(tuple(a), tuple(b)) for a, b in data["targets"]]
                    offset += 10 ** 9
                    dump.unlink()
            for name, seconds in tracing.self_times(spans).items():
                layer_sums[name] += seconds
            count_sums.update(counts)
            count_sums["trace.spans"] += len(spans)
            count_sums["mwle.fit_calls"] += sum(1 for s in spans if s[3] == "mwle.fit")
            targets += pass_targets
            if kept_spans is None:
                kept_spans = spans
        p += 1
        # Whole passes only, so every run has the same mix of operations.
        # Another pass starts while it would end less than half a pass
        # past the deadline.
        elapsed = perf_counter() - start
        if p >= 2 and elapsed + 0.5 * elapsed / p >= job["seconds"] and (not trace or p % 2 == 0):
            break

    result = {
        "records": records,
        "errors": errors,
        "incorrect": incorrect,
        "pass_walls": {"untraced": pass_walls[False], "traced": pass_walls[True]},
        "child_rss_mb": cli_ops.child_rss if cli_ops is not None else [],
        "info": {},
    }
    if trace:
        tracer.enabled = False
        layers = {}
        for span_name, metric in SELF_TIME_METRICS.items():
            layers[metric] = layer_sums.get(span_name, 0.0) / traced_passes
        for metric in COUNT_METRICS + ("mwle.fit_calls", "trace.spans"):
            layers[metric] = count_sums.get(metric, 0) / traced_passes
        layers["pipeline.rows_rejected"] = sum(
            count_sums.get("pipeline.rows_rejected." + k, 0) for k in gen.REJECT_KINDS + ("other",)
        ) / traced_passes
        points = count_sums.get("cli.sweep_points", 0)
        layers["cli.points_fitted_ratio"] = count_sums.get("cli.points_fitted", 0) / points if points else float("nan")
        untraced = common.median(pass_walls[False])
        overhead = common.median(pass_walls[True]) - untraced
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / untraced
        layers.update(probes.baselines())
        layers.update(probes.means())
        solver, solver_info = Probes.solver(targets)
        layers.update(solver)
        result["layers"] = layers
        result["info"].update(solver_info)
        result["info"]["traced_passes"] = traced_passes
        spans_path = Path(job["spans_out"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
            handle.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
            for t, sid, parent, name, s, e in kept_spans or []:
                handle.write(f"{t},{sid},{parent},{name},{s!r},{e!r}\n")
        result["info"]["spans_file"] = str(spans_path.relative_to(common.ROOT))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1])))
