"""Command-line front end.

Subcommands
-----------
mean      evaluate a Holder, Lehmer or generalized f-mean of given values
fit       estimate a family's parameters from data under a weight policy
sweep     grid of mean-order fits over election proportions, CSV and SVG out
vweights  value-selection weight curves of the two mean families, CSV out
ingest    parse a returns file and emit the per-cycle proportion matrix

Exit codes: 0 success, 2 domain/configuration error, 3 solver failure,
4 I/O error.  All CSV output is deterministic: identical inputs and flags
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, SchemaError, SolverError, WmleError, not_utf8

if TYPE_CHECKING:  # each command imports the modules it runs when it runs
    from . import mwle, pipeline

__all__ = ["SweepTable", "run_sweep", "parse_grid", "main", "entry"]

_SWEEP_HEADER = "order,lambda_dem,lambda_rep,lambda_oth"

#: Default sweep grids: the estimator order for the lehmer mode may span
#: negatives; the holder mode's order is a Weibull shape and must stay > 0.
DEFAULT_GRIDS = {"lehmer": "-3:4:0.1", "holder": "0.1:6:0.1"}

#: Most points a grid may hold; each point is one row of the sweep or vweights CSV.
MAX_GRID_POINTS = 10**6


def _decimal(text: str) -> tuple[int, int]:
    """A finite float literal as ``(digits, exponent)``, exactly
    ``digits * 10**exponent``."""
    mantissa, _, exponent = text.strip().replace("_", "").lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def parse_grid(spec: str) -> np.ndarray:
    """Parse ``start:stop:step`` into an ascending inclusive grid.

    Point i is the double nearest the exact decimal ``start + i*step``:
    start and step are read from the text as integers over a common power
    of ten, and each point is one correctly rounded integer division, so
    ``-3:4:0.1`` holds ``-1.8`` where float steps give ``-1.7999999999999998``.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid values must be numbers: {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid values must be finite: {spec!r}")
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"grid stop {stop} is below start {start}")
    intervals = (stop - start) / step + 1e-9
    if not intervals < MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
    count = int(math.floor(intervals)) + 1
    (first, first_exp), (stride, stride_exp) = _decimal(parts[0]), _decimal(parts[2])
    exponent = min(first_exp, stride_exp, 0)
    first *= 10 ** (first_exp - exponent)
    stride *= 10 ** (stride_exp - exponent)
    denominator = 10 ** -exponent
    return np.array([(first + i * stride) / denominator for i in range(count)])


@dataclass
class SweepTable:
    """Estimates (lambda_dem, lambda_rep, lambda_oth) along an order grid.

    Gap rows (orders where ``fit`` raises) hold NaN in ``estimates`` and
    its message in ``gaps``; the run always continues past them.
    """

    parameter: str  # "beta" for the lehmer mode, "k" for the holder mode
    orders: np.ndarray
    estimates: np.ndarray  # (len(orders), 3)
    gaps: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        # A row with a non-finite estimate is a gap and keeps only its order.
        # Each run of complete rows, and of gaps, is one %-format; %r is repr,
        # so every number keeps its shortest round-trip digits.
        from .svg import _runs

        orders = np.asarray(self.orders, dtype=float)
        table = np.column_stack([orders, np.asarray(self.estimates, dtype=float).reshape(-1, 3)])
        text, done = [f"{_SWEEP_HEADER}\n"], 0
        for begin, end in _runs(np.isfinite(table[:, 1:]).all(axis=1)):
            text.append("%r,,,\n" * (begin - done) % tuple(orders[done:begin].tolist()))
            text.append("%r,%r,%r,%r\n" * (end - begin) % tuple(table[begin:end].ravel().tolist()))
            done = end
        text.append("%r,,,\n" * (orders.size - done) % tuple(orders[done:].tolist()))
        return "".join(text)

    @classmethod
    def from_csv(cls, text: str, parameter: str = "") -> "SweepTable":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or lines[0].strip() != _SWEEP_HEADER:
            raise SchemaError(f"sweep CSV must start with header {_SWEEP_HEADER!r}")
        orders = []
        rows = []
        gaps = {}
        for line in lines[1:]:
            # A wrong number of cells fails the unpacking, a bad cell float().
            try:
                first, dem, rep, other = line.split(",")
                order = float(first)
                if "" in (dem.strip(), rep.strip(), other.strip()):
                    rows.append([math.nan] * 3)
                    gaps[order] = "gap"
                else:
                    rows.append([float(dem), float(rep), float(other)])
            except ValueError:
                raise SchemaError(f"malformed sweep row: {line!r}") from None
            orders.append(order)
        return cls(
            parameter=parameter,
            orders=np.asarray(orders, dtype=float),
            estimates=np.asarray(rows, dtype=float),
            gaps=gaps,
        )


def validate_sweep_table(table: SweepTable) -> None:
    """Enforce the table invariants before anything gets written.

    The grid must be strictly ascending, every non-gap estimate finite and
    positive, and each estimate column non-decreasing along the grid (the
    underlying means are monotone in their order; a small relative slack
    absorbs float rounding).
    """
    orders = table.orders
    if orders.size == 0:
        raise DomainError("sweep produced an empty grid")
    if np.any(np.diff(orders) <= 0):
        raise DomainError("sweep grid must be strictly ascending")
    good = np.all(np.isfinite(table.estimates), axis=1)
    rows = table.estimates[good]
    if np.any(rows <= 0):
        raise DomainError("sweep estimates must be finite and positive")
    drops = np.diff(rows, axis=0) < -1e-9 * rows[:-1]
    if drops.any():
        col, where = np.argwhere(drops.T)[0]  # the first column that drops, where it first does
        raise DomainError(f"estimate column {col} decreases along the grid near row {where}; "
                          "sweep table invariant violated")


def run_sweep(matrix: pipeline.ProportionMatrix, mode: str, grid: np.ndarray) -> SweepTable:
    """Scale estimates of every party column at every grid order.

    ``lehmer`` fits unit-shape Weibull components under the Lehmer weight
    policy of that order; ``holder`` fits Weibull components whose common
    shape is the order itself under unit weights.  Every order is estimated
    in one batched array pass that takes the same floating-point steps as
    ``mwle.fit``; an order it rejects is a gap, recorded with the message
    ``fit`` raises there, and the sweep continues past gaps.  An empty
    matrix, or one with a value not finite and strictly positive, raises
    ``DomainError``; an empty grid or a non-finite order ``ConfigError``.
    """
    from . import mwle

    if mode not in ("lehmer", "holder"):
        raise ConfigError(f"sweep mode must be 'lehmer' or 'holder', got {mode!r}")
    if not (grid.size and np.all(np.isfinite(grid))):
        raise ConfigError("the sweep needs a non-empty grid of finite orders")
    if mode == "holder" and np.any(grid <= 0):
        raise ConfigError("the holder sweep needs a strictly positive order grid")
    values = matrix.values
    if not (values.size and np.min(values) > 0 and np.max(values) < np.inf):
        raise DomainError("the sweep needs a non-empty matrix of finite, strictly positive values")
    table = SweepTable("beta" if mode == "lehmer" else "k", grid, *mwle._sweep_estimates(mode, values, grid))
    validate_sweep_table(table)
    return table


# --------------------------------------------------------------------- #
# Argument helpers
# --------------------------------------------------------------------- #


def _parse_order(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("inf", "+inf", "infinity"):
        return math.inf
    if lowered in ("-inf", "-infinity"):
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"invalid order {text!r}; expected a number or inf/-inf") from None


def _parse_float_list(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated list of numbers, got {text!r}") from None


_F_TRANSFORMS = {
    "identity": (lambda v: v, lambda v: v),
    "log": (math.log, math.exp),
    "square": (lambda v: v * v, math.sqrt),
}


def _load_numeric_matrix(path: str) -> np.ndarray:
    """Read a numeric CSV for `fit`.

    A header row is skipped if its fields are not numeric; the ingest
    output format (year,dem,rep,other) additionally drops the year column,
    whose cells must be integers.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except UnicodeDecodeError as exc:
        raise DomainError(not_utf8(path, exc)) from None
    if not lines:
        raise DomainError(f"{path}: no data rows")
    start = 0
    drop_first_column = False
    first = lines[0].split(",")
    try:
        [float(cell) for cell in first]
    except ValueError:
        start = 1
        if [cell.strip() for cell in first] == ["year", "dem", "rep", "other"]:
            drop_first_column = True
    rows = []
    for line in lines[start:]:
        cells = line.split(",")
        if drop_first_column:
            year, *cells = cells
            if not year.strip().isdecimal():
                raise DomainError(f"{path}: year {year!r} in row {line!r} is not an integer")
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            raise DomainError(f"{path}: non-numeric cell in row {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise DomainError(
                f"{path}: row {line!r} has {len(row)} cells, the first row has {len(rows[0])}"
            )
        rows.append(row)
    matrix = np.asarray(rows, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise DomainError(f"{path}: expected a rectangular numeric table")
    return matrix


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one or for ``-``."""
    if path is None or path == "-":
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def _cmd_mean(args) -> int:
    from . import means

    values = np.asarray(args.values, dtype=float)
    if args.kind == "f":
        for flag, value in (("--weights", args.weights), ("--alpha", args.alpha)):
            if value is not None:
                raise ConfigError(f"the f mean is unweighted and takes no order; drop {flag}")
        f, f_inverse = _F_TRANSFORMS[args.transform]
        result = means.f_mean(f, f_inverse, values)
    else:
        weights = _parse_float_list(args.weights, "--weights") if args.weights else None
        if args.alpha is None:
            raise ConfigError(f"--alpha is required for the {args.kind} mean")
        order = _parse_order(args.alpha)
        if args.kind == "holder":
            result = means.holder_mean(order, values, weights)
        else:
            result = means.lehmer_mean(order, values, weights)
    _write_text(None, f"{float(result)!r}\n")
    return 0


def _build_family(args):
    from . import families  # through the module, so a rebound weibull_model is the one called

    if args.family == "weibull":
        shapes = _parse_float_list(args.shapes, "--shapes")
        return families.weibull_model(shapes)
    sigma = _parse_float_list(args.sigma, "--sigma")
    return families.gaussian_known_variance_model(sigma)


def _build_policy(args, n_columns: int) -> mwle.WeightPolicy:
    from . import mwle

    if args.policy == "holder":
        return mwle.WeightPolicy.holder()
    if args.beta is None:
        raise ConfigError("--beta is required for the lehmer policy")
    beta = _parse_float_list(args.beta, "--beta")
    if beta.size == 1 and n_columns > 1:
        beta = np.full(n_columns, beta[0])
    return mwle.WeightPolicy.lehmer(beta)


def _cmd_fit(args) -> int:
    from . import mwle

    if args.values and args.data:
        raise ConfigError("fit takes positional values or --data PATH, not both")
    if args.values:
        observations = np.asarray(args.values, dtype=float).reshape(-1, 1)
    elif args.data:
        observations = _load_numeric_matrix(args.data)
    else:
        raise ConfigError("fit needs data: positional values or --data PATH")
    model = _build_family(args)
    policy = _build_policy(args, observations.shape[1])
    result = mwle.fit(model, observations, policy)
    diag = result.diagnostics

    if args.format == "csv":
        lines = ["key,value"]
        for key, values in (("theta", result.theta_hat), ("eta", result.eta_hat),
                            ("target", result.target), ("scale", result.scale)):
            lines += [f"{key}_{j},{float(v)!r}" for j, v in enumerate(values, start=1)]
        for key in ("iterations", "residual_norm", "hessian_smallest", "hessian_largest"):
            lines.append(f"{key},{getattr(diag, key)!r}")
        minimal = "" if diag.minimality is None else str(diag.minimality.minimal).lower()
        lines.append(f"minimal,{minimal}")
    else:
        lines = [
            f"model:            {model.name}",
            f"policy:           {policy.kind}",
            f"theta_hat:        {np.array2string(result.theta_hat, precision=12)}",
            f"eta_hat:          {np.array2string(result.eta_hat, precision=12)}",
            f"moment target:    {np.array2string(result.target, precision=12)}",
            f"scale:            {np.array2string(result.scale, precision=12)}",
            f"solver:           {diag.solve_method}, {diag.iterations} iterations, "
            f"residual {diag.residual_norm:.3e}",
            f"hessian eigens:   [{diag.hessian_smallest:.6g}, {diag.hessian_largest:.6g}]",
        ]
        if diag.minimality is not None:
            verdict = "minimal" if diag.minimality.minimal else "degenerate"
            lines.append(f"minimality:       {verdict} "
                         f"(smallest/largest stat eigenvalue {diag.minimality.smallest_eigenvalue:.3e}"
                         f"/{diag.minimality.largest_eigenvalue:.3e})")
    _write_text(None, "\n".join(lines) + "\n")
    return 0


def _ingest_matrix(args) -> tuple[pipeline.ProportionMatrix, pipeline.LoadResult]:
    from . import pipeline

    config = pipeline.SchemaConfig.from_file(args.config) if args.config else pipeline.SchemaConfig()
    loaded = pipeline.load_returns(args.data, config)
    if loaded.rejects:
        print(f"note: {len(loaded.rejects)} row(s) rejected during parsing", file=sys.stderr)
    return pipeline.aggregate(loaded.rows), loaded


def _cmd_sweep(args) -> int:
    matrix, _ = _ingest_matrix(args)
    grid = parse_grid(args.grid if args.grid else DEFAULT_GRIDS[args.mode])
    table = run_sweep(matrix, args.mode, grid)
    _write_text(args.out, table.to_csv())
    if table.gaps:
        print(f"note: {len(table.gaps)} grid point(s) failed and were recorded as gaps",
              file=sys.stderr)
    if args.svg:
        from . import svg

        chart = svg.render_line_chart(
            table.orders,
            {
                "lambda_dem": table.estimates[:, 0],
                "lambda_rep": table.estimates[:, 1],
                "lambda_oth": table.estimates[:, 2],
            },
            title=f"Scale estimates vs {table.parameter} ({args.mode} sweep)",
            x_label=table.parameter,
            y_label="estimated scale",
        )
        _write_text(args.svg, chart)
    return 0


def _cmd_vweights(args) -> int:
    from . import means

    pair = args.values if args.values else [0.6, 2.0]
    if len(pair) != 2:
        raise ConfigError(f"vweights expects exactly two values, got {len(pair)}")
    a, b = (float(v) for v in pair)
    if a <= 0 or b <= 0:
        raise ConfigError("vweights values must be strictly positive")
    grid = parse_grid(args.grid)
    sample = means.Sample(np.array([a, b]))
    # The curves are indexed by the exponent applied to the value itself,
    # i.e. the weights of the mean of order alpha + 1.
    orders = grid + 1.0
    table = np.column_stack([grid, means._v_weight_rows("lehmer", orders, sample),
                             means._v_weight_rows("holder", orders, sample)])
    rows = "%r,%r,%r,%r,%r\n" * grid.size % tuple(table.ravel().tolist())
    _write_text(args.out, "alpha,vl_first,vl_second,vh_first,vh_second\n" + rows)
    return 0


def _cmd_ingest(args) -> int:
    matrix, loaded = _ingest_matrix(args)
    _write_text(args.out, matrix.to_csv())
    if args.rejects:
        lines = ["line,reason"]
        for reject in loaded.rejects:
            reason = reject.reason.replace('"', "'")
            lines.append(f'{reject.line_number},"{reason}"')
        _write_text(args.rejects, "\n".join(lines) + "\n")
    print(f"note: {matrix.n_cycles} cycle(s) aggregated", file=sys.stderr)
    return 0


# --------------------------------------------------------------------- #
# Parser and entry point
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmle",
        description="Mean families and maximum weighted likelihood estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="evaluate a mean of the given values")
    p_mean.add_argument("--kind", choices=("holder", "lehmer", "f"), required=True)
    p_mean.add_argument("--alpha", help="mean order; inf and -inf are accepted; write a negative one as --alpha=-inf or --alpha=-1e-3")
    p_mean.add_argument("--weights", help="comma-separated positive weights")
    p_mean.add_argument("--transform", choices=sorted(_F_TRANSFORMS), default="log",
                        help="transform pair for the f kind (default: log)")
    p_mean.add_argument("values", nargs="+", type=float)
    p_mean.set_defaults(func=_cmd_mean)

    p_fit = sub.add_parser("fit", help="fit a family under a weight policy")
    p_fit.add_argument("--family", choices=("weibull", "gaussian"), default="weibull")
    p_fit.add_argument("--shapes", default="1", help="comma-separated Weibull shapes")
    p_fit.add_argument("--sigma", default="1", help="comma-separated Gaussian sigmas")
    p_fit.add_argument("--policy", choices=("holder", "lehmer"), default="holder")
    p_fit.add_argument("--beta", help="comma-separated lehmer exponents (scalar broadcasts); write a negative first one as --beta=-1e-3")
    p_fit.add_argument("--data", help="numeric CSV of observations (columns = components)")
    p_fit.add_argument("--format", choices=("text", "csv"), default="text")
    p_fit.add_argument("values", nargs="*", type=float,
                       help="single-column observations given inline")
    p_fit.set_defaults(func=_cmd_fit)

    p_sweep = sub.add_parser("sweep", help="sweep mean orders over election data")
    p_sweep.add_argument("--data", required=True, help="statewide returns file")
    p_sweep.add_argument("--mode", choices=("lehmer", "holder"), required=True)
    p_sweep.add_argument("--grid", help="start:stop:step, inclusive; use --grid=-3:4:0.1 for a negative start (default depends on mode)")
    p_sweep.add_argument("--config", help="schema config file (key=value lines)")
    p_sweep.add_argument("--out", help="sweep CSV path (default: stdout)")
    p_sweep.add_argument("--svg", help="also render the curves to this SVG path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_vw = sub.add_parser("vweights", help="value-selection weight curves of a pair")
    p_vw.add_argument("--grid", default="-4:6:0.1", help="value-exponent grid start:stop:step (use --grid=... for a negative start)")
    p_vw.add_argument("--out", help="CSV path (default: stdout)")
    p_vw.add_argument("values", nargs="*", type=float, help="two positive values (default 0.6 2)")
    p_vw.set_defaults(func=_cmd_vweights)

    p_ing = sub.add_parser("ingest", help="returns file -> proportion matrix CSV")
    p_ing.add_argument("--data", required=True, help="statewide returns file")
    p_ing.add_argument("--config", help="schema config file (key=value lines)")
    p_ing.add_argument("--out", help="proportions CSV path (default: stdout)")
    p_ing.add_argument("--rejects", help="write the rejects report to this path")
    p_ing.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WmleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry(argv=None) -> None:
    """Run :func:`main` as the ``wmle`` process and end it with ``os._exit``,
    skipping the interpreter's teardown of numpy and every other module.  The
    exit steps before that teardown run here as the interpreter runs them."""
    code, report = main(argv), []
    if "logging" in sys.modules:
        sys.modules["logging"].shutdown()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.writelines(report)  # a stdout that failed to flush, reported on stderr
                stream.flush()
        except Exception as exc:  # not left to the interpreter, which may find the text gone
            import traceback
            code, report = 120, [f"Exception ignored in: {stream!r}\n", *traceback.format_exception_only(exc)]
    os._exit(code)


if __name__ == "__main__":
    entry()
