"""Span tracing from outside the program.

:func:`install` replaces public functions of the ``wmle`` modules (and the
few private solver hooks ``fit`` calls) with wrappers that record one span
per call: (trace id, span id, parent span id, name, start, end).  Spans are
kept in memory; the caller writes them out when the run ends.  Nothing in
``src/`` changes: the wrappers are installed, for the life of the process,
by rebinding module and class attributes in the benchmark's own process.

Counters are taken at the same boundaries (gaps per sweep, bytes the moment
target reads, reject reasons, floored cells) so ratios are measured where
the work happens.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import oracle


class Tracer:
    def __init__(self):
        self.enabled = False
        self.trace_id = 0
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.targets: list[tuple] = []  # (weibull shapes, moment target) of traced fits
        self._stack: list[int] = []
        self._next_id = 1

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.trace_id, span_id, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def take(self):
        """Hand over and clear what was recorded so far."""
        spans, counts, targets = self.spans, self.counts, self.targets
        self.spans, self.counts, self.targets = [], Counter(), []
        return spans, counts, targets


def _after_sweep(tr, args, table):
    tr.counts["cli.sweep_points"] += int(table.orders.size)
    tr.counts["cli.points_fitted"] += int(np.all(np.isfinite(table.estimates), axis=1).sum())
    tr.counts["cli.sweep_gaps"] += len(table.gaps)


def _after_fit(tr, args, result):
    model = args[0]
    if model.stat_powers is not None and np.all(np.isfinite(result.target)):
        tr.targets.append((tuple(float(p) for p in model.stat_powers),
                           tuple(float(t) for t in result.target)))


def _after_stat_mean(tr, args, result):
    data, model = args[0], args[1]
    # Computed, not measured: the statistic matrix written plus the weights read.
    tr.counts["mwle.target_bytes_computed"] += data.observations.shape[0] * (model.dim_eta + 1) * 8


def _after_load(tr, args, loaded):
    tr.counts["pipeline.rows_read"] += len(loaded.rows) + len(loaded.rejects)
    for reject in loaded.rejects:
        tr.counts["pipeline.rows_rejected." + oracle.reject_kind(reject.reason)] += 1


def _after_aggregate(tr, args, matrix):
    import wmle.pipeline

    tr.counts["pipeline.cells_floored"] += int(
        np.sum(matrix.values <= wmle.pipeline.ZERO_PROPORTION_FLOOR)
    )


def _instrument_model(tr, model):
    stat = tr.wrap("families.sufficient_stat", model.sufficient_stat)
    comps = model.components
    if comps is not None:
        comps = tuple(
            dataclasses.replace(c, sufficient_stat=tr.wrap("families.sufficient_stat", c.sufficient_stat))
            for c in comps
        )
    return dataclasses.replace(model, sufficient_stat=stat, components=comps)


def install(tr: Tracer) -> None:
    """Wrap the traced functions for the rest of the process's life."""
    import wmle
    import wmle.cli as cli
    import wmle.families as families
    import wmle.means as means
    import wmle.mwle as mwle
    import wmle.pipeline as pipeline
    import wmle.svg as svg

    original_model = families.weibull_model
    timed_model = tr.wrap("families.weibull_model", original_model)

    @functools.wraps(original_model)
    def weibull_model(shapes):
        model = timed_model(shapes)
        return _instrument_model(tr, model) if tr.enabled else model

    plan = [
        (cli, "run_sweep", "cli.run_sweep", _after_sweep),
        (cli, "validate_sweep_table", "cli.validate_sweep_table", None),
        (cli.SweepTable, "to_csv", "cli.to_csv", None),
        (svg, "render_line_chart", "svg.render_line_chart", None),
        (mwle, "fit", "mwle.fit", _after_fit),
        (mwle, "apply_policy", "mwle.apply_policy", None),
        (mwle, "weighted_stat_mean", "mwle.weighted_stat_mean", _after_stat_mean),
        (mwle, "WeightedDataset", "expfam.weighted_dataset", None),
        (mwle, "_stat_covariance", "expfam.stat_covariance", None),
        (mwle, "_solve_mean_target", "expfam.solve_mean_target", None),
        (mwle, "check_minimality", "expfam.check_minimality", None),
        (means, "lehmer_mean", "means.lehmer_mean", None),
        (means, "holder_mean", "means.holder_mean", None),
        (means, "v_weights", "means.v_weights", None),
        (pipeline, "load_returns", "pipeline.load_returns", _after_load),
        (pipeline, "aggregate", "pipeline.aggregate", _after_aggregate),
        (pipeline.ProportionMatrix, "to_csv", "pipeline.to_csv", None),
    ]
    for owner, attr, name, after in plan:
        setattr(owner, attr, tr.wrap(name, owner.__dict__[attr], after))
    for owner in (families, cli, wmle):
        setattr(owner, "weibull_model", weibull_model)


def self_times(spans) -> dict:
    """Seconds per span name, minus the time covered by direct children."""
    child_time: dict = defaultdict(float)
    for _trace, _sid, parent, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict = defaultdict(float)
    for _trace, sid, _parent, name, start, end in spans:
        totals[name] += (end - start) - child_time.get(sid, 0.0)
    return dict(totals)

