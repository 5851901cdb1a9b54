"""Spans for the benchmark's traced run, recorded from outside the package.

A span is recorded at each layer boundary by replacing, in the importing
module, every public function that one countpred module imported from
another (for example ``countpred.simulate.pmf_umvue`` or
``countpred.regions.poisson_upper_support``) with a wrapper.  Calls
inside one module are not spans: their time is the enclosing span's self
time.  No file of the package is changed.

Spans are kept in memory as compact arrays (name, start, end, parent, op
id) and written out once the run ends.  A span's self time is its
duration minus the durations of its child spans.  The wrapper's own
bookkeeping falls on the caller's self time; ``trace.overhead`` reports
what tracing costs in all.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("special", "regions", "glm", "overdispersion", "forecast", "simulate",
          "data", "cli")

# pmf builders whose result depends on the data only through (n, t).
_PMF_BUILDERS = ("regions.pmf_plugin_ml", "regions.pmf_taylor", "regions.pmf_umvue",
                 "regions.pmf_gamma_predictive")

# Span names reported as ``<name>.calls`` and ``<name>.self_s``.
CALLS_AND_SELF = (
    "special.poisson_upper_support",
    "special.poisson_cdf",
    "special.poisson_log_pmf_vector",
    "special.normal_quantile",
    "regions.pmf_umvue",
    "regions.pmf_plugin_ml",
    "regions.pmf_taylor",
    "regions.pmf_gamma_predictive",
    "regions.pmf_poisson",
    "regions.region_smallest",
    "regions.exact_region_properties",
    "glm.fit",
    "overdispersion.fit_overdispersed",
    "overdispersion.region_overdispersed",
    "overdispersion.estimate_xi",
    "forecast.cumulative_forecast",
    "data.parse_ecdc_csv",
)
# Span names reported as ``<name>.self_s`` only.
SELF_ONLY = (
    "glm.build_design",
    "glm.design_row",
    "glm.region_regression",
    "glm.residual_diagnostics",
)
# Span names whose raised exceptions are counted as ``<name>.raised``.
RAISED = ("glm.fit", "overdispersion.region_overdispersed")


def per_layer_names(cells) -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    out += [(f"{name}.raised", "count", "lower") for name in RAISED]
    out += [
        ("regions.pmf_umvue.support_points", "count", "lower"),
        ("regions.region_smallest.support_points", "count", "lower"),
        ("regions.pmf.distinct_ratio", "ratio", "higher"),
        ("glm.fit.iterations", "count", "lower"),
        ("overdispersion.xi_inf", "count", "lower"),
        ("forecast.days", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("simulate.self_s", "s", "lower"),
    ]
    out += [(f"simulate.cell.{cell}.s", "s", "lower") for cell in cells]
    out += [
        ("simulate.redraws", "count", "lower"),
        ("simulate.useful_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead", "ratio", "higher"),
    ]
    return out


def span_name(fn) -> str:
    """``<layer>.<function>`` for a function defined in a countpred module."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Collects spans and per-layer counts for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.op_kinds: list[str] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.pmf_keys: set = set()
        self._observers = {
            "regions.pmf_umvue": self._observe_umvue,
            "regions.region_smallest": self._observe_smallest,
            "glm.fit": self._observe_fit,
            "overdispersion.fit_overdispersed": self._observe_xi,
            "overdispersion.estimate_xi": self._observe_xi,
            "forecast.cumulative_forecast": self._observe_forecast,
            "simulate.run_intercept_experiment": self._observe_sim,
            "simulate.run_regression_experiment": self._observe_sim,
        }

    # ------------------------------------------------------------ recording

    def begin_op(self, kind: str) -> None:
        """Start a new op; spans until the next call belong to it."""
        self.op_kinds.append(kind)

    def wrap(self, fn):
        """Return ``fn`` recording one span per call."""
        name = span_name(fn)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        observe = self._observers.get(name)
        if name in _PMF_BUILDERS:
            observe = self._pmf_observer(name, observe)
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, raised = self.start, self.end, self.raised
        stack, op_kinds = self._stack, self.op_kinds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(len(op_kinds) - 1)
            starts.append(0.0)
            ends.append(0.0)
            raised.append(1)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, modules: dict) -> int:
        """Wrap every public function a layer imported from another layer.

        Returns the number of bindings replaced.
        """
        wrapped = 0
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home != layer and home in modules:
                    setattr(module, attr, self.wrap(obj))
                    wrapped += 1
        return wrapped

    # ------------------------------------------------------------ observers

    def _pmf_observer(self, name, then):
        def observe(args, result):
            self.counts["regions.pmf.calls"] += 1
            self.pmf_keys.add((name,) + tuple(args))
            if then is not None:
                then(args, result)
        return observe

    def _observe_umvue(self, args, result):
        self.counts["regions.pmf_umvue.support_points"] += result.support_hi + 1

    def _observe_smallest(self, args, result):
        self.counts["regions.region_smallest.support_points"] += len(args[0].log_mass)

    def _observe_fit(self, args, result):
        self.counts["glm.fit.iterations"] += result.iterations

    def _observe_xi(self, args, result):
        xi = result if isinstance(result, float) else result.xi
        self.counts["overdispersion.xi_inf"] += math.isinf(xi)

    def _observe_forecast(self, args, result):
        self.counts["forecast.days"] += result.horizon_days

    def _observe_sim(self, args, result):
        self.counts["simulate.reps"] += result.config.replications
        self.counts["simulate.redraws"] += result.redraws

    # -------------------------------------------------------------- results

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "op_kinds": np.array(self.op_kinds),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def span_stats(self) -> dict[str, dict]:
        """calls, self_s, total_s and raised per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        size = len(self.names)
        calls = np.bincount(a["name_id"], minlength=size)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=size)
        total_s = np.bincount(a["name_id"], weights=dur, minlength=size)
        raised = np.bincount(a["name_id"], weights=a["raised"], minlength=size)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i]), "raised": int(raised[i])}
                for i, name in enumerate(self.names)}

    def cell_seconds(self) -> dict[str, float]:
        """Duration of the root spans of each op kind."""
        a = self.arrays()
        root = a["parent"] < 0
        out: Counter = Counter()
        for op, dur in zip(a["op"][root], (a["end"] - a["start"])[root]):
            out[self.op_kinds[op]] += float(dur)
        return dict(out)

    def per_layer(self, cells, overhead: float) -> dict[str, float]:
        """Every metric of :func:`per_layer_names`; 0 where nothing ran."""
        stats = self.span_stats()
        empty = {"calls": 0, "self_s": 0.0, "raised": 0}
        by_cell = self.cell_seconds()
        pmf_calls = self.counts["regions.pmf.calls"]
        reps = self.counts["simulate.reps"]
        redraws = self.counts["simulate.redraws"]
        values = {
            "regions.pmf.distinct_ratio":
                len(self.pmf_keys) / pmf_calls if pmf_calls else 0.0,
            "cli.self_s": stats.get("cli.main", empty)["self_s"],
            "simulate.self_s": sum(s["self_s"] for name, s in stats.items()
                                   if name.startswith("simulate.")),
            "simulate.useful_ratio": reps / (reps + redraws) if reps else 0.0,
            "trace.spans": len(self.start),
            "trace.overhead": overhead,
        }
        values.update({f"simulate.cell.{cell}.s": by_cell.get(cell, 0.0)
                       for cell in cells})
        out = {}
        for metric, _, _ in per_layer_names(cells):
            if metric in values:
                out[metric] = values[metric]
                continue
            span, _, field = metric.rpartition(".")
            if field in empty:
                out[metric] = stats.get(span, empty)[field]
            else:
                out[metric] = self.counts[metric]
        return out
