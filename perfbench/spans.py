"""Span-recording wrappers around the public functions of the treeval modules.

``Tracer.install`` rebinds every public function at each module that
imports it (``treeval.valuation.weighted_membership`` as well as
``treeval.flat.weighted_membership``) and every public method of the
classes each module defines.  A wrapper records one span per call:
name, start, end, parent span and thread.  Spans stay in memory until
the pass ends; ``Tracer.uninstall`` restores the original bindings, so
output checks that run afterwards are never traced.

Parents follow a per-thread stack.  Work items handed to
``parallel.thread_map`` run inside an item span whose parent is the
``thread_map`` span, so spans opened on worker threads keep their
cause.  Counts that are not program counters (rows scanned, membership
pairs, cdf evaluations) are computed here from argument and result
shapes, after the span's end time is taken.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from common import LAYERS


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    info: object


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _best_split_info(args, kwargs, result):
    feats = np.shape(_arg(args, kwargs, 0, "features"))
    cands = _arg(args, kwargs, 2, "candidates")
    cols = feats[1] if cands is None else len(cands)
    return {"rows": feats[0], "cols": cols, "split": result is not None}


def _membership_info(args, kwargs, result):
    pts = np.shape(_arg(args, kwargs, 0, "ptf"))
    return {"k": pts[0], "P": pts[1],
            "cells": np.size(_arg(args, kwargs, 3, "weights")),
            "coords": _arg(args, kwargs, 4, "n_coords")}


def _surface_info(args, kwargs, result):
    d, T = _arg(args, kwargs, 0, "fe").dims
    return {"d": d, "T": T, "k": result.values.shape[0], "dates": len(result.dates)}


def _cell_sum_info(args, kwargs, result):
    fe = _arg(args, kwargs, 0, "fe")
    bounds = np.concatenate([fe.lows[:, 0, 0], fe.highs[:, 0, 0]])
    return {"cdf_evals": np.size(result) * np.unique(bounds[np.isfinite(bounds)]).size}


def _oracle_info(args, kwargs, result):
    k = np.shape(_arg(args, kwargs, 2, "x1"))[0]
    return {"inner_paths": k * _arg(args, kwargs, 3, "n_inner")}


ANNOTATORS = {
    "cart.best_split": _best_split_info,
    "flat.weighted_membership": _membership_info,
    "valuation.value_surface": _surface_info,
    "bermudan.gaussian_cell_sum": _cell_sum_info,
    "bench.oracle_v1": _oracle_info,
    "ensemble.fit_boost": lambda a, k, r: {"kept": r.n_rounds, "trees": len(r.trees)},
    "ensemble.fit_forest": lambda a, k, r: {"trees": len(r.trees)},
    "flat.flatten_model": lambda a, k, r: {"cells": r.n_cells},
}


class Tracer:
    """Installs span wrappers on a package's modules and keeps the spans."""

    def __init__(self):
        self.spans = []
        self.installed = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []
        self._get_threads = None
        self.annotation_errors = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            return next(self._ids)

    def _record(self, span):
        with self._lock:
            self.spans.append(span)

    def _call(self, name, fn, args, kwargs, parent=None, annotate=None, before=None):
        stack = self._stack()
        sid = self._new_id()
        if parent is None and stack:
            parent = stack[-1]
        if before is not None:
            args, kwargs = before(args, kwargs, sid)
        stack.append(sid)
        start = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            info = self._annotate(annotate, args, kwargs, result) if done and annotate else None
            self._record(Span(sid, name, start, end, parent or 0, threading.get_ident(), info))

    def _annotate(self, annotate, args, kwargs, result):
        """Computed counts for a span; a signature the annotator no longer fits gives None."""
        try:
            return annotate(args, kwargs, result)
        except Exception:  # noqa: BLE001 - tracing must never change the program's behaviour
            with self._lock:
                self.annotation_errors += 1
            return None

    def _wrap(self, fn, name):
        annotate = ANNOTATORS.get(name)
        before = None
        if name == "parallel.thread_map":
            before, annotate = self._items_before, self._thread_map_info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, annotate=annotate, before=before)
        self.installed.add(name)
        return wrapper

    def _items_before(self, args, kwargs, sid):
        """Run each thread_map item inside an item span parented to the map's span."""
        fn = _arg(args, kwargs, 0, "fn")
        items = list(_arg(args, kwargs, 1, "items"))

        def item(it):
            return self._call("parallel.thread_map.item", fn, (it,), {}, parent=sid)
        return (item, items), {}

    def _thread_map_info(self, args, kwargs, result):
        n = len(args[1])
        cap = self._get_threads() if self._get_threads is not None else 1
        return {"items": n, "workers": min(cap, n) if cap > 1 and n > 1 else 1}

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions and methods of ``package``'s LAYERS modules."""
        modules = [package] + [getattr(package, m) for m in LAYERS if hasattr(package, m)]
        prefix = package.__name__ + "."
        self._get_threads = getattr(getattr(package, "parallel", None), "get_threads", None)
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    if obj not in wrappers:
                        layer = obj.__module__[len(prefix):]
                        wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._patch(mod, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    layer = mod.__name__[len(prefix):]
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, meth_name,
                                        self._wrap(meth, f"{layer}.{meth_name}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ aggregation


class SpanIndex:
    """Lookups over a finished span list: busy, self time and children."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in self.spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)

    def calls(self, name):
        return len(self.by_name[name])

    def _nested_in_same_name(self, span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def busy(self, name, spans=None):
        """Inclusive time, summed over threads, without double-counting recursion."""
        spans = self.by_name[name] if spans is None else spans
        return sum(s.end - s.start for s in spans if not self._nested_in_same_name(s))

    def self_time(self, span):
        """Span duration minus the part of it its child spans cover."""
        covered = 0.0
        reach = span.start
        for c in sorted(self.children[span.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span.end - span.start) - covered

    def total_self(self, name):
        return sum(self.self_time(s) for s in self.by_name[name])

    def info_sum(self, name, key, spans=None):
        spans = self.by_name[name] if spans is None else spans
        return sum(s.info[key] for s in spans if s.info)

    def parent_of(self, span):
        return self.by_id.get(span.parent)


def _membership_at(ix, which):
    """weighted_membership spans made by value_surface at date 1 or date T."""
    out = []
    for s in ix.by_name["flat.weighted_membership"]:
        p = ix.parent_of(s)
        if s.info is None or p is None or p.name != "valuation.value_surface" or not p.info:
            continue
        t = s.info["coords"] // p.info["d"]
        if t == (1 if which == "t1" else p.info["T"]):
            out.append(s)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _grown_rounds(ix):
    return sum(1 for s in ix.by_name["cart.fit_tree"]
               if (p := ix.parent_of(s)) is not None and p.name == "ensemble.fit_boost")


def _utilization(ix):
    items = ix.by_name["parallel.thread_map.item"]
    wall = sum((s.end - s.start) * s.info["workers"]
               for s in ix.by_name["parallel.thread_map"] if s.info)
    return _ratio(sum(s.end - s.start for s in items), wall)


# (metric, unit, span names it needs, value from a SpanIndex)
LAYER_METRICS = [
    ("cart.best_split.calls", "count", ["cart.best_split"],
     lambda ix: ix.calls("cart.best_split")),
    ("cart.best_split.busy_s", "s", ["cart.best_split"],
     lambda ix: ix.busy("cart.best_split")),
    ("cart.fit_tree.self_s", "s", ["cart.fit_tree"],
     lambda ix: ix.total_self("cart.fit_tree")),
    ("cart.split_yield", "ratio", ["cart.best_split"],
     lambda ix: _ratio(sum(1 for s in ix.by_name["cart.best_split"] if s.info and s.info["split"]),
                       ix.calls("cart.best_split"))),
    ("cart.scan_cells", "count", ["cart.best_split"],
     lambda ix: sum(s.info["rows"] * s.info["cols"]
                    for s in ix.by_name["cart.best_split"] if s.info)),
    ("cart.predict_tree.busy_s", "s", ["cart.predict_tree"],
     lambda ix: ix.busy("cart.predict_tree")),
    ("ensemble.fit_boost.busy_s", "s", ["ensemble.fit_boost"],
     lambda ix: ix.busy("ensemble.fit_boost")),
    ("ensemble.rounds_grown", "count", ["ensemble.fit_boost", "cart.fit_tree"], _grown_rounds),
    ("ensemble.rounds_kept", "count", ["ensemble.fit_boost"],
     lambda ix: ix.info_sum("ensemble.fit_boost", "kept")),
    ("ensemble.round_yield", "ratio", ["ensemble.fit_boost", "cart.fit_tree"],
     lambda ix: _ratio(ix.info_sum("ensemble.fit_boost", "kept"), _grown_rounds(ix))),
    ("ensemble.fit_forest.busy_s", "s", ["ensemble.fit_forest"],
     lambda ix: ix.busy("ensemble.fit_forest")),
    ("ensemble.trees", "count", ["ensemble.fit_forest", "ensemble.fit_boost"],
     lambda ix: ix.info_sum("ensemble.fit_forest", "trees")
     + ix.info_sum("ensemble.fit_boost", "trees")),
    ("flat.cells", "count", ["flat.flatten_model"],
     lambda ix: ix.info_sum("flat.flatten_model", "cells")),
    ("flat.flatten_model.busy_s", "s", ["flat.flatten_model"],
     lambda ix: ix.busy("flat.flatten_model")),
    ("flat.weighted_membership.busy_s", "s", ["flat.weighted_membership"],
     lambda ix: ix.busy("flat.weighted_membership")),
    ("flat.weighted_membership.t1.busy_s", "s",
     ["flat.weighted_membership", "valuation.value_surface"],
     lambda ix: ix.busy("flat.weighted_membership", _membership_at(ix, "t1"))),
    ("flat.weighted_membership.tT.busy_s", "s",
     ["flat.weighted_membership", "valuation.value_surface"],
     lambda ix: ix.busy("flat.weighted_membership", _membership_at(ix, "tT"))),
    ("flat.membership_pairs", "count", ["flat.weighted_membership"],
     lambda ix: sum(s.info["k"] * s.info["cells"]
                    for s in ix.by_name["flat.weighted_membership"] if s.info)),
    ("flat.membership_pairs_per_s", "1/s", ["flat.weighted_membership"],
     lambda ix: _ratio(sum(s.info["k"] * s.info["cells"]
                           for s in ix.by_name["flat.weighted_membership"] if s.info),
                       ix.busy("flat.weighted_membership"))),
    ("flat.save_flat.busy_s", "s", ["flat.save_flat"], lambda ix: ix.busy("flat.save_flat")),
    ("flat.write_flat_text.busy_s", "s", ["flat.write_flat_text"],
     lambda ix: ix.busy("flat.write_flat_text")),
    ("measure.period_probs.calls", "count", ["measure.period_probs"],
     lambda ix: ix.calls("measure.period_probs")),
    ("measure.period_probs.busy_s", "s", ["measure.period_probs"],
     lambda ix: ix.busy("measure.period_probs")),
    ("valuation.value_surface.busy_s", "s", ["valuation.value_surface"],
     lambda ix: ix.busy("valuation.value_surface")),
    ("valuation.value_surface.self_s", "s", ["valuation.value_surface"],
     lambda ix: ix.total_self("valuation.value_surface")),
    ("valuation.period_prob_matrix.busy_s", "s", ["valuation.period_prob_matrix"],
     lambda ix: ix.busy("valuation.period_prob_matrix")),
    ("valuation.scenario_dates_per_s", "1/s", ["valuation.value_surface"],
     lambda ix: _ratio(sum(s.info["k"] * s.info["dates"]
                           for s in ix.by_name["valuation.value_surface"] if s.info),
                       ix.busy("valuation.value_surface"))),
    ("valuation.to_csv.busy_s", "s", ["valuation.to_csv"], lambda ix: ix.busy("valuation.to_csv")),
    ("bermudan.price_regress_later.busy_s", "s", ["bermudan.price_regress_later"],
     lambda ix: ix.busy("bermudan.price_regress_later")),
    ("bermudan.price_regress_now.busy_s", "s", ["bermudan.price_regress_now"],
     lambda ix: ix.busy("bermudan.price_regress_now")),
    ("bermudan.gaussian_cell_sum.calls", "count", ["bermudan.gaussian_cell_sum"],
     lambda ix: ix.calls("bermudan.gaussian_cell_sum")),
    ("bermudan.gaussian_cell_sum.busy_s", "s", ["bermudan.gaussian_cell_sum"],
     lambda ix: ix.busy("bermudan.gaussian_cell_sum")),
    ("bermudan.cdf_evals", "count", ["bermudan.gaussian_cell_sum"],
     lambda ix: ix.info_sum("bermudan.gaussian_cell_sum", "cdf_evals")),
    ("bermudan.cdf_evals_per_s", "1/s", ["bermudan.gaussian_cell_sum"],
     lambda ix: _ratio(ix.info_sum("bermudan.gaussian_cell_sum", "cdf_evals"),
                       ix.busy("bermudan.gaussian_cell_sum"))),
    ("bermudan.continuation_matrix.busy_s", "s", ["bermudan.continuation_matrix"],
     lambda ix: ix.busy("bermudan.continuation_matrix")),
    ("bermudan.stopping_distribution.busy_s", "s", ["bermudan.stopping_distribution"],
     lambda ix: ix.busy("bermudan.stopping_distribution")),
    ("bench.oracle_v1.busy_s", "s", ["bench.oracle_v1"], lambda ix: ix.busy("bench.oracle_v1")),
    ("bench.inner_paths", "count", ["bench.oracle_v1"],
     lambda ix: ix.info_sum("bench.oracle_v1", "inner_paths")),
    ("bench.inner_paths_per_s", "1/s", ["bench.oracle_v1"],
     lambda ix: _ratio(ix.info_sum("bench.oracle_v1", "inner_paths"),
                       ix.busy("bench.oracle_v1"))),
    ("paths.simulate_bs.calls", "count", ["paths.simulate_bs"],
     lambda ix: ix.calls("paths.simulate_bs")),
    ("paths.simulate_bs.busy_s", "s", ["paths.simulate_bs"],
     lambda ix: ix.busy("paths.simulate_bs")),
    ("paths.payoff_value.busy_s", "s", ["paths.payoff_value"],
     lambda ix: ix.busy("paths.payoff_value")),
    ("parallel.thread_map.items", "count", ["parallel.thread_map"],
     lambda ix: ix.info_sum("parallel.thread_map", "items")),
    ("parallel.thread_map.busy_s", "s", ["parallel.thread_map"],
     lambda ix: ix.busy("parallel.thread_map")),
    ("parallel.workers", "count", ["parallel.thread_map"],
     lambda ix: max((s.info["workers"] for s in ix.by_name["parallel.thread_map"] if s.info),
                    default=0)),
    ("parallel.utilization", "ratio", ["parallel.thread_map"], _utilization),
    ("risk.risk_report.busy_s", "s", ["risk.risk_report"], lambda ix: ix.busy("risk.risk_report")),
    ("risk.detrended_qq.busy_s", "s", ["risk.detrended_qq"],
     lambda ix: ix.busy("risk.detrended_qq")),
]
for _stage in ("train", "value", "risk", "bermudan"):
    LAYER_METRICS.append((f"cli.{_stage}.busy_s", "s", [f"cli.cmd_{_stage}"],
                          lambda ix, n=f"cli.cmd_{_stage}": ix.busy(n)))
for _stage in ("train", "value", "risk"):
    LAYER_METRICS.append((f"cli.{_stage}.self_s", "s", [f"cli.cmd_{_stage}"],
                          lambda ix, n=f"cli.cmd_{_stage}": ix.total_self(n)))


def layer_metrics(tracer):
    """Per-layer values from a finished trace, and the metrics whose spans are absent.

    A metric is absent when a span it needs was never installed, i.e.
    the public name it wraps no longer exists.  Absent metrics read 0.
    """
    ix = SpanIndex(tracer.spans)
    values, absent = {}, []
    for name, unit, needs, fn in LAYER_METRICS:
        if not all(n in tracer.installed for n in needs):
            absent.append(name)
            values[name] = (0.0, unit)
        else:
            values[name] = (float(fn(ix)), unit)
    return values, absent
