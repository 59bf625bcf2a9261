"""Outside-in trace shims for the benchmark's traced run.

The shims replace public harris functions and selector methods with wrappers
that record spans (name, parent span, start, end) and counters taken from the
wrapped call's arguments and results. A function is patched in every harris
module that binds it, so calls through ``from .x import f`` are seen as well.
Spans stay in memory until :meth:`Tracer.write`.

Only the traced run imports this module. A public name that is missing or has
a different shape drops its own per-layer metrics with a note; it never fails
the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute)
FUNCTIONS = [
    ("tree.best_split", "harris.tree", "best_split"),
    ("tree.build_tree", "harris.tree", "build_tree"),
    ("forest.fit_forest", "harris.forest", "fit_forest"),
    ("forest.predict_costs", "harris.forest", "predict_costs"),
    ("forest.save_forest", "harris.forest", "save_forest"),
    ("forest.load_forest", "harris.forest", "load_forest"),
    ("scenario.parse_scenario", "harris.scenario", "parse_scenario"),
    ("scenario.preprocess", "harris.scenario", "filter_unsolved"),
    ("scenario.preprocess", "harris.scenario", "par10_matrix"),
    ("scenario.preprocess", "harris.scenario", "column_medians"),
    ("scenario.preprocess", "harris.scenario", "impute_features"),
    ("scenario.preprocess", "harris.scenario", "scale_performances"),
    ("evaluation.cross_validate", "harris.evaluation", "cross_validate"),
    ("evaluation.sweep", "harris.evaluation", "sweep"),
    ("evaluation.write_report_csv", "harris.evaluation", "write_report_csv"),
    ("losses.rank_vector", "harris.losses", "rank_vector"),
    ("losses.kendall_tau_b", "harris.losses", "kendall_tau_b"),
]

# selector class -> metric name; select_s covers select() and predicted_costs()
SELECTORS = {
    "HarrisSelector": "harris",
    "RegressionForestSelector": "rfr",
    "PairwiseVotingSelector": "satzilla",
    "ClusterSelector": "isac",
    "SingleBestSelector": "sbs",
}

PER_LAYER = [
    ("tree.best_split.calls", "count"), ("tree.best_split.s", "s"),
    ("tree.best_split.cells", "count"), ("tree.best_split.found_ratio", "ratio"),
    ("tree.build_tree.calls", "count"), ("tree.build_tree.self_s", "s"),
    ("tree.nodes", "count"), ("tree.leaves", "count"), ("tree.leaves_at_max_depth", "count"),
    ("forest.fit_forest.calls", "count"), ("forest.fit_forest.self_s", "s"),
    ("forest.predict_costs.calls", "count"), ("forest.predict_costs.s", "s"),
    ("forest.save_forest.s", "s"), ("forest.load_forest.s", "s"),
    ("forest.model_bytes", "bytes"),
    ("scenario.parse_scenario.s", "s"), ("scenario.parse_scenario.rows_per_s", "1/s"),
    ("scenario.preprocess.s", "s"),
    *((f"baselines.{sel}.{m}", u) for sel in SELECTORS.values()
      for m, u in (("fit_s", "s"), ("select_s", "s"), ("select_calls", "count"))),
    ("evaluation.cross_validate.calls", "count"), ("evaluation.cross_validate.self_s", "s"),
    ("evaluation.sweep.s", "s"), ("evaluation.write_report_csv.s", "s"),
    ("losses.rank_vector.calls", "count"), ("losses.rank_vector.s", "s"),
    ("losses.kendall_tau_b.calls", "count"), ("losses.kendall_tau_b.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]


def _tree_shape(node, max_depth, depth=0):
    """(nodes, leaves, leaves at max depth) of a Leaf/Internal tree."""
    if hasattr(node, "left") and hasattr(node, "right"):
        a = _tree_shape(node.left, max_depth, depth + 1)
        b = _tree_shape(node.right, max_depth, depth + 1)
        return 1 + a[0] + b[0], a[1] + b[1], a[2] + b[2]
    if not hasattr(node, "labels"):
        raise TypeError(f"unknown tree node type {type(node).__name__}")
    return 1, 1, int(depth >= max_depth)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []           # [name, parent id, start, end]
        self.counters = defaultdict(float)
        self.notes = []
        self.dropped = set()      # per-layer metric prefixes that could not be measured
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    # --- spans ----------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _exit(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span recorded by the benchmark itself around a call into a layer."""
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, fn, name, on_call=None, on_result=None, counted=()):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if on_call is not None or on_result is not None:
                try:
                    if on_call is not None:
                        on_call(args, kwargs)
                    if on_result is not None:
                        on_result(args, kwargs, result)
                except Exception as exc:  # counters must never fail the workload
                    tracer._drop(counted, f"counters of {name} failed ({exc!r}); "
                                 f"{', '.join(counted)} dropped")
            return result

        return wrapper

    def _drop(self, prefixes, note):
        if not set(prefixes) <= self.dropped:
            self.dropped.update(prefixes)
            self.notes.append(note)

    # --- installation -----------------------------------------------------------
    def install(self):
        hooks = {  # prefix -> (on_call, on_result, metrics the counters feed)
            "tree.best_split": (self._count_cells, self._count_found,
                                ("tree.best_split.cells", "tree.best_split.found_ratio")),
            "tree.build_tree": (None, self._count_tree,
                                ("tree.nodes", "tree.leaves", "tree.leaves_at_max_depth")),
            "forest.save_forest": (None, self._count_model_file, ("forest.model_bytes",)),
            "forest.load_forest": (self._count_model_file_arg, None, ("forest.model_bytes",)),
            "scenario.parse_scenario": (None, self._count_rows,
                                        ("scenario.parse_scenario.rows_per_s",)),
        }
        for prefix, module_name, attr in FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            on_call, on_result, counted = hooks.get(prefix, (None, None, ()))
            if not callable(original):
                self._drop((prefix, *counted),
                           f"{module_name}.{attr} not found; {prefix} metrics dropped")
                continue
            wrapper = self._wrap(original, prefix, on_call, on_result, counted)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "harris" or mod_name.startswith("harris.")) \
                        and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        baselines = sys.modules.get("harris.baselines")
        for cls_name, sel in SELECTORS.items():
            cls = getattr(baselines, cls_name, None) if baselines else None
            if cls is None:
                self._drop((f"baselines.{sel}",), f"harris.baselines.{cls_name} not found; "
                           f"baselines.{sel} metrics dropped")
                continue
            for method, name in (("fit", f"baselines.{sel}.fit"),
                                 ("select", f"baselines.{sel}.select"),
                                 ("predicted_costs", f"baselines.{sel}.predicted_costs")):
                original = cls.__dict__.get(method)
                if original is None:
                    continue  # inherited default, e.g. Selector.predicted_costs
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- counters ----------------------------------------------------------------
    def _count_cells(self, args, kwargs):
        features = args[0] if args else kwargs["features"]
        cand = args[3] if len(args) > 3 else kwargs.get("candidate_features")
        rows, cols = features.shape
        self.counters["tree.best_split.cells"] += rows * (cols if cand is None else len(cand))

    def _count_found(self, args, kwargs, result):
        self.counters["tree.best_split.found"] += result is not None

    def _count_tree(self, args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs["config"]
        nodes, leaves, at_max = _tree_shape(result, config.max_depth)
        self.counters["tree.nodes"] += nodes
        self.counters["tree.leaves"] += leaves
        self.counters["tree.leaves_at_max_depth"] += at_max

    def _count_model_file(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counters["forest.model_bytes"] = os.path.getsize(path)

    def _count_model_file_arg(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counters["forest.model_bytes"] = os.path.getsize(path)

    def _count_rows(self, args, kwargs, result):
        n, k = result.n_instances, result.n_algorithms
        self.counters["scenario.parse_scenario.rows"] += n * (k + 2)

    # --- reduction -----------------------------------------------------------------
    def mark(self) -> int:
        """Start a new repetition: clear the counters, return the span index."""
        self.counters.clear()
        return len(self.spans)

    def metrics(self, mark: int = 0) -> dict:
        """Per-layer metrics of the spans from `mark` on and the current counters."""
        incl = defaultdict(float)     # outermost spans of each name only
        self_t = defaultdict(float)
        calls = defaultdict(int)
        spans = self.spans
        child = defaultdict(float)
        for sid in range(mark, len(spans)):
            name, parent, t0, t1 = spans[sid]
            dur = t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                incl[name] += dur
        for sid in range(mark, len(spans)):
            name, _, t0, t1 = spans[sid]
            self_t[name] += (t1 - t0) - child[sid]

        c = self.counters
        out = {
            "tree.best_split.calls": calls["tree.best_split"],
            "tree.best_split.s": incl["tree.best_split"],
            "tree.best_split.cells": c["tree.best_split.cells"],
            "tree.best_split.found_ratio":
                c["tree.best_split.found"] / calls["tree.best_split"] if calls["tree.best_split"] else 0.0,
            "tree.build_tree.calls": calls["tree.build_tree"],
            "tree.build_tree.self_s": self_t["tree.build_tree"],
            "tree.nodes": c["tree.nodes"], "tree.leaves": c["tree.leaves"],
            "tree.leaves_at_max_depth": c["tree.leaves_at_max_depth"],
            "forest.fit_forest.calls": calls["forest.fit_forest"],
            "forest.fit_forest.self_s": self_t["forest.fit_forest"],
            "forest.predict_costs.calls": calls["forest.predict_costs"],
            "forest.predict_costs.s": incl["forest.predict_costs"],
            "forest.save_forest.s": incl["forest.save_forest"],
            "forest.load_forest.s": incl["forest.load_forest"],
            "forest.model_bytes": c["forest.model_bytes"],
            "scenario.parse_scenario.s": incl["scenario.parse_scenario"],
            "scenario.parse_scenario.rows_per_s":
                c["scenario.parse_scenario.rows"] / incl["scenario.parse_scenario"]
                if incl["scenario.parse_scenario"] else 0.0,
            "scenario.preprocess.s": incl["scenario.preprocess"],
            "evaluation.cross_validate.calls": calls["evaluation.cross_validate"],
            "evaluation.cross_validate.self_s": self_t["evaluation.cross_validate"],
            "evaluation.sweep.s": incl["evaluation.sweep"],
            "evaluation.write_report_csv.s": incl["evaluation.write_report_csv"],
            "losses.rank_vector.calls": calls["losses.rank_vector"],
            "losses.rank_vector.s": incl["losses.rank_vector"],
            "losses.kendall_tau_b.calls": calls["losses.kendall_tau_b"],
            "losses.kendall_tau_b.s": incl["losses.kendall_tau_b"],
            "cli.self_s": self_t["cli.main"],
            "trace.spans": len(spans) - mark,
        }
        for sel in SELECTORS.values():
            out[f"baselines.{sel}.fit_s"] = incl[f"baselines.{sel}.fit"]
            out[f"baselines.{sel}.select_s"] = (incl[f"baselines.{sel}.select"]
                                                + incl[f"baselines.{sel}.predicted_costs"])
            out[f"baselines.{sel}.select_calls"] = calls[f"baselines.{sel}.select"]
        for prefix in self.dropped:
            for name in [m for m in out if m == prefix or m.startswith(prefix + ".")]:
                del out[name]
        return out

    def write(self, path):
        """Write every span (name, parent, start, end) and the notes as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"notes": self.notes, "columns": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)
