#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

1. Runs every workload at tiny size, untraced and traced,
   and checks that each result line is correct and names exactly the declared
   end-to-end (untraced) or per-layer (traced) metrics, each with its unit.
2. Checks that the output checks pass correct outputs and catch a selector
   that always picks the worst algorithm, a truncated report CSV, and served
   selections that are not the cheapest predicted algorithm.
3. Checks that the untraced run loads no trace shims, and that a missing
   public name drops only its own per-layer metrics, with a note.

Exits 0 when every check holds; prints one line per failed check otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from aslibgen import Shape, write_scenario  # noqa: E402
from checks import check_report, check_selections, reference  # noqa: E402
from run import WORKLOADS  # noqa: E402


def check_emitted(spec, failures):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:  # sweep-grid too, which BENCHMARK.json leaves out
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not proc.stdout.strip():
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            if json.loads(info_line)["info"]["shims_loaded"] != bool(trace):
                failures.append(f"{label}: trace shims loaded={not trace}")
            result = json.loads(result_line)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(declared[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(declared[trace]))}, "
                                f"units {[n for n in got if declared[trace].get(n) not in (None, got[n])]}")


def check_catches(failures):
    from harris import (HarrisSelector, Selector, cross_validate, filter_unsolved,
                        parse_scenario, write_report_csv)
    from harris.forest import ForestConfig, fit_forest, predict_costs
    from harris.scenario import column_medians, impute_features, par10_matrix
    from harris.tree import TreeConfig

    class WorstSelector(Selector):
        """Poses as harris and always picks the worst algorithm on average."""
        name = "harris"

        def fit(self, features, costs, *, scale=None, algorithm_names=None):
            self.mean = np.asarray(costs).mean(axis=0)
            return self

        def select(self, x):
            return int(np.argmax(self.mean))

        def predicted_costs(self, x):
            return -self.mean

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        truth = write_scenario(work / "scenario", Shape(n=60, k=4, p=6), 3, "selftest")
        ref = reference(truth)
        scn = filter_unsolved(parse_scenario(work / "scenario"))
        config = ForestConfig(n_trees=2, seed=0, tree=TreeConfig(lam=0.5, max_depth=4))
        reports = {}
        for label, factory in (("harris", lambda: HarrisSelector(config)),
                               ("worst", WorstSelector)):
            folds, agg = cross_validate(scn, factory, lam=0.5, depth=4)
            write_report_csv(work / f"{label}.csv", folds, [agg])
            reports[label] = (work / f"{label}.csv").read_text(encoding="utf-8")

        def failed(text):
            return check_report(text, ref, {"harris": 1})[0]

        if failed(reports["harris"]):
            failures.append(f"correct report flagged: {check_report(reports['harris'], ref, {'harris': 1})[1]}")
        if not failed(reports["worst"]):
            failures.append("always-worst selector not caught")
        truncated = "".join(reports["harris"].splitlines(keepends=True)[:-3])
        if not failed(truncated):
            failures.append("truncated CSV not caught")

        X = impute_features(scn.features, column_medians(scn.features))
        costs = par10_matrix(scn)
        forest = fit_forest(X, (costs - costs.min()) / np.ptp(costs), config)
        predicted = np.array([predict_costs(forest, x) for x in X])
        if check_selections(predicted.argmin(axis=1), predicted, ref)[0]:
            failures.append("correct selections flagged")
        if not check_selections(predicted.argmax(axis=1), predicted, ref)[0]:
            failures.append("worst-predicted selections not caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_missing_name(failures):
    """A public name that is gone drops only its own per-layer metrics."""
    import harris.losses
    import tracing
    saved = harris.losses.kendall_tau_b
    del harris.losses.kendall_tau_b
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        harris.losses.kendall_tau_b = saved
    metrics = tracer.metrics()
    if any(name.startswith("losses.kendall_tau_b") for name in metrics) or not tracer.notes:
        failures.append("missing kendall_tau_b did not drop its metrics with a note")
    if "losses.rank_vector.calls" not in metrics or "tree.best_split.calls" not in metrics:
        failures.append("missing kendall_tau_b dropped other metrics")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    check_catches(failures)
    check_missing_name(failures)
    check_emitted(spec, failures)
    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
