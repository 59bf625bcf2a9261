#!/usr/bin/env python3
"""Seeded, layered benchmark of the harris package.

    python3 bench/run.py --workload cv-hybrid --seed 1 --seconds 32 --trace 0

Run from the repository root. The benchmark writes ASLib-format scenario
directories generated from --seed under .bench_work/, drives the program
through its public entry points (``harris.cli.main`` in-process for
``evaluate``, ``sweep`` and ``train``; the library API for ingest-serve),
checks every output against the generator's ground truth, and prints one
JSON object as the last line of stdout. A line before it, starting with
``{"info"``, carries the scenario shape, sample counts, output hashes, the
per-selector quality and the environment.

With --trace 0 the result holds the end-to-end metrics; their times are in
probe units, divided by the time of a fixed reference computation measured
during the same repetition (bench/probe.py), because the shared machine's
speed changes while it runs. With --trace 1 the
run first repeats the workload untraced for half of --seconds, then installs
the trace shims (bench/tracing.py) and repeats it traced for the other half;
the result holds the per-layer metrics and the spans are written to
.bench_work/traces/. The untraced run never imports the shims.

It is a closed loop with one caller: one process, pinned to one core, with
BLAS/OpenMP pools pinned to one thread and HARRIS_THREADS unset. See
bench/README.md for what each metric should move.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"
os.environ.pop("HARRIS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.stats import trim_mean  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_MIN = 3       # set-ups before the timed part
SETUP_SHARE = 0.1   # more set-ups between repetitions while they take less of the run
MIN_REPS = 2  # timed repetitions, after one warm-up repetition

sys.path.insert(0, str(Path(__file__).resolve().parent))
from aslibgen import Shape, describe, write_scenario  # noqa: E402
from checks import check_report, check_selections, reference  # noqa: E402
from probe import Probe  # noqa: E402

END_TO_END = [
    ("setup_s", "s"), ("wall_rel", "probe"), ("op_p50_rel", "probe"), ("op_p99_rel", "probe"),
    ("peak_rss_mb", "MB"), ("success_rate", "ratio"), ("par10_s", "s"), ("tau_b", "tau"),
]


@dataclass(frozen=True)
class Workload:
    kind: str                      # evaluate | sweep | serve
    shape: Shape
    args: tuple                    # CLI arguments after the command name
    cells: dict = field(default_factory=dict)   # selector -> (lambda, depth) cells in the report
    train_shape: Shape = None      # serve only: the training scenario


# Why each workload exists is in BENCHMARK.json, which leaves sweep-grid out (see
# bench/README.md). At seed speed one cv repetition takes 3-6 s and one default
# sweep of 550 single-tree fits ~15 s; the cv scenarios are just large enough
# that the quality metrics hold steady across seeds.
WORKLOADS = {
    "cv-hybrid": Workload(
        "evaluate", Shape(n=150, k=8, p=40),
        ("--selectors", "harris", "--lambda", "0.5", "--depth", "4", "--n-trees", "8",
         "--bootstrap", "--features-per-split", "sqrt", "--seed", "0"),
        {"harris": 1}),
    "cv-baselines": Workload(
        "evaluate", Shape(n=150, k=8, p=40),
        ("--selectors", "rfr,satzilla,isac,sbs,oracle", "--baseline-trees", "1",
         "--baseline-depth", "4", "--seed", "0"),
        {"rfr": 1, "satzilla": 1, "isac": 1, "sbs": 1, "oracle": 1}),
    "sweep-grid": Workload(
        "sweep", Shape(n=40, k=6, p=3),
        ("--paper-tree", "--seed", "0"),
        {"harris": 55}),
    "ingest-serve": Workload(
        "serve", Shape(n=12000, k=8, p=40),
        ("--lambda", "0.5", "--depth", "6", "--n-trees", "10", "--seed", "0"),
        train_shape=Shape(n=300, k=8, p=40)),
}

# tiny sizes for bench/selftest.py
TINY = {
    "cv-hybrid": dict(shape=Shape(n=40, k=4, p=6), args_extra=("--n-trees", "2")),
    "cv-baselines": dict(shape=Shape(n=40, k=4, p=6), args_extra=()),
    "sweep-grid": dict(shape=Shape(n=20, k=4, p=3), args_extra=("--lambdas", "0,1", "--depths", "2"),
                       cells={"harris": 2}),
    "ingest-serve": dict(shape=Shape(n=200, k=4, p=6), train_shape=Shape(n=60, k=4, p=6),
                         args_extra=("--n-trees", "2")),
}


def tiny(workload: Workload, name: str) -> Workload:
    t = TINY[name]
    return Workload(workload.kind, t["shape"], workload.args + t["args_extra"],
                    t.get("cells", workload.cells), t.get("train_shape"))


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _quiet_cli(argv):
    """harris.cli.main in-process; its stdout is written to a buffer."""
    from harris import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(argv), standalone_mode=False)


class Run:
    """State of one benchmark run: outputs, failures and timings."""

    def __init__(self, name: str, workload: Workload, seed: int, workdir: Path):
        self.name, self.w, self.seed, self.dir = name, workload, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, set] = {}
        self.quality: dict = {}
        self.latencies: list = []      # serve: per repetition, selection latencies in s
        self.latency_units: list = []  # serve: per repetition, the median routing probe time during them
        self.units: list = []          # per repetition, the mean probe time in s
        self.programs: list = []       # per repetition, wall time minus probe time in s
        self.ref = None
        self.truth = None
        self.model = workdir / "model-0.json"   # serve: the model the timed part loads

    def note(self, kind: str, path):
        self.hashes.setdefault(kind, set()).add(_sha(path))

    # --- set-up --------------------------------------------------------------
    def setup(self, i: int) -> float:
        t0 = time.perf_counter()
        scn = self.dir / f"scenario-{i}"
        truth = write_scenario(scn, self.w.shape, self.seed, f"{self.name}-s{self.seed}")
        if self.w.kind == "serve":
            train = self.dir / f"train-{i}"
            write_scenario(train, self.w.train_shape, self.seed, f"{self.name}-train", stream=1)
            model = self.dir / f"model-{i}.json"
            _quiet_cli(["train", "--scenario", str(train), *self.w.args, "-o", str(model)])
            elapsed = time.perf_counter() - t0
            self.note("model", model)
        else:
            elapsed = time.perf_counter() - t0
        if i == 0:
            self.truth, self.ref = truth, reference(truth)
        return elapsed

    # --- one repetition --------------------------------------------------------
    def rep(self, tracer=None, probe=None) -> float:
        """Run the timed part once, check its outputs; return its wall time.

        With an enabled probe, also record the repetition's program time and
        probe unit (see probe.py)."""
        probe = probe or Probe(enabled=False)
        scn = self.dir / "scenario-0"
        with probe:
            t0 = time.perf_counter()
            if self.w.kind == "serve":
                self._serve(scn, probe)
            else:
                self._command(len(self.programs), scn, tracer)
            elapsed = time.perf_counter() - t0
        self.programs.append(elapsed - probe.spent)
        self.units.append(probe.mean_s())
        return elapsed

    def _command(self, i: int, scn: Path, tracer):
        out = self.dir / f"report-{i}.csv"
        argv = [self.w.kind, "--scenario", str(scn), *self.w.args, "-o", str(out)]
        ops = sum(self.w.cells.values()) * len(self.ref.folds)
        self.attempted += ops
        try:
            if tracer is not None:
                with tracer.span("cli.main"):
                    _quiet_cli(argv)
            else:
                _quiet_cli(argv)
        except Exception:
            self.failed += ops
            self.problems.append(traceback.format_exc(limit=3))
            return
        text = out.read_text(encoding="utf-8")
        failed, problems, quality = check_report(text, self.ref, self.w.cells)
        self.failed += failed
        self.problems.extend(problems)
        self.quality = quality
        self.note("csv", out)

    def _serve(self, scn: Path, probe: Probe):
        from harris import forest as hforest
        from harris import scenario as hscenario
        m, k = self.ref.costs.shape
        self.attempted += 1 + m
        try:
            parsed = hscenario.parse_scenario(scn)
            kept = hscenario.filter_unsolved(parsed)
            costs = hscenario.par10_matrix(kept)
            X = hscenario.impute_features(kept.features, hscenario.column_medians(kept.features))
            hscenario.scale_performances(costs)
            model = hforest.load_forest(self.model)
            if X.shape != (m, self.truth.features.shape[1]):
                raise ValueError(f"parsed {X.shape}, generated {m} solved instances")
        except Exception:
            self.failed += 1 + m
            self.problems.append(traceback.format_exc(limit=3))
            return
        choices = np.full(m, -1)
        predicted = np.full((m, k), np.nan)
        lat = np.empty(m)
        clock = time.perf_counter
        first_sample = len(probe.route_samples)
        for i in range(m):
            x = X[i]
            spent = probe.spent  # a probe sample inside a selection is not its latency
            s = clock()
            try:
                choice = hforest.select_algorithm(model, x)
                cost = hforest.predict_costs(model, x)
            except Exception:
                lat[i] = clock() - s - (probe.spent - spent)
                self.problems.append(traceback.format_exc(limit=2))
                continue
            lat[i] = clock() - s - (probe.spent - spent)
            choices[i] = choice
            if np.shape(cost) == (k,):
                predicted[i] = cost
        self.latencies.append(lat)
        # a selection is far shorter than the spells in which the core is taken
        # away, so most latencies miss them, and so does the median routing pass
        during = probe.route_samples[first_sample:]
        self.latency_units.append(statistics.median(during) if len(during) >= 3 else None)
        if not np.array_equal(costs, self.ref.costs):
            self.failed += 1
            self.problems.append("parsed PAR10 matrix differs from the generated one")
        failed, problems, par10, tau = check_selections(choices, predicted, self.ref)
        self.failed += failed
        self.problems.extend(problems)
        self.quality = {("served", "", ""): (par10, tau)}
        self.hashes.setdefault("selections", set()).add(
            hashlib.sha256(choices.tobytes() + predicted.tobytes()).hexdigest())

    # --- reduction ---------------------------------------------------------------
    def finish_checks(self):
        for kind, digests in self.hashes.items():
            if len(digests) > 1:
                self.failed += 1
                self.problems.append(f"repeats gave {len(digests)} different {kind} files")

    def headline_quality(self):
        """(par10_s, tau_b, per-selector quality) for this workload."""
        q = self.quality
        named = {}
        for (sel, lam, depth), (par10, tau) in q.items():
            if sel == "harris" and self.w.kind == "sweep":
                continue
            named[f"par10.{sel}"] = par10
            if tau is not None:
                named[f"tau.{sel}"] = tau
        if not q:
            return float("nan"), float("nan"), named
        if self.w.kind == "sweep":
            (sel, lam, depth), (par10, tau) = min(q.items(), key=lambda kv: kv[1][0])
            named.update({"par10.harris": par10, "tau.harris": tau,
                          "best_cell": {"lambda": lam, "depth": depth}})
            return par10, tau, named
        if self.w.kind == "serve":
            par10, tau = q[("served", "", "")]
            named = {"par10.harris": par10, "tau.harris": tau}
            return par10, tau, named
        learned = [v for (sel, _, _), v in q.items() if sel not in ("sbs", "oracle")]
        par10 = statistics.fmean(v[0] for v in learned)
        taus = [v[1] for v in learned if v[1] is not None]
        return par10, statistics.fmean(taus) if taus else float("nan"), named


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(run: Run, seconds: float, min_reps: int, tracer=None, probe=None, between=None):
    """Repeat the timed part for `seconds`, at least min_reps times, calling
    `between` after each repetition; return the wall times and, when traced,
    the per-layer metrics of each repetition."""
    walls, per_rep = [], []
    start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - start < seconds:
        mark = tracer.mark() if tracer is not None else None
        walls.append(run.rep(tracer, probe))
        if tracer is not None:
            per_rep.append(tracer.metrics(mark))
        if between is not None:
            between()
    return walls, per_rep


def _warm_up(run: Run):
    """One checked repetition whose timings are dropped: imports and the
    program's first-call work happen here, not in the timed part."""
    start = time.perf_counter()
    run.rep()
    del run.programs[:], run.units[:], run.latencies[:], run.latency_units[:]
    return time.perf_counter() - start


def _pin_one_core():
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
        return cpus[-1]
    except (AttributeError, OSError):
        return None


def _environment(core):
    import scipy
    return {
        "nproc": os.cpu_count(),
        "pinned_core": core,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "HARRIS_THREADS": os.environ.get("HARRIS_THREADS"),
        "loop": "closed, one caller",
    }


def _import_program():
    src = ROOT / "src"
    if not (src / "harris" / "__init__.py").is_file():
        sys.exit(f"bench: no harris package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import harris
    if Path(harris.__file__).resolve().parent != (src / "harris").resolve():
        sys.exit(f"bench: imported harris from {harris.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for bench/selftest.py only")
    args = parser.parse_args(argv)

    _import_program()
    core = _pin_one_core()
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload, args.workload)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    run = Run(args.workload, workload, args.seed, workdir)
    try:
        return _measure(run, args, core)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _iqm(values) -> float:
    """Mean of the middle half. Repetitions fall into a fast and a slow state
    of the shared core; this moves smoothly with the share of each, where the
    median jumps between them, and a few outlying repetitions do not move it."""
    return float(trim_mean(values, 0.25))


def _end_to_end(run: Run, setups: list, info: dict) -> dict:
    """The end-to-end metrics of an untraced run; adds raw times to info."""
    par10, tau, named = run.headline_quality()
    # times in probe units: each repetition's times over its own probe time,
    # percentiles taken per repetition, then the interquartile mean over
    # repetitions. With one command per repetition, both percentiles are the
    # command time.
    rel = [prog / unit for prog, unit in zip(run.programs, run.units)]
    if run.latencies:
        per_rep_s = run.latencies
        units = [lu or u for lu, u in zip(run.latency_units, run.units)]
        op_name = "selection (select_algorithm + predict_costs)"
    else:
        per_rep_s = [[prog] for prog in run.programs]
        units = run.units
        op_name = f"one `harris {run.w.kind}` command"

    def percentiles(per_rep, summary):
        return [summary([np.percentile(lat, q) for lat in per_rep]) for q in (50, 99)]

    p50, p99 = percentiles([np.asarray(lat) / u for lat, u in zip(per_rep_s, units)], _iqm)
    p50_ms, p99_ms = (1e3 * v for v in percentiles(per_rep_s, statistics.median))
    values = {
        "setup_s": statistics.median(setups),
        "wall_rel": _iqm(rel),
        "op_p50_rel": p50,
        "op_p99_rel": p99,
        "peak_rss_mb": _peak_rss_mb(),
        "success_rate": 1.0 - run.failed / run.attempted,
        "par10_s": par10,
        "tau_b": tau,
    }
    info.update({"program_s": statistics.median(run.programs),
                 "probe_unit_ms": 1e3 * statistics.median(run.units),
                 "wall_rel_samples": rel,
                 "op": op_name, "op_p50_ms": p50_ms, "op_p99_ms": p99_ms,
                 "op_samples": int(sum(len(lat) for lat in per_rep_s)), "quality": named})
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _measure(run: Run, args, core):
    start = time.perf_counter()
    setups = [run.setup(i) for i in range(SETUP_MIN)]
    rss_setup = _peak_rss_mb()
    info = {"workload": args.workload, "seed": args.seed,
            "shape": describe(run.truth), "command": [run.w.kind, *run.w.args],
            "setup_samples": len(setups)}
    if run.w.kind == "serve":
        info["train_shape"] = {"n": run.w.train_shape.n, "k": run.w.train_shape.k,
                               "p": run.w.train_shape.p}

    if args.trace:
        warm = _warm_up(run)
        walls, _ = _loop(run, args.seconds / 2 - warm, 1)
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, per_rep = _loop(run, args.seconds / 2, 1, tracer)
            # one traced set-up: the model is saved there, not in the timed part
            mark = tracer.mark()
            run.setup(len(setups))
            saved = tracer.metrics(mark).get("forest.save_forest.s")
        finally:
            tracer.uninstall()
        metrics = {name: statistics.median(r[name] for r in per_rep)
                   for name in per_rep[0]}
        if saved is not None:
            metrics["forest.save_forest.s"] = saved
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        units = dict(tracing.PER_LAYER)
        out = {name: {"value": metrics[name], "unit": units[name]}
               for name, _ in tracing.PER_LAYER if name in metrics}
        info.update({"untraced_reps": len(walls), "traced_reps": len(traced),
                     "untraced_wall_s": statistics.median(walls),
                     "traced_wall_s": statistics.median(traced), "trace_notes": tracer.notes})
        (WORK / "traces").mkdir(exist_ok=True)
        trace_file = WORK / "traces" / f"{args.workload}-s{args.seed}.json"
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        run.finish_checks()
    else:
        def set_up_again():
            # the machine's speed drifts over a run: spread cheap set-ups
            # over it, as the timed repetitions are, so their median
            # does not hang on the speed of the first moments
            if sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
                setups.append(run.setup(len(setups)))

        warm = _warm_up(run)
        walls, _ = _loop(run, args.seconds - warm, MIN_REPS, probe=Probe(), between=set_up_again)
        run.finish_checks()
        out = _end_to_end(run, setups, info)
        info.update({"reps": len(walls), "warm_up_s": warm, "wall_samples_s": walls,
                     "setup_samples": len(setups),
                     "wall_s": statistics.median(walls),
                     "probe_share": 1.0 - sum(run.programs) / sum(walls)})

    info.update({
        # peak_rss_mb is the process peak; it belongs to the timed part only
        # if the timed part raised it above the peak after set-up
        "peak_rss_mb_after_setup": rss_setup, "peak_rss_mb_after_timed": _peak_rss_mb(),
        "error_rate": run.failed / run.attempted,
        "oracle_par10": run.ref.oracle_mean, "single_best_par10": run.ref.sbs_mean,
        "random_choice_par10": run.ref.random,
        "sha256": {kind: sorted(d) for kind, d in run.hashes.items()},
        "problems": run.problems[:20], "environment": _environment(core),
        "shims_loaded": "tracing" in sys.modules,
    })
    correct = run.failed == 0 and all(np.isfinite(v["value"]) for v in out.values())
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(run.attempted),
                      "failed": int(run.failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
