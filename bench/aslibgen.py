"""Seeded generator of ASLib-format scenario directories for the benchmark.

A scenario is drawn from a fixed *family* (cluster centres, feature loadings
and per-algorithm response surfaces, fixed per shape) and a per-seed *sample*
(which instances, their noise, missing cells, timeouts and folds). The family
is fixed so that runs with different seeds measure the same kind of problem;
the seed changes every value the program reads.

Properties that change the program's behaviour are built in on purpose:

* latent cluster structure with a per-cluster favourite algorithm, so trees
  must split several times before their leaves are pure;
* timeouts (ties at PAR10 = 10 x cutoff) and crashed runs;
* unsolved instances, removed by ``--drop-unsolved``;
* missing feature values (``?``), imputed by fold-local medians;
* discrete features with few levels, so fewer candidate split points.

Files use plain unquoted names; the parser's quoting paths are not exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

N_FOLDS = 10
FAMILY_SEED = 0x4841_5252  # fixed family; the workload seed drives the sample
CUTOFF = 1000.0
MISSING = 0.03     # share of feature cells written as '?'
DISCRETE = 0.3     # share of features with 2..8 levels
UNSOLVED = 0.04    # share of instances every algorithm fails on
CLUSTERS = 6
LATENT = 4
CHUNK = 500        # instances formatted at a time, so writing stays small in memory


@dataclass(frozen=True)
class Shape:
    n: int                     # instances written, before unsolved ones are dropped
    k: int                     # algorithms
    p: int                     # features


@dataclass(frozen=True)
class Truth:
    """What the generator wrote, as the benchmark's independent reference."""

    name: str
    algorithms: tuple[str, ...]
    par10: np.ndarray          # n x k PAR10 costs in seconds, file order
    fold_of: np.ndarray        # n fold ids in 1..10
    features: np.ndarray       # n x p, NaN where '?' was written
    cutoff: float

    @property
    def solved(self) -> np.ndarray:
        return (self.par10 < 10.0 * self.cutoff).any(axis=1)


def _family(shape: Shape):
    rng = np.random.default_rng(np.random.SeedSequence((FAMILY_SEED, shape.k, shape.p)))
    d, c, k = LATENT, CLUSTERS, shape.k
    centres = rng.normal(0.0, 4.0, size=(c, d))
    base = rng.normal(0.0, 0.1, size=k)
    response = rng.normal(0.0, 0.1, size=(d, k))
    # the last k // 3 algorithms are unreliable: each cluster makes one to
    # three of them fail, and they are never the fastest where they finish,
    # so a selector that routes an instance to the wrong cluster loses
    # runtime, not a failed run; cluster c favours reliable algorithm c % r
    r = k - k // 3
    bonus = rng.normal(0.0, 0.12, size=(c, k))
    bonus[:, r:] += 0.3
    bonus[np.arange(c), np.arange(c) % r] -= 0.5
    fails = np.zeros((c, k), dtype=int)  # 0 runs, 1 times out, 2 crashes
    for cl in range(c):
        bad = rng.choice(np.arange(r, k), size=min(k - r, 1 + cl % 3), replace=False)
        fails[cl, bad] = 1
        fails[cl, bad[0]] = 1 + (cl % 2)
    n_disc = int(round(DISCRETE * shape.p))
    n_noise = shape.p // 5
    n_inf = max(1, shape.p - n_disc - n_noise)
    loadings = rng.normal(0.0, 1.0, size=(d, shape.p))
    levels = rng.choice([2, 3, 5, 8], size=shape.p)
    kinds = np.array(["inf"] * n_inf + ["disc"] * n_disc + ["noise"] * (shape.p - n_inf - n_disc))
    kinds = kinds[rng.permutation(shape.p)]
    skewed = rng.random(shape.p) < 0.3
    return centres, base, response, bonus, fails, loadings, levels, kinds, skewed


def _latin_normal(rng, n: int, d: int) -> np.ndarray:
    """n standard-normal draws per column, one from each of n equal-probability strata."""
    u = (np.argsort(rng.random((n, d)), axis=0) + rng.random((n, d))) / n
    return ndtri(u)


def _sample(shape: Shape, seed: int, name: str, stream: int):
    """Return (Truth, runtime, status) for one scenario.

    Different streams give independent samples for the same seed.
    """
    centres, base, response, bonus, fails, loadings, levels, kinds, skewed = _family(shape)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed) & 0xFFFFFFFF, 0xA51B, stream)))
    n, k, p = shape.n, shape.k, shape.p

    # stratified sample: equal cluster counts, Latin-hypercube offsets and an
    # exact unsolved count keep the difficulty of the sample steady across seeds
    cluster = rng.permutation(np.arange(n) % CLUSTERS)
    offset = 0.6 * _latin_normal(rng, n, LATENT)
    z = centres[cluster] + offset
    log_rt = (1.4 + base[None, :] + bonus[cluster] + offset @ response
              + rng.normal(0.0, 0.08, size=(n, k)))
    runtime = np.round(10.0 ** np.minimum(log_rt, 2.9), 2)
    fail = fails[cluster]
    fail[rng.permutation(n)[:int(round(UNSOLVED * n))]] = 1
    ok = fail == 0
    crashed = fail == 2
    runtime = np.where(ok, runtime, np.where(crashed, np.round(runtime / 10.0, 2), CUTOFF))
    status = np.where(ok, "ok", np.where(crashed, "crash", "timeout"))
    par10 = np.where(ok, runtime, 10.0 * CUTOFF)

    raw = z @ loadings + rng.normal(0.0, 0.3, size=(n, p))
    feats = np.empty((n, p))
    for f in range(p):
        col = raw[:, f]
        if kinds[f] == "disc":
            edges = np.linspace(-3.0, 3.0, levels[f] + 1)[1:-1]
            col = np.digitize(col / max(1e-9, col.std()), edges).astype(float)
        elif kinds[f] == "noise":
            col = rng.random(n)
        elif skewed[f]:
            col = np.exp(col / 2.0)
        feats[:, f] = np.round(col, 5)
    feats[rng.random((n, p)) < MISSING] = np.nan

    fold_of = 1 + rng.permutation(np.arange(n) % N_FOLDS)
    truth = Truth(name=name, algorithms=tuple(f"algo{j}" for j in range(k)), par10=par10,
                  fold_of=fold_of, features=feats, cutoff=CUTOFF)
    return truth, runtime, status


def _write_arff(path: Path, header: list, rows):
    """Write an ARFF header, then each chunk of data lines the iterable yields."""
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        for chunk in rows:
            f.write(chunk)


def write_scenario(directory, shape: Shape, seed: int, name: str, stream: int = 0) -> Truth:
    """Generate one scenario and write its four ASLib files to `directory`."""
    truth, runtime, status = _sample(shape, seed, name, stream)
    n, k, p = shape.n, shape.k, shape.p
    algos = truth.algorithms
    inst = [f"i{i:06d}" for i in range(n)]
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    (root / "description.txt").write_text("\n".join([
        f"scenario_id: {name}",
        "performance_measures: runtime",
        "maximize: false",
        "performance_type: runtime",
        f"algorithm_cutoff_time: {CUTOFF:g}",
        "algorithm_cutoff_memory: '?'",
        "features_cutoff_time: '?'",
        "features_cutoff_memory: '?'",
        "algorithms_deterministic: [" + ", ".join(algos) + "]",
        "algorithms_stochastic: []",
        "number_of_feature_steps: 1",
        "default_steps: [all]",
        "",
    ]), encoding="utf-8")

    def feature_rows():
        for lo in range(0, n, CHUNK):
            block = truth.features[lo:lo + CHUNK]
            cells = np.where(np.isnan(block), "?", block.astype(str))
            yield "".join(f"{inst[lo + r]},1," + ",".join(row) + "\n"
                          for r, row in enumerate(cells))

    def run_rows():
        for lo in range(0, n, CHUNK):
            rt_text = runtime[lo:lo + CHUNK].astype(str)
            yield "".join(f"{inst[lo + r]},1,{algos[j]},{rt_text[r, j]},{status[lo + r, j]}\n"
                          for r in range(len(rt_text)) for j in range(k))

    _write_arff(root / "feature_values.arff", [
        "@RELATION FEATURE_VALUES", "@ATTRIBUTE instance_id STRING",
        "@ATTRIBUTE repetition NUMERIC",
        *(f"@ATTRIBUTE feat{f:02d} NUMERIC" for f in range(p)), "@DATA",
    ], feature_rows())
    _write_arff(root / "algorithm_runs.arff", [
        "@RELATION ALGORITHM_RUNS", "@ATTRIBUTE instance_id STRING",
        "@ATTRIBUTE repetition NUMERIC", "@ATTRIBUTE algorithm STRING",
        "@ATTRIBUTE runtime NUMERIC",
        "@ATTRIBUTE runstatus {ok, timeout, memout, not_applicable, crash, other}",
        "@DATA",
    ], run_rows())
    _write_arff(root / "cv.arff", [
        "@RELATION CV", "@ATTRIBUTE instance_id STRING",
        "@ATTRIBUTE repetition NUMERIC", "@ATTRIBUTE fold NUMERIC", "@DATA",
    ], ["".join(f"{inst[i]},1,{truth.fold_of[i]}\n" for i in range(n))])
    return truth


def describe(truth: Truth) -> dict:
    """Measured shape of a scenario as the program sees it after dropping
    unsolved instances."""
    solved = truth.solved
    costs = truth.par10[solved]
    tied = np.array([len(np.unique(row)) < row.size for row in costs])
    return {
        "n_written": int(truth.par10.shape[0]),
        "n": int(solved.sum()),
        "k": int(truth.par10.shape[1]),
        "p": int(truth.features.shape[1]),
        "unsolved_dropped": int((~solved).sum()),
        "tied_ranking_share": round(float(tied.mean()), 4),
        "missing_share": round(float(np.isnan(truth.features).mean()), 4),
        "timeout_share": round(float((truth.par10 >= 10.0 * truth.cutoff).mean()), 4),
    }
