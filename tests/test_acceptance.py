"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 7 needs real benchmark data (see README)
and is skipped, not failed, when the data directory is absent.
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from harris.baselines import HarrisSelector, OracleSelector
from harris.cli import main as cli_main
from harris.evaluation import (DEFAULT_DEPTH_GRID, DEFAULT_LAMBDA_GRID,
                               average_rank, cross_validate, read_report_csv, sweep)
from harris.forest import single_tree_config
from harris.losses import kendall_tau_b, rank_vector
from harris.scenario import Scenario, par10_matrix, parse_scenario
from harris.synthetic import make_synthetic_scenario
from harris.tree import TreeConfig, best_split, build_tree
from oracles import node_loss, par10, spearman_loss


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} {title}: PASS", flush=True)


def test_criterion_1_metric_oracles():
    with criterion(1, "metric oracles (brute-force rank/pair counts)"):
        started = time.monotonic()
        for k in range(2, 7):
            identity = np.arange(1.0, k + 1)
            reference = rank_vector(np.random.default_rng(k).uniform(size=k))
            for perm in itertools.permutations(identity):
                perm = np.array(perm)
                for other in (identity, reference):
                    expected = oracles.spearman_loss_counting(perm, other)
                    assert abs(spearman_loss(rank_vector(perm), rank_vector(other))
                               - expected) <= 1e-12
                    expected_tau = oracles.kendall_tau_b_pairs(
                        oracles.counting_ranks(perm), oracles.counting_ranks(other))
                    assert abs(kendall_tau_b(rank_vector(perm), rank_vector(other))
                               - expected_tau) <= 1e-12
                # strict permutations also admit the d^2 shortcut
                assert abs(spearman_loss(perm, identity)
                           - oracles.spearman_loss_strict(perm, identity)) <= 1e-12

        rng = np.random.default_rng(20260811)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            a = rng.choice([0.0, 0.25, 0.5, 1.0], size=k)
            b = rng.choice([0.0, 0.25, 0.5, 1.0], size=k)
            assert abs(spearman_loss(rank_vector(a), rank_vector(b))
                       - oracles.spearman_loss_counting(a, b)) <= 1e-12
            expected_tau = oracles.kendall_tau_b_pairs(
                oracles.counting_ranks(a), oracles.counting_ranks(b))
            if expected_tau is None:
                with pytest.raises(Exception):
                    kendall_tau_b(rank_vector(a), rank_vector(b))
            else:
                assert abs(kendall_tau_b(rank_vector(a), rank_vector(b))
                           - expected_tau) <= 1e-12
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"metric oracle check took {elapsed:.1f}s"


def test_criterion_2_split_search_oracle():
    with criterion(2, "split search matches exhaustive enumeration"):
        started = time.monotonic()
        rng = np.random.default_rng(424242)
        for _ in range(200):
            X, Y = oracles.random_split_dataset(rng, max_n=20, max_p=3, max_k=4)
            for lam in (0.0, 0.3, 0.7, 1.0):
                expected = oracles.exhaustive_best_split(X, Y, lam)
                got = best_split(X, Y, lam)
                if expected is None:
                    assert got is None
                    continue
                assert (got[0], got[1]) == (expected[0], expected[1]), \
                    f"tie-break mismatch at lam={lam}"
                assert abs(got[2] - expected[2]) <= 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"split oracle check took {elapsed:.1f}s"


def test_criterion_3_lambda_endpoint_equivalence():
    with criterion(3, "lambda endpoints reproduce single-loss reference trees"):
        rng = np.random.default_rng(777)
        for _ in range(50):
            X, Y = oracles.random_split_dataset(rng, max_n=16, max_p=3, max_k=4)
            grown = build_tree(X, Y, TreeConfig(lam=0.0, max_depth=3),
                               np.random.default_rng(0))
            assert oracles.tree_skeleton(grown) == oracles.reference_tree(X, Y, 3, "mse")
            grown = build_tree(X, Y, TreeConfig(lam=1.0, max_depth=3),
                               np.random.default_rng(0))
            assert oracles.tree_skeleton(grown) == oracles.reference_tree(X, Y, 3, "spearman")


def test_criterion_4_oracle_recovery_on_separable_scenario():
    with criterion(4, "separable scenario recovered to within 1% of oracle"):
        scn = make_synthetic_scenario(n_instances=500, n_algorithms=3, seed=0)
        oracle_folds, _ = cross_validate(scn, lambda: OracleSelector())
        oracle_by_fold = {r.fold: r.par10 for r in oracle_folds}
        for lam in (0.0, 0.3, 0.5, 1.0):
            for depth in (2, 3):
                config = single_tree_config(lam=lam, max_depth=depth, seed=0)
                folds, _ = cross_validate(scn, lambda: HarrisSelector(config),
                                          lam=lam, depth=depth)
                for record in folds:
                    bound = 1.01 * oracle_by_fold[record.fold]
                    assert record.par10 <= bound, \
                        f"lam={lam} depth={depth} fold={record.fold}: " \
                        f"{record.par10:.3f} > {bound:.3f}"


def test_criterion_5_par10_definition():
    with criterion(5, "PAR10 timeout values"):
        assert par10(1200.0, False, 1200.0) == 12000.0
        assert par10(7200.0, False, 7200.0) == 72000.0
        assert par10(100.0, True, 1200.0) == 100.0
        # the package's batched form: a timeout, a finished run, one at the cutoff
        scn = Scenario(name="par10", algorithm_names=("a", "b", "c"), feature_names=("f",),
                       features=np.zeros((1, 1)), performances=np.array([[1200.0, 100.0, 1200.0]]),
                       run_ok=np.array([[False, True, True]]), cutoff=1200.0,
                       fold_of=np.ones(1, dtype=int), instance_ids=("i",))
        assert par10_matrix(scn).tolist() == [[12000.0, 100.0, 12000.0]]


def test_criterion_6_reference_average_ranks():
    with criterion(6, "rank aggregation reproduces the reference table"):
        ranks = average_rank(oracles.REFERENCE_PAR10_TABLE)
        for name, expected in oracles.REFERENCE_AVERAGE_RANKS.items():
            assert abs(ranks[name] - expected) <= 0.005, (name, ranks[name])


def _locate_mip2016():
    candidates = []
    env = os.environ.get("HARRIS_ASLIB_DIR")
    if env:
        candidates += [Path(env), Path(env) / "MIP-2016"]
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "aslib" / "MIP-2016")
    for root in candidates:
        if (root / "description.txt").is_file():
            return root
    return None


MIP2016 = _locate_mip2016()


@pytest.mark.skipif(MIP2016 is None,
                    reason="MIP-2016 scenario not available (set HARRIS_ASLIB_DIR)")
def test_criterion_7_aslib_smoke(tmp_path):
    with criterion(7, "benchmark scenario end-to-end smoke"):
        started = time.monotonic()
        scn = parse_scenario(MIP2016)
        assert scn.n_instances == 218
        assert scn.n_algorithms == 5
        assert scn.n_features == 143
        assert scn.cutoff == 7200.0

        out = tmp_path / "mip.csv"
        result = CliRunner().invoke(cli_main, [
            "evaluate", "--scenario", str(MIP2016),
            "--selectors", "harris,rfr,isac,satzilla",
            "--lambda", "0.5", "--depth", "6", "--seed", "42",
            "--n-trees", "20", "--baseline-trees", "20",
            "-o", str(out)])
        assert result.exit_code == 0, result.output

        rows = read_report_csv(out)
        oracle_folds, oracle_agg = cross_validate(scn, lambda: OracleSelector())
        for row in rows:
            if row["row_type"] != "aggregate":
                continue
            value = float(row["par10"])
            assert oracle_agg.par10_mean - 1e-9 <= value <= 10.0 * scn.cutoff
        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"smoke run took {elapsed:.0f}s"


def test_criterion_8_byte_determinism(tmp_path):
    with criterion(8, "byte-identical reruns (CSV and model)"):
        runner = CliRunner()
        eval_args = ["evaluate", "--synthetic", "--synthetic-n", "90",
                     "--n-trees", "6", "--depth", "3", "--lambda", "0.7",
                     "--seed", "11", "--selectors", "harris,rfr",
                     "--baseline-trees", "4"]
        payloads = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            result = runner.invoke(cli_main, eval_args + ["-o", str(out)])
            assert result.exit_code == 0, result.output
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

        train_args = ["train", "--synthetic", "--synthetic-n", "90",
                      "--n-trees", "6", "--depth", "3", "--seed", "11"]
        models = []
        for name in ("a.json", "b.json", "c.json"):
            out = tmp_path / name
            result = runner.invoke(cli_main, train_args + ["-o", str(out)])
            assert result.exit_code == 0, result.output
            models.append(out.read_bytes())
        assert models[0] == models[1] == models[2]


def test_criterion_9_sweep_shape_and_affine_loss(tmp_path):
    with criterion(9, "default sweep grid is 55 cells; node loss affine in lambda"):
        scn = make_synthetic_scenario(90, seed=6)
        _, aggregates = sweep(scn, DEFAULT_LAMBDA_GRID, DEFAULT_DEPTH_GRID,
                              config=single_tree_config(0.0, 2, seed=0))
        assert len(aggregates) == 55
        assert len({(a.lam, a.depth) for a in aggregates}) == 55

        rng = np.random.default_rng(99)
        for _ in range(50):
            Y = rng.uniform(size=(int(rng.integers(1, 10)), int(rng.integers(2, 6))))
            reg = rng.uniform(size=Y.shape[1])
            ranking = rank_vector(rng.uniform(size=Y.shape[1]))
            at_zero = node_loss(Y, reg, ranking, 0.0)
            at_one = node_loss(Y, reg, ranking, 1.0)
            for lam in (0.0, 0.5, 1.0):
                expected = lam * at_one + (1.0 - lam) * at_zero
                assert abs(node_loss(Y, reg, ranking, lam) - expected) <= 1e-12
