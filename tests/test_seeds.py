"""Every random stream comes from tree.seed_sequence: the forest's trees,
the baselines' sub-forest seeds, isac's k-means and the synthetic scenario
each draw exactly what their literal (seed mod 2**64, tag) stream in
oracles.py draws, and none takes a seed that is not an integer."""

import numpy as np
import pytest

import oracles
from harris import baselines
from harris.baselines import ClusterSelector, RegressionForestSelector
from harris.errors import DomainError
from harris.forest import ForestConfig, fit_forest
from harris.synthetic import make_synthetic_scenario
from harris.tree import TreeConfig

SEEDS = [0, -1, 2**64 + 5, np.int64(7)]
BAD_SEEDS = [1.5, True, "3"]


@pytest.mark.parametrize("seed", SEEDS)
def test_forest_trees_bootstrap_from_their_streams(seed):
    # constant features leave each tree one leaf, and one-hot labels make its
    # regression label the bootstrap draw's row counts over n
    n = 8
    forest = fit_forest(np.ones((n, 2)), np.eye(n),
                        ForestConfig(n_trees=3, seed=seed, tree=TreeConfig(max_depth=2)))
    for tree_number, tree in enumerate(forest.trees, start=1):
        rows = oracles.forest_tree_stream(seed, tree_number).integers(0, n, size=n)
        assert tree.regression.tolist() == [(np.bincount(rows, minlength=n) / n).tolist()]


@pytest.mark.parametrize("seed", SEEDS)
def test_forest_trees_sample_features_from_their_streams(seed):
    # after its bootstrap rows, a sampled tree takes its feature draws, one
    # array per depth level, from the rest of its stream
    rng = np.random.default_rng(4)
    n, config = 40, TreeConfig(lam=0.5, max_depth=4, features_per_split="sqrt")
    X, Y = rng.normal(size=(n, 10)), rng.uniform(size=(n, 3))
    forest = fit_forest(X, Y, ForestConfig(n_trees=3, seed=seed, tree=config))
    for tree_number, tree in enumerate(forest.trees, start=1):
        stream = oracles.forest_tree_stream(seed, tree_number)
        rows = stream.integers(0, n, size=n)
        assert oracles.tree_bytes(tree) == \
            oracles.level_order_build_tree(X[rows], Y[rows], config, stream)


@pytest.mark.parametrize("seed", SEEDS)
def test_sub_forest_seeds(seed):
    X = np.arange(12.0).reshape(6, 2)
    selector = RegressionForestSelector(n_trees=1, max_depth=1, seed=seed).fit(X, np.ones((6, 3)))
    assert [f.config.seed for f in selector.forests] == [oracles.sub_forest_seed(seed, j)
                                                         for j in range(3)]


@pytest.mark.parametrize("seed", SEEDS)
def test_isac_draws_from_its_stream(seed, monkeypatch):
    first_draws = []
    real_kmeans = baselines._kmeans

    def recording_kmeans(Z, k, rng):
        first_draws.append(rng.integers(0, 2**62, size=4).tolist())
        return real_kmeans(Z, k, rng)

    monkeypatch.setattr(baselines, "_kmeans", recording_kmeans)
    X = np.arange(12.0).reshape(6, 2)
    ClusterSelector(n_clusters=2, seed=seed).fit(X, np.ones((6, 3)))
    assert first_draws == [oracles.isac_stream(seed).integers(0, 2**62, size=4).tolist()]


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_scenario_draws_from_its_stream(seed):
    # the first two draws are each row's group (its best algorithm) and its
    # grid level, which together give feature 0
    n, k = 60, 3
    scn = make_synthetic_scenario(n, n_algorithms=k, seed=seed)
    rng = oracles.synthetic_stream(seed)
    group = rng.integers(0, k, size=n)
    level = rng.integers(0, 3, size=n)
    assert scn.performances.argmin(axis=1).tolist() == group.tolist()
    assert scn.features[:, 0].tolist() == ((group + 0.2 + 0.3 * level) / k).tolist()


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seed_must_be_an_integer(seed):
    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(DomainError, match="seed must be an integer"):
        ClusterSelector(n_clusters=2, seed=seed).fit(X, np.ones((6, 3)))
    with pytest.raises(DomainError, match="seed must be an integer"):
        make_synthetic_scenario(60, seed=seed)
    with pytest.raises(DomainError, match="seed must be an integer"):
        ForestConfig(seed=seed)
