import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harris.errors import DomainError, ModelFormatError
from harris.forest import (ForestConfig, HybridForest, fit_forest, forest_to_dict,
                           load_forest, predict_costs, save_forest, select_algorithm,
                           single_tree_config)
from harris.labels import NodeLabels
from harris.scenario import ScaleParams
from harris.synthetic import make_synthetic_scenario
from harris.tree import Internal, Leaf, TreeConfig, build_tree, predict_leaf

PURE_X = np.array([[0.0], [1.0], [2.0], [3.0]])
PURE_Y = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


def leaf_forest(rows):
    """Hand-built forest of single-leaf trees with fixed regression labels."""
    trees = tuple(
        Leaf(NodeLabels(regression=np.array(r, dtype=float),
                        ranking=np.argsort(np.argsort(r)) + 1.0), size=1)
        for r in rows
    )
    return HybridForest(trees=trees, config=ForestConfig(n_trees=len(rows)),
                        scale=ScaleParams(0.0, 1.0),
                        algorithm_names=tuple(f"a{j}" for j in range(len(rows[0]))),
                        n_features=1)


class TestFitForest:
    def test_degenerate_ensemble_equals_single_tree(self):
        config = single_tree_config(lam=0.5, max_depth=3, seed=11)
        forest = fit_forest(PURE_X, PURE_Y, config)
        reference = build_tree(PURE_X, PURE_Y, config.tree, np.random.default_rng(0))
        assert len(forest.trees) == 1
        assert oracles.tree_skeleton(forest.trees[0]) == oracles.tree_skeleton(reference)

    def test_same_seed_same_forest(self):
        config = ForestConfig(n_trees=8, seed=42,
                              tree=TreeConfig(lam=0.5, max_depth=3, features_per_split=1))
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(30, 3))
        Y = rng.uniform(size=(30, 2))
        first = fit_forest(X, Y, config)
        second = fit_forest(X, Y, config)
        assert forest_to_dict(first) == forest_to_dict(second)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(30, 3))
        Y = rng.uniform(size=(30, 2))
        tree = TreeConfig(lam=0.5, max_depth=3, features_per_split=1)
        first = fit_forest(X, Y, ForestConfig(n_trees=8, seed=0, tree=tree))
        second = fit_forest(X, Y, ForestConfig(n_trees=8, seed=1, tree=tree))
        assert forest_to_dict(first) != forest_to_dict(second)

    def test_bootstrap_forest_still_solves_pure_dataset(self):
        config = ForestConfig(n_trees=10, seed=1, bootstrap=True,
                              tree=TreeConfig(lam=0.5, max_depth=2))
        forest = fit_forest(PURE_X, PURE_Y, config)
        assert select_algorithm(forest, [0.5]) == 0
        assert select_algorithm(forest, [2.5]) == 1
        assert predict_costs(forest, [0.5])[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_training_data(self):
        with pytest.raises(DomainError):
            fit_forest(np.empty((0, 2)), np.empty((0, 2)), ForestConfig(n_trees=1))

    def test_bad_config(self):
        with pytest.raises(DomainError):
            ForestConfig(n_trees=0)


class TestPrediction:
    def test_single_tree_forest_returns_leaf_label(self):
        forest = leaf_forest([[0.25, 0.75]])
        assert predict_costs(forest, [0.0]).tolist() == [0.25, 0.75]

    def test_two_tree_mean(self):
        forest = leaf_forest([[0.0, 1.0], [1.0, 0.0]])
        assert predict_costs(forest, [0.0]).tolist() == [0.5, 0.5]

    def test_output_length_is_k(self):
        scn = make_synthetic_scenario(60, seed=4)
        forest = fit_forest(scn.features, scn.performances,
                            ForestConfig(n_trees=3, seed=0, tree=TreeConfig(max_depth=2)))
        assert predict_costs(forest, scn.features[0]).shape == (3,)

    def test_argmin_selection_and_tie_rule(self):
        assert select_algorithm(leaf_forest([[0.2, 0.7]]), [0.0]) == 0
        assert select_algorithm(leaf_forest([[0.5, 0.5]]), [0.0]) == 0

    def test_predictions_stay_within_training_label_range(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(50, 3))
        Y = rng.uniform(size=(50, 4))
        forest = fit_forest(X, Y, ForestConfig(n_trees=12, seed=3,
                                               tree=TreeConfig(lam=0.4, max_depth=3)))
        lo, hi = Y.min(), Y.max()
        for i in range(0, 50, 7):
            costs = predict_costs(forest, X[i])
            assert np.all(costs >= lo - 1e-12) and np.all(costs <= hi + 1e-12)

    def test_oracle_separable_selection_matches_argmin(self):
        scn = make_synthetic_scenario(150, seed=2)
        config = single_tree_config(lam=0.5, max_depth=2, seed=0)
        forest = fit_forest(scn.features, scn.performances, config,
                            algorithm_names=scn.algorithm_names)
        for i in range(scn.n_instances):
            assert select_algorithm(forest, scn.features[i]) \
                == int(np.argmin(scn.performances[i]))


# split points and row values share one grid, so rows land on splits exactly
GRID = [-1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 1.0, 1e300]


@st.composite
def forests_and_rows(draw):
    """A random small forest and a row drawn from its split-point grid (NaN too)."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    labels = st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k)

    def tree(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            reg = np.array(draw(labels))
            return Leaf(NodeLabels(regression=reg, ranking=reg.copy()), size=1)
        return Internal(feature_index=draw(st.integers(0, p - 1)),
                        split_point=draw(st.sampled_from(GRID)),
                        left=tree(depth - 1), right=tree(depth - 1))

    trees = tuple(tree(4) for _ in range(draw(st.integers(1, 7))))
    forest = HybridForest(trees=trees, config=ForestConfig(n_trees=len(trees)),
                          scale=ScaleParams(0.0, 1.0),
                          algorithm_names=tuple(f"a{j}" for j in range(k)), n_features=p)
    row = draw(st.lists(st.sampled_from(GRID + [float("nan")]), min_size=p, max_size=p))
    return forest, row


class TestRouting:
    @settings(deadline=None, max_examples=100)
    @given(forests_and_rows(), st.sampled_from([list, np.array]))
    def test_predict_costs_is_mean_of_leaf_labels(self, forest_row, as_input):
        forest, row = forest_row
        x = as_input(row)
        expected = np.mean([predict_leaf(t, np.array(row)).regression for t in forest.trees],
                           axis=0)
        assert predict_costs(forest, x).tobytes() == expected.tobytes()

    def test_split_point_goes_left(self):
        tree = Internal(feature_index=0, split_point=0.5,
                        left=Leaf(NodeLabels(np.array([1.0]), np.array([1.0])), 1),
                        right=Leaf(NodeLabels(np.array([2.0]), np.array([1.0])), 1))
        assert [predict_leaf(tree, x).regression[0]
                for x in ([0.5], np.array([0.5]), [np.nextafter(0.5, 1)], [np.nan])] == [
                    1.0, 1.0, 2.0, 2.0]


class TestScaleEquivariance:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_selection_invariant_under_label_scaling(self, lam):
        scn = make_synthetic_scenario(120, seed=9)
        raw = scn.performances
        scaled = (raw - raw.min()) / (raw.max() - raw.min())
        config = single_tree_config(lam=lam, max_depth=3, seed=0)
        on_raw = fit_forest(scn.features, raw, config)
        on_scaled = fit_forest(scn.features, scaled, config)
        for i in range(0, scn.n_instances, 5):
            x = scn.features[i]
            assert select_algorithm(on_raw, x) == select_algorithm(on_scaled, x)


class TestSerialization:
    def fitted(self):
        scn = make_synthetic_scenario(80, seed=5)
        config = ForestConfig(n_trees=4, seed=13,
                              tree=TreeConfig(lam=0.7, max_depth=3, features_per_split="sqrt"))
        return fit_forest(scn.features, scn.performances, config,
                          scale=ScaleParams(0.0, 1100.0),
                          algorithm_names=scn.algorithm_names)

    def test_round_trip(self, tmp_path):
        forest = self.fitted()
        path = tmp_path / "model.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert forest_to_dict(loaded) == forest_to_dict(forest)
        assert loaded.algorithm_names == forest.algorithm_names
        assert loaded.scale == forest.scale
        x = np.array([0.4, 0.2, 0.9])
        assert predict_costs(loaded, x).tolist() == predict_costs(forest, x).tolist()

    def test_save_is_byte_deterministic(self, tmp_path):
        forest = self.fitted()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(forest, a)
        save_forest(forest, b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch(self, tmp_path):
        forest = self.fitted()
        path = tmp_path / "model.json"
        save_forest(forest, path)
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError):
            load_forest(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ModelFormatError):
            load_forest(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("definitely not json")
        with pytest.raises(ModelFormatError):
            load_forest(path)

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("config"),
        lambda d: d["config"].pop("lambda"),
        lambda d: d.pop("scale"),
        lambda d: d.pop("trees"),
        lambda d: d["trees"][0][0].update(right=10_000),
        lambda d: d["trees"][0][0].update(left=-1),
        lambda d: d["trees"][0][0].update(left=0),
    ], ids=["no-config", "no-lambda", "no-scale", "no-trees",
            "child-out-of-range", "negative-child", "node-cycle"])
    def test_malformed_model_raises_model_format_error(self, tmp_path, damage):
        data = forest_to_dict(self.fitted())
        assert "feature" in data["trees"][0][0]  # the root is an internal node
        damage(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="model.json"):
            load_forest(path)
