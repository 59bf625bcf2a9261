import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harris import cli
from harris.errors import DomainError, ModelFormatError
from harris.forest import (ForestConfig, fit_forest, fit_forests, forest_from_dict,
                           forest_to_dict, load_forest, predict_costs, save_forest,
                           select_algorithm, single_tree_config)
from harris.losses import rank_vector
from harris.scenario import (ScaleParams, column_medians, filter_unsolved, impute_features,
                             parse_scenario)
from harris.synthetic import make_synthetic_scenario
from harris.tree import Tree, TreeConfig, build_tree

PURE_X = np.array([[0.0], [1.0], [2.0], [3.0]])
PURE_Y = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


def leaf_forest(rows):
    """Hand-built forest of single-leaf trees with fixed regression labels."""
    return oracles.forest_of([Tree([], [], [], [], np.array([r], dtype=float), [1], [0])
                              for r in rows])


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
        with pytest.raises(DomainError, match="n x k targets"):
            fit_forests(PURE_X, [], [])

    def test_bad_config(self):
        with pytest.raises(DomainError):
            ForestConfig(n_trees=0)

    @pytest.mark.parametrize("make, got", [
        (lambda: ForestConfig(n_trees=2.5), "2.5"),
        (lambda: ForestConfig(n_trees=True), "True"),
        (lambda: ForestConfig(seed="a"), "'a'"),
        (lambda: ForestConfig(seed=1.0), "1.0"),
        (lambda: ForestConfig(bootstrap="no"), "'no'"),
        (lambda: ForestConfig(bootstrap=1), "1"),
        (lambda: TreeConfig(lam="0.5"), "'0.5'"),
        (lambda: TreeConfig(lam=True), "True"),
        (lambda: TreeConfig(max_depth=2.5), "2.5"),
        (lambda: TreeConfig(max_depth=True), "True"),
        (lambda: TreeConfig(features_per_split=2.0), "2.0"),
        (lambda: TreeConfig(features_per_split=False), "False"),
        (lambda: TreeConfig(features_per_split="half"), "'half'"),
        (lambda: TreeConfig(features_per_split=0), "0"),
    ], ids=["fractional-trees", "boolean-trees", "string-seed", "float-seed",
            "string-bootstrap", "integer-bootstrap", "string-lambda", "boolean-lambda",
            "fractional-depth", "boolean-depth",
            "float-features-per-split", "boolean-features-per-split",
            "unknown-features-per-split", "zero-features-per-split"])
    def test_config_field_of_wrong_type(self, make, got):
        # each would otherwise fail late with a raw TypeError or ValueError, or
        # pass; the message names the value it refuses
        with pytest.raises(DomainError, match=rf"must be .*, got {re.escape(got)}$"):
            make()

    def test_config_stores_plain_numbers(self):
        config = ForestConfig(n_trees=np.int64(2), seed=np.uint8(3),
                              tree=TreeConfig(lam=1, max_depth=np.int32(4)))
        assert (type(config.tree.lam), type(config.n_trees), type(config.seed),
                type(config.tree.max_depth)) == (float, int, int, int)


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
def nested_trees_and_rows(draw):
    """Random small trees as oracle nested tuples, and a row drawn from their
    split-point grid (NaN too)."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    labels = st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k)

    def tree(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            reg = np.array(draw(labels))
            return ("leaf", 1, reg.tobytes())
        return ("node", draw(st.integers(0, p - 1)), draw(st.sampled_from(GRID)),
                tree(depth - 1), tree(depth - 1))

    trees = [tree(4) for _ in range(draw(st.integers(1, 20)))]
    row = draw(st.lists(st.sampled_from(GRID + [float("nan")]), min_size=p, max_size=p))
    return trees, row


class TestRouting:
    @settings(deadline=None, max_examples=100)
    @given(nested_trees_and_rows(), st.sampled_from([list, np.array]))
    def test_predict_costs_is_mean_of_leaf_labels(self, trees_row, as_input):
        # one-leaf trees mixed with split trees, joined by hand and loaded from
        # per-tree model records: from each tree's root, its walk reaches the
        # leaf its nested tree does
        trees, row = trees_row
        flat = [oracles.flat_tree(t) for t in trees]
        joined = oracles.forest_of(flat, n_features=len(row))
        records = [{"feature": t.feature, "split": t.split, "left": t.left, "right": t.right,
                    "regression": t.regression.tolist(), "size": t.size} for t in flat]
        loaded = forest_from_dict({**forest_to_dict(joined), "trees": records})
        expected = np.mean([np.frombuffer(oracles.route_nested(t, row)[2]) for t in trees],
                           axis=0)
        for forest in (joined, loaded):
            assert predict_costs(forest, as_input(row)).tobytes() == expected.tobytes()
            for (i, feature, split, left, right, leaf0), nested in zip(forest.walks, trees,
                                                                        strict=True):
                while i >= 0:
                    i = left[i] if row[feature[i]] <= split[i] else right[i]
                assert forest.trees.regression[leaf0 + ~i].tobytes() == \
                    oracles.route_nested(nested, row)[2]

    def test_walks_are_the_tables_own_lists(self, tmp_path):
        # fitted, saved and loaded, joined by hand (a one-leaf tree among
        # split trees) and all one-leaf: each walk holds its tree's model
        # record lists with ids unchanged, and its leaf 0 is the table's row
        # after the leaves of the trees before it
        rng = np.random.default_rng(4)
        X, Y = rng.uniform(size=(50, 3)), rng.uniform(size=(50, 2))
        fitted = fit_forest(X, Y, ForestConfig(n_trees=5, seed=1, tree=TreeConfig(max_depth=3)))
        save_forest(fitted, tmp_path / "m.json")
        leaf = ("leaf", 2, np.array([0.5, 1.5]).tobytes())
        nested = ("node", 1, 0.25, leaf, ("node", 0, 0.5, leaf, leaf))
        joined = oracles.forest_of([oracles.flat_tree(t) for t in (nested, leaf, nested)],
                                   n_features=3)
        stumps = fit_forest(X, Y, ForestConfig(n_trees=3, tree=TreeConfig(max_depth=0)))
        for forest in (fitted, load_forest(tmp_path / "m.json"), joined, stumps):
            records = forest_to_dict(forest)["trees"]
            assert len(forest.walks) == len(records)
            leaves_before = 0
            for (root, *lists, leaf0), record in zip(forest.walks, records):
                assert root == (0 if record["feature"] else -1)
                assert lists == [record[key] for key in ("feature", "split", "left", "right")]
                assert leaf0 == leaves_before
                leaves_before += len(record["size"])
            assert leaves_before == len(forest.trees.regression)
        assert [walk[0] for walk in stumps.walks] == [-1, -1, -1]

    def test_split_point_goes_left(self):
        tree = Tree([0], [0.5], [-1], [-2], np.array([[1.0], [2.0]]), [1, 1], [1])
        forest = oracles.forest_of([tree])
        assert [predict_costs(forest, x)[0]
                for x in ([0.5], np.array([0.5]), [np.nextafter(0.5, 1)], [np.nan])] == [
                    1.0, 1.0, 2.0, 2.0]

    def test_served_rows_match_a_walk_of_each_tree(self, tmp_path, monkeypatch):
        # on every row of the benchmark's ingest-serve scenario, with its
        # model, the costs are the mean of the leaf labels a walk of each
        # tree's slice of the table reaches, and the selection is their first
        # argmin (bench/ is only read)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from aslibgen import Shape, write_scenario
        train, serve, model = tmp_path / "train", tmp_path / "serve", tmp_path / "m.json"
        write_scenario(train, Shape(n=300, k=8, p=40), 1, "ingest-serve-train", stream=1)
        write_scenario(serve, Shape(n=12000, k=8, p=40), 1, "ingest-serve-s1")
        cli.main(["train", "--scenario", str(train), "--lambda", "0.5", "--depth", "6",
                  "--n-trees", "10", "--seed", "0", "-o", str(model)], standalone_mode=False)
        forest = load_forest(model)
        kept = filter_unsolved(parse_scenario(serve))
        X = impute_features(kept.features, column_medians(kept.features))
        assert len(X) == 11_520
        for x in X:
            leaves = []
            for tree in forest.trees:
                i = 0 if tree.feature else -1
                while i >= 0:
                    i = tree.left[i] if x[tree.feature[i]] <= tree.split[i] else tree.right[i]
                leaves.append(tree.regression[~i])
            expected = np.mean(leaves, axis=0)
            assert predict_costs(forest, x).tobytes() == expected.tobytes()
            assert select_algorithm(forest, x) == np.flatnonzero(expected == expected.min())[0]


class TestForestsFittedTogether:
    def test_forests_of_different_sizes(self, tmp_path):
        # each forest is its own slice of one lockstep fit, and its walks
        # are the ones its saved and loaded copy derives
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(40, 4))
        targets = [rng.uniform(size=(40, 2)) for _ in range(3)]
        tree = TreeConfig(lam=0.5, max_depth=4, features_per_split=2)
        configs = [ForestConfig(n_trees=1, bootstrap=False, seed=3, tree=tree),
                   ForestConfig(n_trees=4, bootstrap=True, seed=5, tree=tree),
                   ForestConfig(n_trees=2, bootstrap=True, seed=0, tree=tree)]
        rows = [*X, *rng.uniform(-0.2, 1.2, size=(30, 4))]
        forests = fit_forests(X, targets, configs)
        assert [len(forest.trees) for forest in forests] == [1, 4, 2]
        for i, (forest, Y, config) in enumerate(zip(forests, targets, configs, strict=True)):
            alone = fit_forest(X, Y, config)
            assert forest_to_dict(forest) == forest_to_dict(alone)
            assert [predict_costs(forest, x).tobytes() for x in rows] == \
                [predict_costs(alone, x).tobytes() for x in rows]
            save_forest(forest, tmp_path / f"{i}.json")
            loaded = load_forest(tmp_path / f"{i}.json")
            assert loaded.walks == forest.walks


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
        assert all(record.keys() == {"feature", "split", "left", "right", "regression", "size"}
                   for record in json.loads(path.read_text())["trees"])
        assert forest_to_dict(loaded) == forest_to_dict(forest)
        assert loaded.algorithm_names == forest.algorithm_names
        assert loaded.scale == forest.scale
        x = np.array([0.4, 0.2, 0.9])
        assert predict_costs(loaded, x).tolist() == predict_costs(forest, x).tolist()

    def test_integer_lambda_loads_as_float(self, tmp_path):
        data = forest_to_dict(self.fitted())
        data["config"]["lambda"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert repr(load_forest(path).config.tree.lam) == "1.0"

    def test_save_is_byte_deterministic(self, tmp_path):
        forest = self.fitted()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(forest, a)
        save_forest(forest, b)
        assert a.read_bytes() == b.read_bytes()

    def test_deep_chain_tree_round_trip(self, tmp_path):
        # costs grow geometrically along the one feature, so every split cuts
        # off the most expensive row: a chain deeper than Python's recursion
        # limit, which saving and loading must handle
        n = 1400
        X = np.arange(n, dtype=float)[:, None]
        Y = 1.6 ** (np.arange(float(n)) - n)[:, None]
        forest = fit_forest(X, Y, single_tree_config(lam=0.0, max_depth=5000))
        assert oracles.tree_depth(forest.trees[0]) > 1000
        path = tmp_path / "deep.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert oracles.tree_depth(loaded.trees[0]) == oracles.tree_depth(forest.trees[0])
        for x in X[::7].tolist() + [[-1.0], [1e9]]:
            assert predict_costs(loaded, x).tobytes() == predict_costs(forest, x).tobytes()

    def test_preorder_trees_predict_and_round_trip_alike(self, tmp_path):
        # older model files number each tree's split nodes and leaves in
        # preorder; such a forest predicts the same bytes
        scn = make_synthetic_scenario(120, seed=3)
        forest = fit_forest(scn.features, scn.performances,
                            ForestConfig(n_trees=6, seed=4, tree=TreeConfig(max_depth=6)))
        preorder = replace(forest, trees=oracles.joined_trees(
            [oracles.flat_tree(oracles.tree_bytes(tree)) for tree in forest.trees]))
        assert forest_to_dict(preorder) != forest_to_dict(forest)
        path = tmp_path / "preorder.json"
        save_forest(preorder, path)
        loaded = load_forest(path)
        assert forest_to_dict(loaded) == forest_to_dict(preorder)
        rows = np.random.default_rng(8).uniform(-0.5, 1.5, size=(200, scn.features.shape[1]))
        for x in [*scn.features, *rows]:
            expected = predict_costs(forest, x).tobytes()
            assert predict_costs(preorder, x).tobytes() == expected
            assert predict_costs(loaded, x).tobytes() == expected

    @pytest.mark.parametrize("config", [
        single_tree_config(lam=0.5, max_depth=0),
        # every bagged tree stops at its root
        ForestConfig(n_trees=3, seed=2, tree=TreeConfig(max_depth=0)),
    ])
    def test_one_leaf_trees_round_trip(self, tmp_path, config):
        forest = fit_forest(PURE_X[:3], PURE_Y[:3], config)
        assert all(tree.feature == [] and len(tree.size) == 1 for tree in forest.trees)
        path = tmp_path / "model.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert forest_to_dict(loaded) == forest_to_dict(forest)
        for x in ([-1.0], [1.5], [9.0]):
            assert predict_costs(loaded, x).tobytes() == predict_costs(forest, x).tobytes()

    def test_old_min_samples_split_key_is_ignored(self, tmp_path):
        # version 3 files written before the setting was dropped still hold it
        data = forest_to_dict(self.fitted())
        data["config"]["min_samples_split"] = 2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        del data["config"]["min_samples_split"]
        assert forest_to_dict(load_forest(path)) == data

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_one_is_refused(self, tmp_path, version):
        # laid out as that version wrote it: every leaf also holds a ranking
        data = forest_to_dict(self.fitted())
        data["version"] = version
        for record in data["trees"]:
            record["ranking"] = rank_vector(np.array(record["regression"])).tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError,
                           match=f"unsupported model version {version}, expected 3"):
            load_forest(path)

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

    @pytest.mark.parametrize("damage, message", [
        (lambda b: b.replace(b'"scale"', b'"sc\xe9le"', 1), r"model\.json:{line}: not valid UTF-8"),
        (lambda b: b"[" * 200_000 + b"]" * 200_000,
         r"model\.json: not valid JSON: maximum recursion depth"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_hostile_model_file_raises_model_format_error(self, tmp_path, damage, message):
        path = tmp_path / "model.json"
        save_forest(self.fitted(), path)
        data = path.read_bytes()
        line = data[:data.index(b'"scale"')].count(b"\n") + 1  # a line inside the file
        path.write_bytes(damage(data))
        with pytest.raises(ModelFormatError, match=message.format(line=line)):
            load_forest(path)

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("config"),
        lambda d: d["config"].pop("lambda"),
        lambda d: d.pop("scale"),
        lambda d: d.pop("trees"),
        lambda d: d["trees"][0]["right"].__setitem__(0, 10_000),
        lambda d: d["trees"][0]["left"].__setitem__(0, -10_000),
        lambda d: d["trees"][0]["left"].__setitem__(0, 0),
        lambda d: d["trees"][0]["right"].__setitem__(0, d["trees"][0]["left"][0]),
        lambda d: d["trees"][0]["feature"].__setitem__(0, d["n_features"]),
        lambda d: d["trees"][0]["feature"].__setitem__(0, -1),
        lambda d: d["trees"][0]["feature"].__setitem__(0, 0.5),
        lambda d: d["trees"][0]["feature"].pop(),
        lambda d: d["trees"][0]["split"].__setitem__(0, float("nan")),
        lambda d: d["trees"][0]["split"].__setitem__(0, float("inf")),
        lambda d: d["trees"][0]["size"].__setitem__(0, 0),
        lambda d: d["trees"][0]["regression"][0].pop(),
        lambda d: d["trees"][0].pop("regression"),
        lambda d: d["trees"][0]["regression"][0].__setitem__(0, float("nan")),
        lambda d: d["scale"].update(max=float("nan")),
        lambda d: d["trees"][0].update(left=None),
        lambda d: d.update(trees=[]),
        lambda d: d["trees"].pop(),
        lambda d: d.update(trees={}),
        lambda d: d["algorithm_names"].pop(),
        lambda d: d.update(algorithm_names=[]),
        lambda d: d.update(n_features=0),
        lambda d: d["config"].update(bootstrap="no"),
        lambda d: d["config"].update(seed=2.9),
        lambda d: d["config"].update(max_depth=True),
        lambda d: d["config"].update(max_depth=2.7),
        lambda d: d["config"].update(n_trees=str(d["config"]["n_trees"])),
        lambda d: d["config"].update({"lambda": True}),
        lambda d: d["config"].update({"lambda": "0.5"}),
        lambda d: d["config"].update(features_per_split="half"),
        lambda d: d["config"].update(features_per_split=1.5),
        lambda d: d["config"].update({"lambda": 2}),
        lambda d: d["config"].update(n_trees=0),
        lambda d: d["config"].update(max_depth=-1),
        lambda d: d["config"].update(features_per_split=0),
        lambda d: d["trees"][0]["split"].__setitem__(0, "2.5"),
        lambda d: d["trees"][0]["split"].__setitem__(0, True),
        lambda d: d["trees"][0]["regression"][0].__setitem__(0, "0"),
        lambda d: d["trees"][0]["regression"][0].__setitem__(0, True),
        lambda d: d["scale"].update(min="0"),
        lambda d: d["trees"][0]["split"].__setitem__(0, 10 ** 400),
    ], ids=["no-config", "no-lambda", "no-scale", "no-trees",
            "child-out-of-range", "negative-child", "node-cycle", "repeated-child",
            "feature-too-large", "negative-feature", "fractional-feature", "short-feature-list",
            "nan-split", "infinite-split", "empty-leaf", "short-leaf-vector",
            "no-regression", "nan-leaf-label",
            "nan-scale", "no-child-list",
            "empty-tree-list", "fewer-trees-than-n_trees", "trees-not-a-list",
            "too-few-algorithm-names", "no-algorithm-names", "no-features",
            "string-bootstrap", "fractional-seed", "boolean-depth", "fractional-depth",
            "string-tree-count", "boolean-lambda", "string-lambda", "unknown-feature-rule",
            "fractional-features-per-split", "lambda-out-of-range", "no-tree-count",
            "negative-depth", "zero-features-per-split",
            "string-split", "boolean-split", "string-leaf-label", "boolean-leaf-label",
            "string-scale", "huge-integer-split"])
    def test_malformed_model_raises_model_format_error(self, tmp_path, damage):
        data = forest_to_dict(self.fitted())
        assert data["trees"][0]["feature"]  # the root is a split node
        damage(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="model.json"):
            load_forest(path)
