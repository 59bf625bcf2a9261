from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import harris.tree
from harris.errors import DomainError
from harris.forest import (fit_forest, load_forest, predict_costs, save_forest,
                           single_tree_config)
from harris.tree import TreeConfig, best_split, build_tree, build_trees

# Four rows, one feature; labels flip between the halves, so the midpoint at
# 1.5 yields two pure children under both losses.
PURE_X = np.array([[0.0], [1.0], [2.0], [3.0]])
PURE_Y = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


def default_rng():
    return np.random.default_rng(12345)


def breadth_first(tree):
    """(depth, id) of each node of tree, met breadth first, left before right."""
    met = [(0, 0 if tree.feature else -1)]
    for depth, i in met:  # the loop reaches the children it appends
        if i >= 0:
            met += [(depth + 1, tree.left[i]), (depth + 1, tree.right[i])]
    return met


def route(tree, x):
    """The regression label predict_costs reads for x from a one-tree forest."""
    return predict_costs(oracles.forest_of([tree], n_features=len(x)), x)


class TestBestSplit:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_pure_dataset_splits_at_midpoint(self, lam):
        f, point, loss = best_split(PURE_X, PURE_Y, lam)
        assert (f, point) == (0, 1.5)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_constant_features_have_no_split(self):
        X = np.ones((4, 2))
        assert best_split(X, PURE_Y, 0.5) is None

    def test_single_row_is_an_error(self):
        with pytest.raises(DomainError):
            best_split(PURE_X[:1], PURE_Y[:1], 0.5)

    @pytest.mark.parametrize("lam, message", [
        (2.0, r"lambda must lie in \[0, 1\], got 2.0"),
        (float("nan"), r"lambda must lie in \[0, 1\], got nan"),
        (-1.0, r"lambda must lie in \[0, 1\], got -1.0"),
        (True, "lambda must be a number, got True"),
    ], ids=["above-one", "nan", "negative", "bool"])
    def test_bad_lambda_is_refused_as_tree_config_refuses_it(self, lam, message):
        with pytest.raises(DomainError, match=message):
            TreeConfig(lam=lam)
        with pytest.raises(DomainError, match=message):
            best_split(PURE_X, PURE_Y, lam)

    def test_candidate_features_out_of_range(self):
        for candidates in ([1], [-1], [0, 2]):
            with pytest.raises(DomainError):
                best_split(PURE_X, PURE_Y, 0.5, candidate_features=candidates)

    @pytest.mark.parametrize("candidates", [[0.7], [True], ["x"], [0, 0.0]],
                             ids=["fraction", "bool", "string", "integral-float"])
    def test_candidate_features_must_be_integers(self, candidates):
        with pytest.raises(DomainError, match="candidate feature must be an integer"):
            best_split(PURE_X, PURE_Y, 0.5, candidate_features=candidates)

    def test_candidate_feature_restriction(self):
        X = np.hstack([PURE_X, np.ones((4, 1))])
        assert best_split(X, PURE_Y, 0.5, candidate_features=[1]) is None
        f, point, _ = best_split(X, PURE_Y, 0.5, candidate_features=[0, 1])
        assert (f, point) == (0, 1.5)

    def test_duplicate_feature_ties_break_to_lower_index(self):
        X = np.hstack([PURE_X, PURE_X])
        f, point, _ = best_split(X, PURE_Y, 0.5)
        assert (f, point) == (0, 1.5)
        f, point, _ = best_split(X, PURE_Y, 0.5, candidate_features=[1, 0])
        assert (f, point) == (0, 1.5)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_matches_exhaustive_enumeration(self, seed, lam):
        rng = np.random.default_rng(seed)
        X, Y = oracles.random_split_dataset(rng)
        expected = oracles.exhaustive_best_split(X, Y, lam)
        got = best_split(X, Y, lam)
        if expected is None:
            assert got is None
            return
        assert got is not None
        assert (got[0], got[1]) == (expected[0], expected[1])
        assert got[2] == pytest.approx(expected[2], abs=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**9))
    def test_returns_enumerated_minimum(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = oracles.random_split_dataset(rng)
        got = best_split(X, Y, 0.5)
        if got is None:
            return
        losses = [loss for _, _, loss in oracles.enumerate_split_losses(X, Y, 0.5)]
        assert got[2] <= min(losses) + 1e-9


@st.composite
def batched_split_cases(draw):
    """Columns that are continuous, constant, discrete with 2-4 levels, or
    copies of an earlier column; candidates all, or a subset given unsorted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(2, 30)), draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(["continuous", "constant", "discrete", "copy"]),
                          min_size=1, max_size=6))
    X = np.empty((n, len(kinds)))
    for f, kind in enumerate(kinds):
        if kind == "copy" and f > 0:
            X[:, f] = X[:, int(rng.integers(0, f))]
        elif kind == "constant":
            X[:, f] = rng.normal()
        elif kind == "discrete":
            X[:, f] = rng.choice(rng.normal(size=int(rng.integers(2, 5))), size=n)
        else:
            X[:, f] = rng.normal(size=n)
    Y = rng.uniform(size=(n, k))
    if draw(st.booleans()):
        Y = np.round(Y, 1)  # tied costs
    candidates = None
    if draw(st.booleans()):
        candidates = draw(st.permutations(range(len(kinds))))[:draw(st.integers(1, len(kinds)))]
    return X, Y, candidates


# Value pools for the sort keys' edge cases: the keys rank each column's
# distinct values, so these pools exercise ties, the two zeros that > calls
# equal, values whose midpoint overflows, and midpoints that round.
EDGE_POOLS = {
    "zeros": [-0.0, 0.0, 1.0, -1.0],
    "huge": [-1.7e308, -1e308, 1e308, 1.7e308, np.finfo(float).max],
    "subnormal": [-5e-324, -0.0, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308],
}


@st.composite
def edge_value_nodes(draw):
    """Columns with two or three distinct values, drawn from a normal sample
    or from a pool above, or constant; one to four nodes of differing sizes,
    each on rows drawn with replacement and searching its own sorted sample
    of m features."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["normal", "constant", *EDGE_POOLS]),
                          min_size=1, max_size=6))
    X = np.empty((n, len(kinds)))
    for f, kind in enumerate(kinds):
        pool = np.array(EDGE_POOLS.get(kind) or rng.normal(size=3))
        values = rng.choice(pool, size=1 if kind == "constant" else int(rng.integers(2, 4)),
                            replace=False)
        X[:, f] = rng.choice(values, size=n)
    Y = rng.uniform(size=(n, k))
    if draw(st.booleans()):
        Y = np.round(Y, 1)  # tied costs
    m = draw(st.integers(1, len(kinds)))
    nodes = [rng.integers(0, n, size=int(rng.integers(2, n + 2)))
             for _ in range(draw(st.integers(1, 4)))]
    feats = np.sort([rng.permutation(len(kinds))[:m] for _ in nodes], axis=1)
    return X, Y, nodes, feats


# Block sizes in label cells: one column per block, blocks of a few columns
# in which a node spans several blocks or one block holds several nodes
# padded with NaN, and the default.
BLOCK_SIZES = [1, 24, 200, harris.tree.BLOCK_CELLS]


class TestBatchedSplitSearch:
    @settings(deadline=None, max_examples=250)
    @given(batched_split_cases(), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(BLOCK_SIZES))
    def test_bit_identical_to_per_feature_search(self, case, lam, block_cells):
        X, Y, candidates = case
        with mock.patch.object(harris.tree, "BLOCK_CELLS", block_cells):
            got = best_split(X, Y, lam, candidates)
        assert got == oracles.per_feature_best_split(X, Y, lam, candidates)

    @settings(deadline=None, max_examples=300)
    @given(edge_value_nodes(), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(BLOCK_SIZES))
    def test_sort_keys_on_edge_values_match_per_feature_search(self, case, lam, block_cells):
        """Several nodes in one pass, so that blocks are padded and nodes
        spread over blocks; bit for bit, the sign of a zero split included."""
        X, Y, nodes, feats = case
        rows = np.concatenate(nodes)  # the stats rows of one target are X's rows
        sizes = np.array([node.size for node in nodes])
        search = harris.tree._SplitSearch(X, [Y], lam, int(sizes.max()))
        with mock.patch.object(harris.tree, "BLOCK_CELLS", block_cells):
            got = harris.tree._best_splits(search, rows, sizes.cumsum() - sizes, sizes, feats)
        for j, node in enumerate(nodes):
            feature, point, loss = (a[j].item() for a in got)
            expected = oracles.per_feature_best_split(X[node], Y[node], lam, feats[j])
            assert repr(None if feature < 0 else (feature, point, loss)) == repr(expected)

    @settings(deadline=None, max_examples=50)
    @given(batched_split_cases(), st.sampled_from([0.0, 0.3, 1.0]))
    def test_one_column_blocks_match_one_block(self, case, lam):
        X, Y, candidates = case
        expected = best_split(X, Y, lam, candidates)
        with mock.patch.object(harris.tree, "BLOCK_CELLS", 1):  # one column per block
            assert best_split(X, Y, lam, candidates) == expected

    def test_winner_in_the_last_of_several_blocks_reads_its_own_block(self):
        """One node over four one-column blocks (or two two-column blocks): the
        first three columns split its rows worse than the last, whose values
        are the near-max pair, so the winner's split point is 1e308, read
        from the last block."""
        X = np.array([[0.0, 5.0, -3.0, 1e308], [1.0, 6.0, -2.0, 1.7e308],
                      [2.0, 7.0, -1.0, 1e308], [3.0, 8.0, 0.0, 1.7e308]])
        Y = PURE_Y[[0, 2, 1, 3]]  # alternates with the last column's values
        for lam in (0.0, 0.5, 1.0):
            expected = oracles.per_feature_best_split(X, Y, lam, None)
            assert expected[:2] == (3, 1e308)
            for block_cells in (1, 8, 16):  # 4 rows x 2 labels: 8 cells a column
                with mock.patch.object(harris.tree, "BLOCK_CELLS", block_cells):
                    assert best_split(X, Y, lam) == expected


@st.composite
def lockstep_cases(draw):
    """A feature matrix with continuous, constant, discrete and copied columns,
    one to three target matrices of one width, and one to five jobs, each on
    a bootstrap sample or on every row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["continuous", "constant", "discrete", "copy"]),
                          min_size=1, max_size=5))
    X = np.empty((n, len(kinds)))
    for f, kind in enumerate(kinds):
        if kind == "copy" and f > 0:
            X[:, f] = X[:, int(rng.integers(0, f))]
        elif kind == "constant":
            X[:, f] = rng.normal()
        elif kind == "discrete":
            X[:, f] = rng.choice(rng.normal(size=int(rng.integers(2, 4))), size=n)
        else:
            X[:, f] = rng.normal(size=n)
    targets = [rng.uniform(size=(n, k)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        targets = [np.round(Y, 1) for Y in targets]  # tied costs and repeated rows
    fps = draw(st.one_of(st.sampled_from(["all", "sqrt"]), st.integers(1, len(kinds))))
    config = TreeConfig(lam=draw(st.sampled_from([0.0, 0.3, 1.0])),
                        max_depth=draw(st.integers(0, 6)), features_per_split=fps)
    jobs = draw(st.lists(st.tuples(st.integers(0, len(targets) - 1), st.booleans(),
                                   st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
    return X, targets, jobs, config


def job_rows(n, bootstrap, seed):
    """A job's generator and rows, drawn as fit_forest draws them."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n, size=n) if bootstrap else np.arange(n)), rng


class TestLockstep:
    @settings(deadline=None, max_examples=200)
    @given(lockstep_cases(), st.sampled_from(BLOCK_SIZES))
    def test_each_tree_equals_its_recursive_build(self, case, block_cells):
        X, targets, jobs, config = case
        n = X.shape[0]
        with mock.patch.object(harris.tree, "BLOCK_CELLS", block_cells):
            trees = build_trees(X, targets, [(t, *job_rows(n, b, seed)) for t, b, seed in jobs],
                                config)
        assert len(trees) == len(jobs)
        for tree, (t, bootstrap, seed) in zip(trees, jobs):
            rows, rng = job_rows(n, bootstrap, seed)
            expected = oracles.level_order_build_tree(X[rows], targets[t][rows], config, rng)
            assert oracles.tree_bytes(tree) == expected
        # a slice a:b of the table holds exactly trees a to b - 1
        singles = [oracles.tree_bytes(tree) for tree in trees]
        for a in range(len(jobs) + 1):
            for b in range(a, len(jobs) + 1):
                assert [oracles.tree_bytes(tree) for tree in trees[a:b]] == singles[a:b]
        with pytest.raises(IndexError):
            trees[::2]

    @settings(deadline=None, max_examples=100)
    @given(lockstep_cases())
    def test_nodes_are_numbered_in_level_order(self, case):
        X, targets, jobs, config = case
        n = X.shape[0]
        for tree in build_trees(X, targets, [(t, *job_rows(n, b, seed)) for t, b, seed in jobs],
                                config):
            ids = [i for _, i in breadth_first(tree)]
            assert [i for i in ids if i >= 0] == list(range(len(tree.feature)))
            assert [~i for i in ids if i < 0] == list(range(len(tree.size)))

    def test_bad_jobs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            build_trees(PURE_X, [PURE_Y], [(1, np.arange(4), rng)], TreeConfig())
        with pytest.raises(DomainError):
            build_trees(PURE_X, [PURE_Y], [(0, np.arange(0), rng)], TreeConfig())
        with pytest.raises(DomainError):
            build_trees(PURE_X, [PURE_Y], [(0, np.arange(5), rng)], TreeConfig())
        with pytest.raises(DomainError):
            build_trees(PURE_X, [PURE_Y, PURE_Y[:, :1]], [(0, np.arange(4), rng)], TreeConfig())
        empty = build_trees(PURE_X, [PURE_Y], [], TreeConfig())
        assert len(empty) == 0 and empty.feature == empty.size == []
        assert empty.regression.shape == (0, 2)
        with pytest.raises(DomainError, match="n x k targets"):  # no target, no label width
            build_trees(PURE_X, [], [], TreeConfig())


class TestLevelWiseGrowth:
    """Every depth is one split-search pass over all trees' open nodes, and a
    tree's feature draws depend on its own nodes alone."""

    @staticmethod
    def data(n=60, p=9, k=4, seed=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        X[:, 1] = np.round(X[:, 1])  # a discrete column
        return X, rng.uniform(size=(n, k))

    @pytest.mark.parametrize("fps", ["sqrt", 3, "all"])
    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_deep_tree_cut_at_d_is_the_depth_d_tree(self, fps, bootstrap):
        X, Y = self.data()
        n, deep = X.shape[0], 6
        seeds = [11, 12, 13]
        trees = build_trees(X, [Y], [(0, *job_rows(n, bootstrap, s)) for s in seeds],
                            TreeConfig(lam=0.5, max_depth=deep, features_per_split=fps))
        assert max(oracles.tree_depth(tree) for tree in trees) == deep
        for d in range(deep):
            shallow = build_trees(X, [Y], [(0, *job_rows(n, bootstrap, s)) for s in seeds],
                                  TreeConfig(lam=0.5, max_depth=d, features_per_split=fps))
            for tree, cut_at_d, seed in zip(trees, shallow, seeds):
                rows, _ = job_rows(n, bootstrap, seed)
                assert oracles.cut_tree(oracles.tree_bytes(tree), X[rows], Y[rows], d) == \
                    oracles.tree_bytes(cut_at_d)

    @pytest.mark.parametrize("fps", ["sqrt", 3, "all"])
    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_shallow_tree_is_a_prefix_of_the_deep_tree(self, fps, bootstrap):
        X, Y = self.data()
        n, deep = X.shape[0], 6
        jobs = [(0, *job_rows(n, bootstrap, seed)) for seed in range(20, 30)]
        trees = build_trees(X, [Y], jobs, TreeConfig(lam=0.5, max_depth=deep,
                                                     features_per_split=fps))
        for d in range(deep):
            jobs = [(0, *job_rows(n, bootstrap, seed)) for seed in range(20, 30)]
            shallow = build_trees(X, [Y], jobs, TreeConfig(lam=0.5, max_depth=d,
                                                           features_per_split=fps))
            for tree, cut in zip(trees, shallow):
                assert tree.feature[:len(cut.feature)] == cut.feature
                assert tree.split[:len(cut.split)] == cut.split
                above = sum(depth < d for depth, i in breadth_first(cut) if i < 0)
                assert tree.size[:above] == cut.size[:above]
                assert tree.regression[:above].tobytes() == cut.regression[:above].tobytes()

    @pytest.mark.parametrize("fps", ["sqrt", "all"])
    def test_one_pass_per_depth_and_no_tree_depends_on_its_partners(self, fps, monkeypatch):
        X, Y = self.data()
        targets = [Y, Y[::-1].copy()]
        n, depth = X.shape[0], 5
        config = TreeConfig(lam=0.3, max_depth=depth, features_per_split=fps)
        jobs = [(t, b, seed) for seed, (t, b) in enumerate([(0, True), (1, False), (1, True),
                                                            (0, False), (0, True)])]
        passes = []
        real = harris.tree._best_splits
        monkeypatch.setattr(harris.tree, "_best_splits",
                            lambda *args: passes.append(args[3].size) or real(*args))
        together = build_trees(X, targets, [(t, *job_rows(n, b, seed)) for t, b, seed in jobs],
                               config)
        assert len(passes) == depth and passes[0] == len(jobs)
        for tree, (t, b, seed) in zip(together, jobs):
            passes.clear()
            alone, = build_trees(X, targets, [(t, *job_rows(n, b, seed))], config)
            assert len(passes) <= depth
            assert oracles.tree_bytes(alone) == oracles.tree_bytes(tree)

    @pytest.mark.parametrize("k", [1, 8])
    def test_leaf_means_equal_mean_over_axis_zero(self, k):
        rng = np.random.default_rng(k)
        # costs over ten orders of magnitude, so that summation order shows
        labels = rng.uniform(size=(400, k)) * 10.0 ** rng.integers(-5, 6, size=(400, 1))
        sizes = np.concatenate([np.arange(1, 301), rng.integers(1, 301, size=200)])
        rows = rng.integers(0, 400, size=sizes.sum())  # rows repeat, as in a bootstrap
        means = harris.tree._leaf_means(labels, rows, sizes)
        starts = sizes.cumsum() - sizes
        for mean, start, size in zip(means, starts.tolist(), sizes.tolist()):
            assert mean.tobytes() == labels[rows[start:start + size]].mean(axis=0).tobytes()


class TestSplitPointSeparatesItsValues:
    """A split between consecutive distinct values a < b lies in [a, b): the
    midpoint, or a where the midpoint rounds up onto b or overflows to inf.
    Otherwise b's rows go left too, the right child is empty and its leaf
    has size 0 and NaN labels."""

    # adjacent doubles (0.3 and 0.1 + 0.2), and a pair whose sum overflows
    COLUMNS = {"adjacent": (0.3, 0.1 + 0.2), "near-max": (1e308, 1.7e308)}
    Y = PURE_Y[[0, 2, 1, 3]]  # alternates with the rows' values low, high, low, high

    @pytest.mark.parametrize("low, high", COLUMNS.values(), ids=COLUMNS.keys())
    def test_best_split_uses_the_lower_value(self, low, high):
        X = np.array([[low], [high], [low], [high]])
        for lam in (0.0, 0.5, 1.0):
            assert best_split(X, self.Y, lam)[:2] == (0, low)
            assert oracles.exhaustive_best_split(X, self.Y, lam)[:2] == (0, low)

    @pytest.mark.parametrize("low, high", COLUMNS.values(), ids=COLUMNS.keys())
    def test_every_leaf_is_trained_and_saved(self, low, high, tmp_path):
        X = np.array([[low], [high], [low], [high]])
        forest = fit_forest(X, self.Y, single_tree_config(0.5, 3))
        tree, = forest.trees
        assert min(tree.size) >= 1 and sum(tree.size) == 4
        assert np.isfinite(tree.regression).all()
        assert tree.split == [low] and low <= tree.split[0] < high
        save_forest(forest, tmp_path / "model.json")
        loaded, = load_forest(tmp_path / "model.json").trees
        assert (loaded.split, loaded.size) == (tree.split, tree.size)
        assert [predict_costs(forest, x).tolist() for x in X] == self.Y.tolist()


class TestBuildTree:
    def test_depth_zero_is_single_leaf(self):
        tree = build_tree(PURE_X, PURE_Y, TreeConfig(lam=0.5, max_depth=0), default_rng())
        assert tree.feature == tree.split == tree.left == tree.right == []
        assert tree.regression.tolist() == [[0.5, 0.5]]
        assert tree.size == [4]

    def test_pure_dataset_needs_one_split(self):
        tree = build_tree(PURE_X, PURE_Y, TreeConfig(lam=0.5, max_depth=4), default_rng())
        assert (tree.feature, tree.split, tree.left, tree.right) == ([0], [1.5], [-1], [-2])
        assert tree.regression.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert tree.size == [2, 2]

    def test_constant_feature_yields_leaf(self):
        tree = build_tree(np.ones((4, 1)), PURE_Y, TreeConfig(max_depth=5), default_rng())
        assert oracles.tree_skeleton(tree) == ("leaf", 4)

    def test_empty_dataset(self):
        with pytest.raises(DomainError):
            build_tree(np.empty((0, 1)), np.empty((0, 2)), TreeConfig(), default_rng())

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_depth_bound(self, seed, max_depth):
        rng = np.random.default_rng(seed)
        X, Y = oracles.random_split_dataset(rng)
        tree = build_tree(X, Y, TreeConfig(lam=0.4, max_depth=max_depth), default_rng())
        assert oracles.tree_depth(tree) <= max_depth

    def test_same_seed_same_structure(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(40, 5))
        Y = rng.uniform(size=(40, 3))
        config = TreeConfig(lam=0.5, max_depth=4, features_per_split=2)
        first = build_tree(X, Y, config, np.random.default_rng(99))
        second = build_tree(X, Y, config, np.random.default_rng(99))
        assert oracles.tree_skeleton(first) == oracles.tree_skeleton(second)

    def test_zero_loss_stops_before_depth(self):
        Y = np.tile([0.2, 0.8, 0.5], (6, 1))
        X = np.arange(6, dtype=float)[:, None]
        tree = build_tree(X, Y, TreeConfig(lam=0.5, max_depth=5), default_rng())
        assert oracles.tree_skeleton(tree) == ("leaf", 6)

    @pytest.mark.parametrize("Y, splits", [
        # one ranking, two cost vectors: only the regression term is nonzero
        ([[0.1, 0.2], [0.3, 0.9]], [1, 1, 0]),
        # all-tied rankings: only the ranking term (0.5) is nonzero
        ([[0.5, 0.5], [0.5, 0.5]], [0, 1, 1]),
        # signed zeros compare equal: both terms are zero
        ([[0.0, 1.0], [-0.0, 1.0]], [0, 0, 0]),
    ], ids=["same-ranking", "all-tied", "signed-zeros"])
    def test_zero_loss_leaf_rule(self, Y, splits):
        """The root splits unless its hybrid loss is exactly zero, at
        lambda 0, 0.5 and 1; its one-row children are leaves."""
        X = np.array([[0.0], [1.0]])
        got = [len(build_tree(X, np.array(Y), TreeConfig(lam=lam, max_depth=3),
                              default_rng()).feature) for lam in (0.0, 0.5, 1.0)]
        assert got == splits


class TestLambdaEndpoints:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**9))
    def test_lambda_zero_matches_pure_mse_reference(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = oracles.random_split_dataset(rng)
        tree = build_tree(X, Y, TreeConfig(lam=0.0, max_depth=3), default_rng())
        assert oracles.tree_skeleton(tree) == oracles.reference_tree(X, Y, 3, "mse")

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**9))
    def test_lambda_one_matches_pure_spearman_reference(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = oracles.random_split_dataset(rng)
        tree = build_tree(X, Y, TreeConfig(lam=1.0, max_depth=3), default_rng())
        assert oracles.tree_skeleton(tree) == oracles.reference_tree(X, Y, 3, "spearman")


class TestPredictLeaf:
    """Routing one row down one tree to its leaf."""

    def test_single_leaf_tree(self):
        tree = build_tree(PURE_X, PURE_Y, TreeConfig(max_depth=0), default_rng())
        for x in ([0.0], [99.0]):
            assert route(tree, x).tolist() == [0.5, 0.5]

    def test_routing(self):
        tree = build_tree(PURE_X, PURE_Y, TreeConfig(max_depth=2), default_rng())
        assert route(tree, [0.7]).tolist() == [0.0, 1.0]
        assert route(tree, [2.5]).tolist() == [1.0, 0.0]

    def test_boundary_goes_left(self):
        tree = build_tree(PURE_X, PURE_Y, TreeConfig(max_depth=2), default_rng())
        assert route(tree, [1.5]).tolist() == [0.0, 1.0]

    def test_leaf_labels_match_training_subset(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(20, 2))
        Y = rng.uniform(size=(20, 3))
        tree = build_tree(X, Y, TreeConfig(lam=0.6, max_depth=2), default_rng())
        nested = oracles.tree_bytes(tree)
        for i in range(20):
            _, size, regression = oracles.route_nested(nested, X[i])
            assert route(tree, X[i]).tobytes() == regression
            assert size >= 1


class TestTreeConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            TreeConfig(lam=1.2)
        with pytest.raises(DomainError):
            TreeConfig(max_depth=-1)
        with pytest.raises(DomainError):
            TreeConfig(features_per_split="half")

    def test_features_per_split_resolution(self):
        assert TreeConfig(features_per_split="all").resolve_features_per_split(10) == 10
        assert TreeConfig(features_per_split="sqrt").resolve_features_per_split(10) == 4
        assert TreeConfig(features_per_split="sqrt").resolve_features_per_split(9) == 3
        assert TreeConfig(features_per_split=2).resolve_features_per_split(10) == 2
        with pytest.raises(DomainError):
            TreeConfig(features_per_split=11).resolve_features_per_split(10)
