import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harris.baselines import (ClusterSelector, HarrisSelector, OracleSelector,
                              PairwiseVotingSelector, RegressionForestSelector,
                              SingleBestSelector, _derived_seed, _kmeans, _nearest)
from harris.errors import DomainError
from harris.evaluation import cross_validate
from harris.forest import (ForestConfig, HybridForest, fit_forest, forest_to_dict,
                           single_tree_config)
from harris.scenario import ScaleParams
from harris.synthetic import make_synthetic_scenario
from harris.tree import Tree, TreeConfig, best_split, build_tree


def constant_forest(value):
    """Single-leaf forest predicting a fixed scalar (stub pairwise model)."""
    leaf = Tree([], [], [], [], np.array([[value]], dtype=float), [1])
    return HybridForest(trees=(leaf,), config=ForestConfig(n_trees=1),
                        scale=ScaleParams(0.0, 1.0), algorithm_names=("d",),
                        n_features=1)


def model_json(forest):
    return json.dumps(forest_to_dict(forest), sort_keys=True)


class TestSubForestsInLockstep:
    """rfr and satzilla grow all their sub-forests together; each must equal
    the sub-forest fitted alone from its derived seed."""

    def data(self):
        rng = np.random.default_rng(4)
        return rng.uniform(size=(30, 5)), np.round(rng.uniform(size=(30, 4)), 1)

    def test_rfr_matches_separate_fits(self):
        X, Y = self.data()
        selector = RegressionForestSelector(n_trees=3, max_depth=4, seed=9).fit(X, Y)
        assert len(selector.forests) == 4
        for j, forest in enumerate(selector.forests):
            alone = fit_forest(X, Y[:, j][:, None],
                               replace(selector.config, seed=_derived_seed(9, j)))
            assert model_json(forest) == model_json(alone)

    def test_satzilla_matches_separate_fits(self):
        X, Y = self.data()
        selector = PairwiseVotingSelector(n_trees=2, max_depth=3, seed=5).fit(X, Y)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert [(i, j) for i, j, _ in selector.models] == pairs
        for index, (i, j, forest) in enumerate(selector.models):
            alone = fit_forest(X, (Y[:, i] - Y[:, j])[:, None],
                               replace(selector.config, seed=_derived_seed(5, index)))
            assert model_json(forest) == model_json(alone)


class TestRegressionForest:
    def test_dominant_algorithm_always_selected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(30, 2))
        Y = np.column_stack([np.zeros(30), np.ones(30)])
        selector = RegressionForestSelector(n_trees=5, max_depth=2, seed=1).fit(X, Y)
        for i in range(0, 30, 5):
            assert selector.select(X[i]) == 0

    def test_constant_features_predict_bootstrap_means(self):
        # no split exists, so every tree is one leaf holding the mean of its
        # bootstrap sample, drawn from the (seed, j, tree) stream
        X = np.ones((12, 3))
        rng = np.random.default_rng(4)
        Y = rng.uniform(size=(12, 2))
        selector = RegressionForestSelector(n_trees=3, max_depth=4, seed=0).fit(X, Y)
        expected = []
        for j in range(2):
            sub_seed = int(np.random.SeedSequence((0, j)).generate_state(1, np.uint64)[0])
            means = []
            for tree in (1, 2, 3):
                tree_rng = np.random.default_rng(np.random.SeedSequence((sub_seed, tree)))
                means.append(Y[tree_rng.integers(0, 12, size=12), j].mean())
            expected.append(np.mean(means))
        assert selector.predicted_costs(np.ones(3)) == pytest.approx(expected, rel=1e-12)

    def test_matches_oracle_on_separable_fixture(self):
        scn = make_synthetic_scenario(120, seed=3)
        selector = RegressionForestSelector(n_trees=10, max_depth=4, seed=5)
        selector.fit(scn.features, scn.performances)
        hits = sum(selector.select(scn.features[i]) == int(np.argmin(scn.performances[i]))
                   for i in range(scn.n_instances))
        assert hits == scn.n_instances

    def test_empty_training_data(self):
        with pytest.raises(DomainError):
            RegressionForestSelector().fit(np.empty((0, 2)), np.empty((0, 2)))


class TestPairwiseVoting:
    def test_two_algorithms_dominant(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(30, 2))
        Y = np.column_stack([np.zeros(30), np.ones(30)])
        selector = PairwiseVotingSelector(n_trees=5, max_depth=2, seed=1).fit(X, Y)
        assert selector.select(X[0]) == 0

    def test_condorcet_winner_from_fixed_prediction_table(self):
        # pair diffs: (0,1) -> -1, (0,2) -> -1, (1,2) -> +1; votes 2/0/1
        selector = PairwiseVotingSelector()
        selector.n_algorithms = 3
        selector.models = [
            (0, 1, constant_forest(-1.0)),
            (0, 2, constant_forest(-1.0)),
            (1, 2, constant_forest(1.0)),
        ]
        assert selector.select(np.zeros(1)) == 0

    def test_all_zero_differences_select_lowest_index(self):
        selector = PairwiseVotingSelector()
        selector.n_algorithms = 3
        selector.models = [(i, j, constant_forest(0.0))
                           for i in range(3) for j in range(i + 1, 3)]
        assert selector.select(np.zeros(1)) == 0

    def test_predicted_costs_are_minus_vote_counts(self):
        # the Condorcet table above: votes 2/0/1
        selector = PairwiseVotingSelector()
        selector.n_algorithms = 3
        selector.models = [
            (0, 1, constant_forest(-1.0)),
            (0, 2, constant_forest(-1.0)),
            (1, 2, constant_forest(1.0)),
        ]
        assert selector.predicted_costs(np.zeros(1)).tolist() == [-2.0, 0.0, -1.0]

    def test_evaluate_leaves_tau_empty(self):
        # votes order the algorithms but are not costs: no tau-b is reported
        scn = make_synthetic_scenario(40, seed=3)
        folds, agg = cross_validate(
            scn, lambda: PairwiseVotingSelector(n_trees=2, max_depth=2, seed=0))
        assert all(r.tau is None for r in folds)
        assert agg.tau is None and agg.tau_std is None

    def test_single_algorithm_rejected(self):
        with pytest.raises(DomainError):
            PairwiseVotingSelector().fit(np.ones((4, 2)), np.ones((4, 1)))


class TestClusterSelector:
    def blobs(self):
        rng = np.random.default_rng(7)
        left = rng.normal(loc=-5.0, scale=0.3, size=(40, 2))
        right = rng.normal(loc=5.0, scale=0.3, size=(40, 2))
        X = np.vstack([left, right])
        # algorithm 0 cheap on the left blob, algorithm 1 cheap on the right
        Y = np.empty((80, 2))
        Y[:40] = [0.1, 0.9]
        Y[40:] = [0.9, 0.1]
        return X, Y

    def test_single_cluster_is_single_best(self):
        X, Y = self.blobs()
        selector = ClusterSelector(n_clusters=1, seed=0).fit(X, Y)
        sbs = SingleBestSelector().fit(X, Y)
        for x in (X[0], X[-1]):
            assert selector.select(x) == sbs.select(x)

    def test_separated_blobs_map_to_their_best(self):
        X, Y = self.blobs()
        selector = ClusterSelector(n_clusters=2, seed=0).fit(X, Y)
        assert selector.select(np.array([-5.0, 0.0])) == 0
        assert selector.select(np.array([5.0, 0.0])) == 1

    def test_nearest_centroid_tie_prefers_lowest_cluster(self):
        selector = ClusterSelector()
        selector.centroids = np.array([[-1.0], [1.0]])
        selector.cluster_costs = np.array([[0.2, 0.1], [0.1, 0.2]])
        selector.feature_mean = np.zeros(1)
        selector.feature_std = np.ones(1)
        assert selector.select(np.zeros(1)) == 1  # cluster 0 wins the tie

    def test_clamps_clusters_to_training_rows(self):
        # at most one cluster per training row, silently: 10 asked on 5 rows
        # fits exactly the 5-cluster model
        X = np.arange(10.0).reshape(5, 2)
        Y = np.tile([0.3, 0.6], (5, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selector = ClusterSelector(n_clusters=10, seed=0).fit(X, Y)
        five = ClusterSelector(n_clusters=5, seed=0).fit(X, Y)
        assert selector.centroids.shape[0] == 5
        assert selector.centroids.tobytes() == five.centroids.tobytes()
        assert selector.cluster_costs.tobytes() == five.cluster_costs.tobytes()

    def test_invariant_to_rescaling_a_feature_column(self):
        X, Y = self.blobs()
        X = np.floor(X * 256) / 256  # keep the affine map exact in floats
        rescaled = X.copy()
        rescaled[:, 0] = 64.0 * rescaled[:, 0]
        a = ClusterSelector(n_clusters=4, seed=3).fit(X, Y)
        b = ClusterSelector(n_clusters=4, seed=3).fit(rescaled, Y)
        for i in range(0, 80, 9):
            q = X[i].copy()
            q_rescaled = q.copy()
            q_rescaled[0] = 64.0 * q_rescaled[0]
            assert a.select(q) == b.select(q_rescaled)

    @pytest.mark.parametrize("n_clusters", [0, -1, 2.5, True, "3"])
    def test_bad_cluster_count_is_a_domain_error(self, n_clusters):
        with pytest.raises(DomainError, match="n_clusters must be an integer >= 1"):
            ClusterSelector(n_clusters=n_clusters)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(2, 40),
           st.sampled_from(["distinct", "few_points", "negative_zeros", "grid", "scaled"]))
    def test_kmeans_matches_per_cluster_masks(self, seed, k, p, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 161))
        if kind == "few_points":  # fewer distinct points than clusters: some cluster goes empty
            distinct = max(1, k - 1)
            Z = rng.normal(size=(distinct, p))[rng.integers(0, distinct, size=n)]
        elif kind == "grid":  # integers in -2..2: rows exactly equidistant from two centroids
            Z = rng.integers(-2, 3, size=(n, p)).astype(float)
        else:
            Z = rng.normal(size=(n, p))
        if kind == "scaled":
            Z *= 10.0 ** int(rng.integers(-150, 151))
        if kind == "negative_zeros":  # whole columns and scattered cells of -0.0
            Z[:, rng.uniform(size=p) < 0.2] = -0.0
            Z[rng.uniform(size=Z.shape) < 0.2] = -0.0
        got = _kmeans(Z, k, np.random.default_rng(seed))
        expected = oracles.reference_kmeans(Z, k, np.random.default_rng(seed))
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_one_feature_centres_are_row_order_means(self, seed, k):
        """With one feature mean(axis=0) sums pairwise and a centre may differ
        from the reference by an ulp; _kmeans defines each centre as its
        members added in row order from 0.0, divided by their count, and the
        assignments stay the reference's."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(int(rng.integers(k, 161)), 1))
        centroids, assignment = _kmeans(Z, k, np.random.default_rng(seed))
        expected = oracles.reference_kmeans(Z, k, np.random.default_rng(seed))
        assert assignment.tobytes() == expected[1].tobytes()
        for c in np.unique(assignment):
            total = 0.0
            for z in Z[assignment == c, 0]:
                total += float(z)
            assert centroids[c, 0] == total / int((assignment == c).sum())

    @staticmethod
    def elementwise_nearest(Z, centroids):
        return ((Z[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)

    def test_equidistant_rows_go_to_the_lower_index(self):
        # near 2**30 the Gram form cancels: its distances differ by rounding
        # while the elementwise ones tie exactly
        rng = np.random.default_rng(5)
        Z = 2.0 ** 30 + rng.integers(-4, 5, size=(200, 1)).astype(float)
        centroids = 2.0 ** 30 + np.array([[1.0], [-1.0], [3.0]])
        gram = Z @ (-2.0 * centroids.T) + (centroids ** 2).sum(axis=1)
        expected = self.elementwise_nearest(Z, centroids)
        assert (gram.argmin(axis=1) != expected).any()
        got = _nearest(Z, (Z ** 2).sum(axis=1), centroids)
        assert got.tobytes() == expected.tobytes()
        assert (got[Z[:, 0] == 2.0 ** 30] == 0).all()  # 1 from centroids 0 and 1 alike

    @pytest.mark.parametrize("offset", [0.0, 2.0 ** 30], ids=["grid", "grid-near-2**30"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_one_and_two_centroids_match_the_elementwise_argmin(self, k, offset):
        """k = 1 re-checks every row; k = 2 keeps or re-checks each row by
        the gap between its two distances. Grid rows tie exactly between
        grid centroids; near 2**30 the Gram form rounds those ties apart."""
        rng = np.random.default_rng(k)
        Z = offset + rng.integers(-2, 3, size=(300, 2)).astype(float)
        centroids = offset + np.array([[0.0, 1.0], [1.0, 0.0]])[:k]
        expected = self.elementwise_nearest(Z, centroids)
        got = _nearest(Z, (Z ** 2).sum(axis=1), centroids)
        assert got.tobytes() == expected.tobytes()
        if k == 2:
            distances = ((Z[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            assert (distances[:, 0] == distances[:, 1]).any() and (expected == 1).any()

    def test_identical_centroids_go_to_the_lower_index(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(300, 7))
        centroids = np.vstack([Z[3], Z[10], Z[3], Z[10], Z[3]])
        got = _nearest(Z, (Z ** 2).sum(axis=1), centroids)
        assert got.tobytes() == self.elementwise_nearest(Z, centroids).tobytes()
        assert set(got.tolist()) == {0, 1}

    @pytest.mark.parametrize("kind", ["grid", "normal"])
    def test_noise_below_half_the_bound_leaves_the_assignment(self, kind):
        """The stated bound, 16 (p + 2) eps (|z|^2 + max |c|^2 + tiny), has
        room to spare: noise of up to half of it on each Gram-form distance,
        enough to flip the Gram argmin of a tie, moves no row to another
        centroid."""
        rng = np.random.default_rng(8)
        p = 5
        if kind == "grid":  # exact arithmetic and many exact ties
            Z = rng.integers(-2, 3, size=(400, p)).astype(float)
        else:
            Z = rng.normal(size=(400, p))
        centroids = Z[rng.choice(400, size=6, replace=False)]
        zz = (Z ** 2).sum(axis=1)
        cc = (centroids ** 2).sum(axis=1)
        bound = 16 * (p + 2) * np.finfo(float).eps * (zz + cc.max() + np.finfo(float).tiny)
        expected = self.elementwise_nearest(Z, centroids)
        for _ in range(20):
            noise = (rng.uniform(size=(400, 6)) - 0.5) * bound[:, None]
            d = Z @ (-2.0 * centroids.T) + cc + noise
            assert _nearest(Z, zz, centroids, d).tobytes() == expected.tobytes()
        if kind == "grid":
            assert (d.argmin(axis=1) != expected).any()  # the noise broke ties

    def test_predicted_costs_are_cluster_means(self):
        X, Y = self.blobs()
        selector = ClusterSelector(n_clusters=2, seed=0).fit(X, Y)
        costs = selector.predicted_costs(np.array([-5.0, 0.0]))
        assert costs == pytest.approx([0.1, 0.9])


class TestSingleBestAndOracle:
    def test_sbs_constant_choice(self):
        Y = np.tile([5.0, 2.0, 9.0], (4, 1))
        selector = SingleBestSelector().fit(np.zeros((4, 1)), Y)
        assert selector.select(np.array([0.0])) == 1
        assert selector.select(np.array([123.0])) == 1
        assert selector.predicted_costs([7.0]) == pytest.approx([5.0, 2.0, 9.0])

    def test_oracle_never_beaten(self):
        scn = make_synthetic_scenario(60, seed=11)
        selector = SingleBestSelector().fit(scn.features, scn.performances)
        for i in range(scn.n_instances):
            oracle_cost = scn.performances[i].min()
            assert oracle_cost <= scn.performances[i, selector.select(scn.features[i])]

    def test_oracle_refuses_feature_selection(self):
        with pytest.raises(DomainError):
            OracleSelector().select(np.zeros(2))
        with pytest.raises(DomainError):
            OracleSelector().predicted_costs(np.zeros(2))


class TestHarrisSelector:
    def test_fit_select_round_trip(self):
        scn = make_synthetic_scenario(100, seed=1)
        selector = HarrisSelector(single_tree_config(0.5, 2, seed=0))
        selector.fit(scn.features, scn.performances)
        hits = sum(selector.select(scn.features[i]) == int(np.argmin(scn.performances[i]))
                   for i in range(scn.n_instances))
        assert hits == scn.n_instances
        assert selector.predicted_costs(scn.features[0]).shape == (3,)


class TestSelectorContract:
    def test_select_is_argmin_of_predicted_costs(self):
        scn = make_synthetic_scenario(60, n_features=4, seed=2)
        X, Y = scn.features, scn.performances / scn.performances.max()
        fitted = [
            HarrisSelector(ForestConfig(n_trees=3, seed=1)).fit(X, Y),
            RegressionForestSelector(n_trees=3, max_depth=3, seed=1).fit(X, Y),
            PairwiseVotingSelector(n_trees=3, max_depth=3, seed=1).fit(X, Y),
            ClusterSelector(n_clusters=3, seed=1).fit(X, Y),
            SingleBestSelector().fit(X, Y),
        ]
        for selector in fitted:
            for x in X[::7]:
                assert selector.select(x) == int(np.argmin(selector.predicted_costs(x)))


_CONFIG = ForestConfig(n_trees=2, tree=TreeConfig(max_depth=2))
# every call that learns from (features, costs), as fit(X, Y)
FIT_ENTRY_POINTS = {
    "harris": lambda X, Y: HarrisSelector(_CONFIG).fit(X, Y),
    "rfr": lambda X, Y: RegressionForestSelector(n_trees=2, max_depth=2).fit(X, Y),
    "satzilla": lambda X, Y: PairwiseVotingSelector(n_trees=2, max_depth=2).fit(X, Y),
    "isac": lambda X, Y: ClusterSelector(n_clusters=2).fit(X, Y),
    "sbs": lambda X, Y: SingleBestSelector().fit(X, Y),
    "oracle": lambda X, Y: OracleSelector().fit(X, Y),
    "fit_forest": lambda X, Y: fit_forest(X, Y, _CONFIG),
    "build_tree": lambda X, Y: build_tree(X, Y, TreeConfig(), np.random.default_rng(0)),
    "best_split": lambda X, Y: best_split(X, Y, 0.5),
}


def _with_cell(array, value):
    array = array.copy()
    array[1, 0] = value
    return array


_X = np.arange(12.0).reshape(4, 3)
_Y = np.array([[0.0, 1.0], [0.2, 0.8], [1.0, 0.0], [0.7, 0.1]])
BAD_TRAINING_DATA = {
    "1-D features": (_X[:, 0], _Y),
    "3-D costs": (_X, _Y[:, :, None]),
    "zero rows": (_X[:0], _Y[:0]),
    "zero features": (_X[:, :0], _Y),
    "zero cost columns": (_X, _Y[:, :0]),
    "row-count mismatch": (_X, _Y[:3]),
    "NaN feature": (_with_cell(_X, np.nan), _Y),
    "inf feature": (_with_cell(_X, np.inf), _Y),
    "NaN cost": (_X, _with_cell(_Y, np.nan)),
    "string features": ([["a", "b", "c"]] * 4, _Y),
    "ragged features": ([[0.0, 1.0, 2.0]] * 3 + [[0.0, 1.0]], _Y),
    "complex features": ([[1j, 2.0, 3.0]] * 4, _Y),
    "complex cost array": (_X, _Y + 1j),
}


@pytest.mark.parametrize("data", BAD_TRAINING_DATA.values(), ids=BAD_TRAINING_DATA.keys())
@pytest.mark.parametrize("fit", FIT_ENTRY_POINTS.values(), ids=FIT_ENTRY_POINTS.keys())
def test_every_fit_refuses_bad_training_data(fit, data):
    # one rule for every fit: the package's own error, and no warning first
    fit(_X, _Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="training"):
            fit(*data)


SELECTORS = ("harris", "rfr", "satzilla", "isac", "sbs")
BAD_QUERY_ROWS = {
    "too short": [0.5],
    "too long": [0.5] * 4,
    "NaN": [np.nan] * 3,
    "inf": [np.inf] * 3,
    "1 x 3 row": [[0.5] * 3],
    "strings": ["a", "b", "c"],
    "objects": [object()] * 3,
}


@pytest.mark.parametrize("x", BAD_QUERY_ROWS.values(), ids=BAD_QUERY_ROWS.keys())
@pytest.mark.parametrize("name", SELECTORS)
def test_every_selector_refuses_bad_query_rows(name, x):
    # one rule for every query: the package's own error, never an IndexError
    # or a silently truncated row
    selector = FIT_ENTRY_POINTS[name](_X, _Y)
    selector.predicted_costs([0.5] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="features|finite"):
            selector.predicted_costs(x)
