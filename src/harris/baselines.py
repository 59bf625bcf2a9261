"""Selectors evaluated by the harness.

Every selector is fit on imputed features and min-max-scaled PAR10 costs
(n x k, smaller is better) alone: fit(features, costs) takes no scale and no
algorithm names, as no selector's choice depends on them (train saves a
forest with both), and checks them with tree.checked_training_data (n x p
features, n x k costs, n, p, k >= 1, all finite), itself or in fit_forests. A
selector writes fit and predicted_costs(x), a length-k cost vector for one
instance; Selector.select(x) is its argmin, ties going to the lowest index.
Only a selector whose scores are not costs (pairwise voting) overrides select
and returns None from predicted_costs, which leaves its rank-correlation
metrics empty. Every random stream comes from tree.seed_sequence: sub-forest
j is seeded from (seed, j), isac's k-means draws from (seed, 0x15AC).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DomainError
from .forest import ForestConfig, fit_forest, fit_forests, predict_costs
from .tree import TreeConfig, checked_training_data, seed_sequence


class Selector:
    name = "selector"

    def fit(self, features, costs) -> "Selector":
        raise NotImplementedError

    def predicted_costs(self, x):
        raise NotImplementedError

    def select(self, x) -> int:
        return int(np.argmin(self.predicted_costs(x)))


def _derived_seed(seed: int, index: int) -> int:
    return int(seed_sequence(seed, index).generate_state(1, np.uint64)[0])


class HarrisSelector(Selector):
    """The hybrid-forest selector itself, wrapped for the harness."""

    name = "harris"

    def __init__(self, config: ForestConfig):
        self.config = config
        self.forest = None

    def fit(self, features, costs):
        self.forest = fit_forest(features, costs, self.config)
        return self

    def predicted_costs(self, x):
        return predict_costs(self.forest, x)


class _SubForestSelector(Selector):
    """Base of the baselines built from single-target sub-forests: hybrid
    forests at lambda = 0, i.e. ordinary variance-reduction regression trees,
    bootstrapped and sampling sqrt(p) features per split."""

    def __init__(self, n_trees=100, max_depth=10, seed=0):
        self.config = ForestConfig(
            n_trees=n_trees,
            seed=seed,
            tree=TreeConfig(lam=0.0, max_depth=max_depth, features_per_split="sqrt"),
        )

    def _fit_sub_forests(self, X, targets):
        """One sub-forest per column j of targets, seeded from (seed, j); all
        their trees grow together."""
        configs = [replace(self.config, seed=_derived_seed(self.config.seed, j))
                   for j in range(targets.shape[1])]
        return fit_forests(X, [targets[:, j:j + 1] for j in range(targets.shape[1])], configs)


class RegressionForestSelector(_SubForestSelector):
    """One regression forest per algorithm; select the predicted-cheapest."""

    name = "rfr"
    forests = None

    def fit(self, features, costs):
        X, Y = checked_training_data(features, costs)
        self.forests = self._fit_sub_forests(X, Y)
        return self

    def predicted_costs(self, x):
        row = np.asarray(x, dtype=float).tolist()
        return np.array([float(predict_costs(f, row)[0]) for f in self.forests])


class PairwiseVotingSelector(_SubForestSelector):
    """SATzilla-style voting on pairwise performance differences.

    For each unordered algorithm pair (i, j) a regression forest predicts
    cost_i - cost_j; a negative prediction votes for i, otherwise j. The
    algorithm with the most votes wins, ties going to the lowest index.
    Votes are not costs, so this selector writes select itself.
    """

    name = "satzilla"
    models = None
    n_algorithms = None

    def fit(self, features, costs):
        X, Y = checked_training_data(features, costs)
        k = Y.shape[1]
        if k < 2:
            raise DomainError("pairwise voting needs at least two algorithms")
        self.n_algorithms = k
        first, second = np.triu_indices(k, 1)  # pairs (i, j), i < j, row by row
        forests = self._fit_sub_forests(X, Y[:, first] - Y[:, second])
        self.models = [(int(i), int(j), forest)
                       for i, j, forest in zip(first, second, forests)]
        return self

    def select(self, x) -> int:
        votes = np.zeros(self.n_algorithms, dtype=int)
        row = np.asarray(x, dtype=float).tolist()
        for i, j, forest in self.models:
            diff = float(predict_costs(forest, row)[0])
            if diff < 0.0:
                votes[i] += 1
            elif diff > 0.0:
                votes[j] += 1
            # an exactly-zero prediction carries no preference: no vote
        return int(np.argmax(votes))

    def predicted_costs(self, x):
        return None


class ClusterSelector(Selector):
    """ISAC-style selection: cluster z-scored features with k-means and pick
    each cluster's cheapest-on-average algorithm; queries go to the nearest
    centroid (ties to the lowest cluster index)."""

    name = "isac"

    def __init__(self, n_clusters=10, seed=0):
        if (isinstance(n_clusters, bool) or not isinstance(n_clusters, (int, np.integer))
                or n_clusters < 1):
            raise DomainError(f"n_clusters must be an integer >= 1, got {n_clusters!r}")
        self.n_clusters = n_clusters
        self.seed = seed
        self.centroids = None
        self.cluster_costs = None
        self.feature_mean = None
        self.feature_std = None

    def fit(self, features, costs):
        """k-means with min(n_clusters, n) clusters: at most one per training row."""
        X, Y = checked_training_data(features, costs)
        rng = np.random.default_rng(seed_sequence(self.seed, 0x15AC))
        k_clusters = min(self.n_clusters, X.shape[0])

        self.feature_mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.feature_std = np.where(std == 0.0, 1.0, std)
        Z = (X - self.feature_mean) / self.feature_std
        self.centroids, assignment = _kmeans(Z, k_clusters, rng)

        global_mean = Y.mean(axis=0)
        means = []
        for c in range(k_clusters):
            members = assignment == c
            means.append(Y[members].mean(axis=0) if members.any() else global_mean)
        self.cluster_costs = np.array(means)
        return self

    def _nearest(self, x) -> int:
        z = (np.asarray(x, dtype=float) - self.feature_mean) / self.feature_std
        d2 = ((self.centroids - z) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def predicted_costs(self, x):
        return self.cluster_costs[self._nearest(x)].copy()


KMEANS_RESTARTS = 25
KMEANS_MAX_ITER = 100


def _kmeans(Z, k, rng):
    """Plain Lloyd iterations with seeded restarts; lowest inertia wins.

    A step is a few whole-array calls: the squared distances of every row to
    every centroid come from one n x k*p tiled copy of Z, and every cluster's
    sum from one weighted bincount over the (cluster, column) cells, which adds
    a cluster's rows in row order from +0.0, as mean(axis=0) does for p >= 2.
    Empty clusters are re-seeded in cluster order; a centroid that compares
    equal to its new centre keeps its bytes.
    """
    n, p = Z.shape
    tiled = np.tile(Z, k)
    diff = np.empty_like(tiled)
    weights = Z.ravel()
    cell_ids = np.arange(k * p).reshape(k, p)  # flat id of each (cluster, column) sum
    best_inertia = np.inf
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = Z[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(KMEANS_MAX_ITER):
            d2 = _squared_distances(tiled, centroids, diff)
            assignment = d2.argmin(axis=1)
            counts = np.bincount(assignment, minlength=k)
            sums = np.bincount(cell_ids[assignment].ravel(), weights=weights,
                               minlength=k * p).reshape(k, p)
            centers = sums / np.maximum(counts, 1)[:, None]
            for c in np.flatnonzero(counts == 0):
                centers[c] = Z[rng.integers(0, n)]  # re-seed an empty cluster
            moved = (centers != centroids).any(axis=1)
            if not moved.any():
                break  # d2 and assignment already belong to the final centroids
            centroids[moved] = centers[moved]
        else:
            d2 = _squared_distances(tiled, centroids, diff)
            assignment = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), assignment].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best = (centroids.copy(), assignment.copy())
    return best


def _squared_distances(tiled, centroids, out):
    """n x k squared distances, bit-identical to
    ((Z[:, None, :] - centroids[None]) ** 2).sum(axis=2): the same elementwise
    steps, then the same contiguous sum over the p columns."""
    np.subtract(tiled, centroids.reshape(1, -1), out=out)
    np.multiply(out, out, out=out)
    return out.reshape(out.shape[0], *centroids.shape).sum(axis=2)


class SingleBestSelector(Selector):
    """Constant selector: the algorithm with the best mean training cost."""

    name = "sbs"

    def __init__(self):
        self.mean_costs = None

    def fit(self, features, costs):
        _, Y = checked_training_data(features, costs)
        self.mean_costs = Y.mean(axis=0)
        return self

    def predicted_costs(self, x):
        return self.mean_costs.copy()


class OracleSelector(Selector):
    """Evaluation-time reference: picks the true per-instance cheapest
    algorithm. The harness feeds it the test labels directly."""

    name = "oracle"

    def fit(self, features, costs):
        return self

    def predicted_costs(self, x):
        raise DomainError("the oracle selects from true costs, not features")
