"""Selectors evaluated by the harness.

Every selector is fit on imputed features and min-max-scaled PAR10 costs
(n x k, smaller is better) alone: fit(features, costs) takes no scale and no
algorithm names, as no selector's choice depends on them (train saves a
forest with both), and checks them with tree.checked_training_data (n x p
features, n x k costs, n, p, k >= 1, all finite), itself or in fit_forests. A
selector writes fit and predicted_costs(x), a float array of k costs for a
row it checks with tree.checked_query_row (p finite numbers); select(x),
never overridden, is their argmin, ties to the lowest index. Scores that
are not costs (satzilla's minus votes) set predicts_costs = False: no rank
correlation is reported.
Random streams come from tree.seed_sequence: sub-forest j from (seed, j),
isac's k-means from (seed, 0x15AC).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DomainError
from .forest import ForestConfig, fit_forest, fit_forests, predict_costs
from .tree import TreeConfig, checked_query_row, checked_training_data, seed_sequence


class Selector:
    name = "selector"
    predicts_costs = True  # False: predicted_costs only orders, so tau-b is not reported

    def fit(self, features, costs) -> "Selector":
        raise NotImplementedError

    def predicted_costs(self, x):
        raise NotImplementedError

    def select(self, x) -> int:
        return int(np.argmin(self.predicted_costs(x)))


def _fitted(state):
    """state, set by fit; DomainError while it is still None."""
    if state is None:
        raise DomainError("fit the selector first")
    return state


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
        return predict_costs(self.forest, checked_query_row(x, _fitted(self.forest).n_features))


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
        row = checked_query_row(x, _fitted(self.forests)[0].n_features)
        return np.array([float(predict_costs(f, row)[0]) for f in self.forests])


class PairwiseVotingSelector(_SubForestSelector):
    """SATzilla-style voting on pairwise performance differences.

    For each unordered algorithm pair (i, j) a regression forest predicts
    cost_i - cost_j; a negative prediction votes for i, a positive one for j.
    The predicted costs are minus the vote counts: the most-voted algorithm
    wins, ties going to the lowest index, and no tau-b is reported.
    """

    name = "satzilla"
    predicts_costs = False
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

    def predicted_costs(self, x):
        row = checked_query_row(x, _fitted(self.models)[0][2].n_features)
        scores = np.zeros(self.n_algorithms)
        for i, j, forest in self.models:
            diff = float(predict_costs(forest, row)[0])
            if diff != 0.0:  # an exactly-zero prediction carries no preference: no vote
                scores[i if diff < 0.0 else j] -= 1.0
        return scores


class ClusterSelector(Selector):
    """ISAC-style selection: cluster z-scored features with k-means and pick
    each cluster's cheapest-on-average algorithm; queries go to the nearest
    centroid (ties to the lowest cluster index)."""

    name = "isac"
    centroids = cluster_costs = feature_mean = feature_std = None  # set by fit

    def __init__(self, n_clusters=10, seed=0):
        if (isinstance(n_clusters, bool) or not isinstance(n_clusters, (int, np.integer))
                or n_clusters < 1):
            raise DomainError(f"n_clusters must be an integer >= 1, got {n_clusters!r}")
        self.n_clusters = n_clusters
        self.seed = seed

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

    def predicted_costs(self, x):
        row = checked_query_row(x, _fitted(self.centroids).shape[1])
        z = (np.array(row) - self.feature_mean) / self.feature_std
        return self.cluster_costs[np.argmin(((self.centroids - z) ** 2).sum(axis=1))].copy()


KMEANS_RESTARTS = 25
KMEANS_MAX_ITER = 100
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _kmeans(Z, k, rng):
    """Plain Lloyd iterations with seeded restarts; lowest inertia wins.

    A step is a few whole-array calls: the assignment from _nearest (Gram-form
    distances, rows near a tie re-checked elementwise), and every cluster's
    sum from one weighted bincount over the (cluster, column) cells, which
    adds a cluster's rows in row order from +0.0, as mean(axis=0) does for
    p >= 2. Empty clusters are re-seeded in cluster order; a centroid that
    compares equal to its new centre keeps its bytes.
    """
    n, p = Z.shape
    zz = (Z ** 2).sum(axis=1)
    weights = Z.ravel()
    cell_ids = np.arange(k * p).reshape(k, p)  # flat id of each (cluster, column) sum
    best_inertia = np.inf
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = Z[rng.choice(n, size=k, replace=False)].copy()
        assignment = _nearest(Z, zz, centroids)
        for _ in range(KMEANS_MAX_ITER):
            counts = np.bincount(assignment, minlength=k)
            sums = np.bincount(cell_ids[assignment].ravel(), weights=weights,
                               minlength=k * p).reshape(k, p)
            centers = sums / np.maximum(counts, 1)[:, None]
            for c in np.flatnonzero(counts == 0):
                centers[c] = Z[rng.integers(0, n)]  # re-seed an empty cluster
            moved = (centers != centroids).any(axis=1)
            if not moved.any():
                break  # the assignment already belongs to the final centroids
            centroids[moved] = centers[moved]
            assignment = _nearest(Z, zz, centroids)
        inertia = float(((Z - centroids[assignment]) ** 2).sum(axis=1).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best = (centroids.copy(), assignment.copy())
    return best


def _nearest(Z, zz, centroids, d=None):
    """Each row's nearest centroid, ties to the lowest index: bit for bit
    ((Z[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1).

    d is the Gram form, one n x k product Z @ (-2 c.T) + |c|^2 (each row's
    |z|^2, zz, left out), unless given. Summed in any order, as BLAS may, d
    and the elementwise distances stay within (p + 2) eps (zz_i + max |c|^2)
    of the exact ones. A row keeps d's argmin only if its two smallest d (from
    np.partition) are more than 16 times that apart (tiny added for
    underflow); every other row, a NaN or inf gap and k = 1 included, is
    recomputed elementwise, so BLAS's summation order and thread count never
    show.
    """
    cc = (centroids ** 2).sum(axis=1)
    if d is None:
        d = Z @ (-2.0 * centroids.T) + cc
    assignment = d.argmin(axis=1)
    # partition puts a NaN last, but argmin points at it: the gap is NaN; at
    # k = 1, kth is 0 and the gap is 0, so every row is re-checked
    kth = min(1, d.shape[1] - 1)
    gap = np.partition(d, kth, axis=1)[:, kth] - d[np.arange(d.shape[0]), assignment]
    rows = (~(gap > 16 * (Z.shape[1] + 2) * _EPS * (zz + cc.max() + _TINY))).nonzero()[0]
    if rows.size:
        assignment[rows] = ((Z[rows, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
    return assignment


class SingleBestSelector(Selector):
    """Constant selector: the algorithm with the best mean training cost."""

    name = "sbs"
    mean_costs = n_features = None  # set by fit

    def fit(self, features, costs):
        X, Y = checked_training_data(features, costs)
        self.mean_costs, self.n_features = Y.mean(axis=0), X.shape[1]
        return self

    def predicted_costs(self, x):
        checked_query_row(x, _fitted(self.n_features))
        return self.mean_costs.copy()


class OracleSelector(Selector):
    """Evaluation-time reference: picks the true per-instance cheapest
    algorithm. The harness feeds it the test labels directly."""

    name = "oracle"

    def fit(self, features, costs):
        checked_training_data(features, costs)
        return self

    def predicted_costs(self, x):
        raise DomainError("the oracle selects from true costs, not features")
