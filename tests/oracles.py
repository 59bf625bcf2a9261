"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (counting ranks,
O(k^2) pair counts, plain exhaustive enumeration) rather than reusing the
package's search or metric code, so tests compare two genuinely separate
routes. The paper's scalar definitions (spearman and MSE losses, the hybrid
node loss, mean label and Borda consensus) live here too: the package only
evaluates them in batched form inside split search. The split enumerator
reuses only those scalar losses, which are themselves verified against the
brute-force metrics in this module. The reference scenario parser is the
package's earlier per-row parser, kept to pin the vectorised one to the same
arrays and the same errors; likewise the recursive tree growth and the
per-cluster-mask k-means pin the lockstep growth and the sorted-slice k-means
to the same bytes. The package's random streams are written out literally,
without its seed_sequence helper.
"""

import csv
import math
from pathlib import Path

import numpy as np
import yaml

from harris.errors import ConsistencyError, DomainError, ParseError
from harris.losses import rank_vector
from harris.scenario import (_ATTRIBUTE, CV_FILE, DESCRIPTION_FILE, FEATURES_FILE,
                             N_FOLDS, RUNS_FILE, Scenario, _algorithms_from_description,
                             _require_column, _split_quoted)

# Two candidate split losses within this tolerance are treated as one
# mathematical tie; resolved by lowest feature index, then lowest split point.
TIE_TOL = 1e-10


# Golden PAR10 table (scenario -> selector -> mean PAR10) with known
# average ranks 19/9, 32/9, 21/9, 18/9 for harris/isac/rfr/satzilla.
REFERENCE_PAR10_TABLE = {
    "CSP-Minizinc-Time-2016": {"harris": 476.97, "isac": 1194.64, "rfr": 1044.55, "satzilla": 1058.08},
    "MIP-2016": {"harris": 1728.82, "isac": 2975.35, "rfr": 4332.53, "satzilla": 2989.38},
    "QBF-2016": {"harris": 1382.08, "isac": 1704.74, "rfr": 1722.20, "satzilla": 1607.81},
    "CPMP-2015": {"harris": 4891.47, "isac": 6094.06, "rfr": 5634.73, "satzilla": 5152.87},
    "ASP-POTASSCO": {"harris": 209.47, "isac": 348.57, "rfr": 178.81, "satzilla": 236.48},
    "MAXSAT12-PMS": {"harris": 795.44, "isac": 1067.84, "rfr": 631.14, "satzilla": 553.61},
    "QBF-2011": {"harris": 2464.69, "isac": 3271.56, "rfr": 1865.75, "satzilla": 1520.36},
    "SAT12-HAND": {"harris": 2150.58, "isac": 2587.54, "rfr": 1552.95, "satzilla": 1135.70},
    "SAT12-ALL": {"harris": 2476.95, "isac": 1999.36, "rfr": 1144.46, "satzilla": 1349.94},
}

REFERENCE_AVERAGE_RANKS = {"harris": 2.11, "isac": 3.56, "rfr": 2.33, "satzilla": 2.00}


def counting_ranks(costs):
    """Average ranks by direct counting: 1 + #smaller + #equal-others / 2."""
    costs = [float(c) for c in costs]
    ranks = []
    for i, ci in enumerate(costs):
        smaller = sum(1 for c in costs if c < ci)
        equal_others = sum(1 for j, c in enumerate(costs) if c == ci and j != i)
        ranks.append(1.0 + smaller + equal_others / 2.0)
    return ranks


def spearman_loss_strict(perm1, perm2):
    """Classic 1 - 6*sum(d^2)/(k(k^2-1)) formula; valid only without ties."""
    k = len(perm1)
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(perm1, perm2))
    rho = 1.0 - 6.0 * d2 / (k * (k * k - 1))
    return (1.0 - rho) / 2.0


def spearman_loss_counting(costs1, costs2):
    """Pearson-on-counting-ranks, written longhand; 0.5 for constant ranks."""
    r1 = counting_ranks(costs1)
    r2 = counting_ranks(costs2)
    k = len(r1)
    m1 = sum(r1) / k
    m2 = sum(r2) / k
    cov = sum((a - m1) * (b - m2) for a, b in zip(r1, r2))
    v1 = sum((a - m1) ** 2 for a in r1)
    v2 = sum((b - m2) ** 2 for b in r2)
    if v1 == 0.0 or v2 == 0.0:
        return 0.5
    return (1.0 - cov / math.sqrt(v1 * v2)) / 2.0


def kendall_tau_b_pairs(r1, r2):
    """O(k^2) pair counting with tie correction; None when undefined."""
    k = len(r1)
    concordant = discordant = tied_first = tied_second = 0
    for i in range(k):
        for j in range(i + 1, k):
            a = r1[i] - r1[j]
            b = r2[i] - r2[j]
            if a == 0 and b == 0:
                continue
            if a == 0:
                tied_first += 1
            elif b == 0:
                tied_second += 1
            elif (a > 0) == (b > 0):
                concordant += 1
            else:
                discordant += 1
    denom = math.sqrt((concordant + discordant + tied_first)
                      * (concordant + discordant + tied_second))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def borda_by_rank_sums(labels):
    """Consensus ranking from per-instance counting-rank totals."""
    rank_rows = [counting_ranks(y) for y in labels]
    totals = [sum(col) for col in zip(*rank_rows)]
    return counting_ranks(totals)


# --- the paper's scalar losses and node labels -------------------------------

def spearman_loss(r1, r2):
    """Spearman correlation of two rankings turned into a loss on [0, 1].

    Computed as (1 - rho) / 2 with rho the Pearson correlation of the rank
    vectors, which stays valid under ties. A constant rank vector (every
    algorithm tied) carries no ordering information, so the loss falls back
    to 0.5, the value of an uninformative ranking.
    """
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"rank vectors differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise DomainError("need at least two algorithms to compare rankings")
    a = a - a.mean()
    b = b - b.mean()
    ssa = float(a @ a)
    ssb = float(b @ b)
    if ssa == 0.0 or ssb == 0.0:
        return 0.5
    rho = float(a @ b) / math.sqrt(ssa * ssb)
    return (1.0 - rho) / 2.0


def mse_loss(y, y_hat):
    """Mean squared error between two cost vectors, averaged over algorithms."""
    a = np.asarray(y, dtype=float)
    b = np.asarray(y_hat, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"cost vectors differ in length: {a.size} vs {b.size}")
    d = a - b
    return float(d @ d) / a.size


def node_loss(labels, reg_label, rank_label, lam):
    """Hybrid homogeneity loss of a set of cost vectors against node labels.

    lam weighs the ranking component (mean spearman_loss of each instance's
    ranking against rank_label), 1 - lam the regression component (mean
    mse_loss against reg_label). Endpoint values of lam skip the unused
    component entirely.
    """
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if Y.shape[0] == 0:
        raise DomainError("node loss of an empty dataset is undefined")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    rank_term = 0.0
    if lam != 0.0:
        rank_term = float(np.mean([spearman_loss(r, rank_label) for r in rank_vector(Y)]))
    reg_term = 0.0
    if lam != 1.0:
        reg_term = float(np.mean([mse_loss(y, reg_label) for y in Y]))
    return lam * rank_term + (1.0 - lam) * reg_term


def _as_label_matrix(labels):
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if Y.shape[0] == 0:
        raise DomainError("labels of an empty dataset are undefined")
    return Y


def mean_label(labels):
    """Componentwise arithmetic mean of the cost vectors."""
    return _as_label_matrix(labels).mean(axis=0)


def borda_consensus(labels):
    """Borda consensus: rank algorithms by their summed per-instance ranks.

    The lowest rank total wins consensus rank 1; tied totals share averaged
    ranks, so the consensus is itself a valid (possibly fractional) ranking.
    """
    return rank_vector(rank_vector(_as_label_matrix(labels)).sum(axis=0))


def node_labels(labels):
    """A node's (regression, ranking) labels: mean cost vector, Borda consensus."""
    Y = _as_label_matrix(labels)
    return mean_label(Y), borda_consensus(Y)


# --- exhaustive split enumeration --------------------------------------------

def subset_hybrid_loss(Y, lam):
    """Hybrid loss of a label subset against its own mean/Borda labels."""
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    rank_part = 0.0
    if lam != 0.0:
        ranks = [rank_vector(y) for y in Y]
        consensus = rank_vector(np.sum(ranks, axis=0))
        rank_part = sum(spearman_loss(r, consensus) for r in ranks) / n
    reg_part = 0.0
    if lam != 1.0:
        mean = Y.sum(axis=0) / n
        reg_part = sum(mse_loss(y, mean) for y in Y) / n
    return lam * rank_part + (1.0 - lam) * reg_part


def midpoint(low: float, high: float) -> float:
    """The split point between consecutive distinct values low < high: their
    midpoint, or low where the midpoint rounds up onto high (adjacent doubles)
    or overflows to inf, so that low <= point < high separates them."""
    point = (low + high) / 2.0
    return point if point < high else low


def enumerate_split_losses(X, Y, lam, candidate_features=None):
    """Every (feature, midpoint, weighted child loss), features ascending and
    split points ascending within a feature."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, p = X.shape
    features = range(p) if candidate_features is None else sorted(candidate_features)
    candidates = []
    for f in features:
        values = sorted(set(X[:, f].tolist()))
        for low, high in zip(values, values[1:]):
            point = midpoint(low, high)
            left = X[:, f] <= point
            n_left = int(left.sum())
            loss = (n_left / n) * subset_hybrid_loss(Y[left], lam) \
                + ((n - n_left) / n) * subset_hybrid_loss(Y[~left], lam)
            candidates.append((f, point, loss))
    return candidates


def exhaustive_best_split(X, Y, lam, candidate_features=None):
    """First candidate (feature asc, split asc) within TIE_TOL of the minimum."""
    candidates = enumerate_split_losses(X, Y, lam, candidate_features)
    if not candidates:
        return None
    minimum = min(loss for _, _, loss in candidates)
    threshold = minimum + TIE_TOL * max(1.0, abs(minimum))
    for f, point, loss in candidates:
        if loss <= threshold:
            return f, point, loss
    raise AssertionError("minimum not found among candidates")


# --- column-at-a-time split search ---------------------------------------------
# The prefix-sum split search scored one feature column per call, with the
# same elementwise operations on the same sorted rows as the package's batched
# search. Kept here so tests can demand bit-identical floats, not just ties.

def _per_feature_ranking_means(rank_sums, unit_sums, sizes, k):
    consensus = rank_vector(rank_sums)
    centered = consensus - (k + 1) / 2.0
    norms = np.sqrt((centered ** 2).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    dots = (unit_sums * (centered / safe[:, None])).sum(axis=1)
    means = 0.5 - 0.5 * dots / sizes
    return np.where(norms == 0.0, 0.5, means)


def _per_feature_candidate_losses(column, labels, rank_rows, unit_ranks, sq_sums, lam):
    order = np.argsort(column, kind="stable")
    xs = column[order]
    left_sizes = np.nonzero(xs[1:] > xs[:-1])[0] + 1
    if left_sizes.size == 0:
        return None
    low, high = xs[left_sizes - 1], xs[left_sizes]
    with np.errstate(over="ignore"):
        mid = (low + high) / 2.0
    splits = np.where(mid < high, mid, low)

    n = column.size
    k = labels.shape[1]
    nl = left_sizes.astype(float)
    nr = n - nl
    sel = left_sizes - 1

    reg_left = reg_right = 0.0
    if lam != 1.0:
        col_cum = np.cumsum(labels[order], axis=0)
        sq_cum = np.cumsum(sq_sums[order])
        sums_left = col_cum[sel]
        sums_right = col_cum[-1] - sums_left
        sq_left = sq_cum[sel]
        sq_right = sq_cum[-1] - sq_left
        reg_left = np.maximum(sq_left - (sums_left ** 2).sum(axis=1) / nl, 0.0) / (nl * k)
        reg_right = np.maximum(sq_right - (sums_right ** 2).sum(axis=1) / nr, 0.0) / (nr * k)

    rank_left = rank_right = 0.0
    if lam != 0.0:
        rank_cum = np.cumsum(rank_rows[order], axis=0)
        unit_cum = np.cumsum(unit_ranks[order], axis=0)
        rank_left = _per_feature_ranking_means(rank_cum[sel], unit_cum[sel], nl, k)
        rank_right = _per_feature_ranking_means(rank_cum[-1] - rank_cum[sel],
                                                unit_cum[-1] - unit_cum[sel], nr, k)

    left_loss = lam * rank_left + (1.0 - lam) * reg_left
    right_loss = lam * rank_right + (1.0 - lam) * reg_right
    return splits, (nl / n) * left_loss + (nr / n) * right_loss


def per_feature_best_split(X, Y, lam, candidate_features=None):
    """(feature, split point, loss) of the lowest-loss split, one column per call."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    rank_rows = rank_vector(Y)
    centered = rank_rows - rank_rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered ** 2).sum(axis=1))
    unit_ranks = np.zeros_like(centered)
    nonzero = norms > 0
    unit_ranks[nonzero] = centered[nonzero] / norms[nonzero, None]
    sq_sums = (Y ** 2).sum(axis=1)
    if candidate_features is None:
        candidate_features = range(X.shape[1])

    per_feature = []
    for f in sorted(int(f) for f in candidate_features):
        cand = _per_feature_candidate_losses(X[:, f], Y, rank_rows, unit_ranks, sq_sums, lam)
        if cand is not None:
            per_feature.append((f, *cand))
    if not per_feature:
        return None
    minimum = min(float(losses.min()) for _, _, losses in per_feature)
    threshold = minimum + TIE_TOL * max(1.0, abs(minimum))
    for f, splits, losses in per_feature:
        tied = np.nonzero(losses <= threshold)[0]
        if tied.size:
            return f, float(splits[tied[0]]), float(losses[tied[0]])
    raise AssertionError("minimum not found among candidates")


# --- recursive tree growth ------------------------------------------------------
# The package grew each tree by recursion, one node and one split search at a
# time, before it grew many trees in lockstep. Kept here with its recursion and
# stopping rules as they were, and with the column-at-a-time search above (bit
# for bit the package's split search), so that every lockstep tree can be
# compared with the tree grown alone.

def recursive_build_tree(features, labels, config, rng):
    """One hybrid tree grown depth first by recursion, as nested tuples: see
    tree_bytes."""
    from harris.tree import _hybrid_loss_is_zero

    X = np.asarray(features, dtype=float)
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if X.shape[0] == 0:
        raise DomainError("cannot build a tree from an empty dataset")
    rank_rows = rank_vector(Y)
    n_features = X.shape[1]
    mtry = config.resolve_features_per_split(n_features)

    def grow(idx: np.ndarray, depth: int):
        sub_labels = Y[idx]
        sub_ranks = rank_rows[idx]

        def leaf():
            return ("leaf", idx.size, sub_labels.mean(axis=0).tobytes(),
                    rank_vector(sub_ranks.sum(axis=0)).tobytes())

        if depth >= config.max_depth or idx.size < config.min_samples_split:
            return leaf()
        if _hybrid_loss_is_zero(sub_labels, sub_ranks, config.lam):
            return leaf()
        if mtry < n_features:
            candidates = rng.choice(n_features, size=mtry, replace=False)
        else:
            candidates = np.arange(n_features)
        found = per_feature_best_split(X[idx], sub_labels, config.lam, candidates)
        if found is None:
            return leaf()
        f, point, _ = found
        mask = X[idx, f] <= point
        return ("node", f, point, grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    return grow(np.arange(X.shape[0]), 0)


# --- flat trees and nested tuples --------------------------------------------
# Tests compare the package's flat trees with nested tuples:
# ("node", feature, split point, left, right) or
# ("leaf", size, regression bytes, ranking bytes).

def tree_bytes(tree):
    """A flat harris.tree.Tree as nested tuples: skeleton, split points and
    leaf-label bytes."""
    def node(i):
        if i < 0:
            return ("leaf", tree.size[~i], tree.regression[~i].tobytes(),
                    tree.ranking[~i].tobytes())
        return ("node", tree.feature[i], tree.split[i], node(tree.left[i]), node(tree.right[i]))

    return node(0 if tree.feature else -1)


def flat_tree(nested):
    """The flat harris.tree.Tree of nested tuples, its nodes numbered in
    preorder."""
    from harris.tree import Tree

    feature, split, left, right, regression, ranking, size = [], [], [], [], [], [], []

    def add(node):
        if node[0] == "leaf":
            size.append(node[1])
            regression.append(np.frombuffer(node[2]))
            ranking.append(np.frombuffer(node[3]))
            return -len(size)
        i = len(feature)
        feature.append(node[1])
        split.append(node[2])
        left.append(None)
        right.append(None)
        left[i] = add(node[3])
        right[i] = add(node[4])
        return i

    add(nested)
    return Tree(feature, split, left, right, np.array(regression), np.array(ranking), size)


def forest_of(trees, n_features=1):
    """A hand-built forest of the given flat trees."""
    from harris.forest import ForestConfig, HybridForest
    from harris.scenario import ScaleParams

    k = trees[0].regression.shape[1]
    return HybridForest(trees=tuple(trees), config=ForestConfig(n_trees=len(trees)),
                        scale=ScaleParams(0.0, 1.0),
                        algorithm_names=tuple(f"a{j}" for j in range(k)),
                        n_features=n_features)


def route_nested(nested, row):
    """The leaf tuple a row reaches in nested tuples; <= goes left."""
    while nested[0] == "node":
        _, f, point, left, right = nested
        nested = left if row[f] <= point else right
    return nested


def tree_depth(tree):
    """Edges on the longest root-to-leaf path of a flat tree, found without
    recursion."""
    deepest = 0
    stack = [(0 if tree.feature else -1, 0)]
    while stack:
        i, depth = stack.pop()
        if i < 0:
            deepest = max(deepest, depth)
        else:
            stack += [(tree.left[i], depth + 1), (tree.right[i], depth + 1)]
    return deepest


def tree_skeleton(tree):
    """Skeleton of a flat tree in reference_tree's tuple format."""
    def strip(node):
        if node[0] == "leaf":
            return node[:2]
        return (*node[:3], strip(node[3]), strip(node[4]))

    return strip(tree_bytes(tree))


# --- reference k-means ------------------------------------------------------------
# isac's Lloyd iterations as they stood with one boolean mask per cluster and
# step, kept verbatim (renamed) to pin the whole-array update to the same
# centroids, assignments and random draws (for two or more features).

def reference_kmeans(Z, k, rng):
    """Plain Lloyd iterations with seeded restarts; lowest inertia wins."""
    from harris.baselines import KMEANS_MAX_ITER, KMEANS_RESTARTS

    n = Z.shape[0]
    best_inertia = np.inf
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = Z[rng.choice(n, size=k, replace=False)].copy()
        assignment = np.zeros(n, dtype=int)
        for _ in range(KMEANS_MAX_ITER):
            d2 = ((Z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assignment = d2.argmin(axis=1)
            moved = False
            for c in range(k):
                members = assignment == c
                if members.any():
                    center = Z[members].mean(axis=0)
                else:
                    center = Z[rng.integers(0, n)]  # re-seed an empty cluster
                if not np.array_equal(center, centroids[c]):
                    centroids[c] = center
                    moved = True
            if not moved:
                break
        d2 = ((Z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), assignment].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best = (centroids.copy(), assignment.copy())
    return best


# --- random streams ---------------------------------------------------------------
# Every stream the package draws from, its entropy written out literally:
# (seed mod 2**64, tag), where the tag names the stream.

def forest_tree_stream(seed, tree_number):
    """Generator of forest tree tree_number (counted from 1)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, tree_number)))


def sub_forest_seed(seed, j):
    """Seed of a baseline's j-th single-target sub-forest."""
    stream = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, j))
    return int(stream.generate_state(1, np.uint64)[0])


def isac_stream(seed):
    """Generator of isac's k-means restarts."""
    return np.random.default_rng(np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, 0x15AC)))


def synthetic_stream(seed):
    """Generator of the synthetic scenario."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, 0x53594E)))


# --- single-loss reference trees ----------------------------------------------

def reference_tree(X, Y, max_depth, mode):
    """Greedy reference builder using only one loss ('mse' or 'spearman').

    Stopping rules mirror the production defaults: depth, fewer than two
    rows, zero subset loss, or no splittable feature. Returns a nested tuple
    skeleton: ('leaf', size) or ('node', feature, point, left, right).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)

    def subset_loss(labels):
        n = labels.shape[0]
        if mode == "mse":
            mean = labels.sum(axis=0) / n
            return sum(mse_loss(y, mean) for y in labels) / n
        ranks = [rank_vector(y) for y in labels]
        consensus = rank_vector(np.sum(ranks, axis=0))
        return sum(spearman_loss(r, consensus) for r in ranks) / n

    def loss_is_zero(labels):
        # exact mathematical test: float means make identical rows miss 0.0
        if mode == "mse":
            return bool((labels == labels[0]).all())
        return subset_loss(labels) == 0.0

    def best(Xn, Yn):
        n = Xn.shape[0]
        candidates = []
        for f in range(Xn.shape[1]):
            values = sorted(set(Xn[:, f].tolist()))
            for low, high in zip(values, values[1:]):
                point = midpoint(low, high)
                left = Xn[:, f] <= point
                n_left = int(left.sum())
                loss = (n_left / n) * subset_loss(Yn[left]) \
                    + ((n - n_left) / n) * subset_loss(Yn[~left])
                candidates.append((f, point, loss))
        if not candidates:
            return None
        minimum = min(loss for _, _, loss in candidates)
        threshold = minimum + TIE_TOL * max(1.0, abs(minimum))
        for f, point, loss in candidates:
            if loss <= threshold:
                return f, point
        raise AssertionError("minimum not found among candidates")

    def grow(Xn, Yn, depth):
        if depth >= max_depth or Yn.shape[0] < 2 or loss_is_zero(Yn):
            return ("leaf", Yn.shape[0])
        found = best(Xn, Yn)
        if found is None:
            return ("leaf", Yn.shape[0])
        f, point = found
        left = Xn[:, f] <= point
        return ("node", f, point,
                grow(Xn[left], Yn[left], depth + 1),
                grow(Xn[~left], Yn[~left], depth + 1))

    return grow(X, Y, 0)


def random_split_dataset(rng, max_n=20, max_p=3, max_k=4):
    """Random fixture with duplicate feature values and tied costs mixed in."""
    n = int(rng.integers(4, max_n + 1))
    p = int(rng.integers(1, max_p + 1))
    k = int(rng.integers(2, max_k + 1))
    X = np.empty((n, p))
    for f in range(p):
        if rng.random() < 0.5:
            X[:, f] = rng.choice(np.linspace(0.0, 1.0, 4), size=n)  # duplicates
        else:
            X[:, f] = rng.uniform(0.0, 1.0, size=n)
    Y = rng.uniform(0.0, 1.0, size=(n, k))
    if rng.random() < 0.4:
        Y = np.round(Y, 1)  # inject rank ties
    return X, Y


# --- reference ASLib parser ---------------------------------------------------
# The per-row scenario parser as it stood before the run table and feature block
# were vectorised, kept verbatim (renamed) so that a property test can compare
# the two on generated directories: same arrays, ids and names, and the same
# error type and message for the same bad input. It shares only the unchanged
# quoting, column and algorithm-list helpers with the package.


def _reference_read_arff(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Minimal ARFF reader: attribute names plus (line_number, fields) rows.

    Only the subset ASLib uses is supported: @relation/@attribute headers and
    comma-separated @data rows, with '%' comments and names or fields quoted
    with ' or ".
    """
    attributes: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                lowered = line.lower()
                if lowered.startswith("@attribute"):
                    match = _ATTRIBUTE.match(line)
                    if match is None:
                        raise ParseError(f"{path.name}:{lineno}: malformed @attribute line")
                    attributes.append(match.group(1).strip("'\""))
                elif lowered.startswith("@data"):
                    in_data = True
                elif lowered.startswith("@relation"):
                    continue
                else:
                    raise ParseError(f"{path.name}:{lineno}: unexpected header line {line!r}")
            else:
                if "'" in line:
                    fields = _split_quoted(line)
                else:
                    fields = next(csv.reader([line]))
                fields = [f.strip().strip("'\"") for f in fields]
                if len(fields) != len(attributes):
                    raise ParseError(
                        f"{path.name}:{lineno}: expected {len(attributes)} fields, got {len(fields)}"
                    )
                rows.append((lineno, fields))
    if not in_data:
        raise ParseError(f"{path.name}: no @data section")
    if not attributes:
        raise ParseError(f"{path.name}: no @attribute declarations")
    return attributes, rows


def _reference_float_or_nan(value: str, path: Path, lineno: int) -> float:
    if value == "?" or value == "":
        return float("nan")
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{path.name}:{lineno}: not a number: {value!r}") from None



def reference_parse_scenario(directory) -> Scenario:
    """Parse an ASLib-style scenario directory into a Scenario.

    Raises ParseError for missing/malformed files and ConsistencyError when
    the files disagree about the instance set.
    """
    root = Path(directory)
    paths = {}
    for fname in (DESCRIPTION_FILE, FEATURES_FILE, RUNS_FILE, CV_FILE):
        p = root / fname
        if not p.is_file():
            raise ParseError(f"missing required file {fname} in {root}")
        paths[fname] = p

    try:
        meta = yaml.safe_load(paths[DESCRIPTION_FILE].read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ParseError(f"{DESCRIPTION_FILE}: invalid YAML: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{DESCRIPTION_FILE}: expected a YAML mapping")
    if "algorithm_cutoff_time" not in meta:
        raise ParseError(f"{DESCRIPTION_FILE}: missing algorithm_cutoff_time")
    try:
        cutoff = float(meta["algorithm_cutoff_time"])
    except (TypeError, ValueError):
        raise ParseError(f"{DESCRIPTION_FILE}: algorithm_cutoff_time is not a number") from None
    if cutoff <= 0:
        raise ParseError(f"{DESCRIPTION_FILE}: algorithm_cutoff_time must be positive")
    perf_measure = meta.get("performance_measures", "runtime")
    if isinstance(perf_measure, list):
        perf_measure = perf_measure[0] if perf_measure else "runtime"
    perf_measure = str(perf_measure).strip().lower()

    # Feature values: instance order is fixed here.
    fpath = paths[FEATURES_FILE]
    fattrs, frows = _reference_read_arff(fpath)
    inst_col = _require_column(fattrs, "instance_id", fpath)
    rep_col = next((i for i, a in enumerate(fattrs) if a.lower() == "repetition"), None)
    skip = {inst_col} | ({rep_col} if rep_col is not None else set())
    feature_cols = [i for i in range(len(fattrs)) if i not in skip]
    if not feature_cols:
        raise ParseError(f"{fpath.name}: no feature columns")
    feature_names = tuple(fattrs[i] for i in feature_cols)

    instance_ids: list[str] = []
    index_of: dict[str, int] = {}
    feature_rows: list[list[float]] = []
    for lineno, fields in frows:
        inst = fields[inst_col]
        if inst in index_of:
            continue  # keep the first repetition only
        index_of[inst] = len(instance_ids)
        instance_ids.append(inst)
        feature_rows.append([_reference_float_or_nan(fields[c], fpath, lineno) for c in feature_cols])
    if not instance_ids:
        raise ParseError(f"{fpath.name}: no data rows")
    features = np.asarray(feature_rows, dtype=float)
    n = len(instance_ids)

    # Algorithm runs.
    rpath = paths[RUNS_FILE]
    rattrs, rrows = _reference_read_arff(rpath)
    r_inst = _require_column(rattrs, "instance_id", rpath)
    r_algo = _require_column(rattrs, "algorithm", rpath)
    r_status = _require_column(rattrs, "runstatus", rpath)
    lowered = [a.lower() for a in rattrs]
    if perf_measure in lowered:
        r_perf = lowered.index(perf_measure)
    else:
        reserved = {r_inst, r_algo, r_status}
        reserved |= {i for i, a in enumerate(lowered) if a == "repetition"}
        leftovers = [i for i in range(len(rattrs)) if i not in reserved]
        if not leftovers:
            raise ParseError(f"{rpath.name}: no performance column found")
        r_perf = leftovers[0]

    algorithm_names = _algorithms_from_description(meta)
    if not algorithm_names:
        seen: dict[str, None] = {}
        for _, fields in rrows:
            seen.setdefault(fields[r_algo], None)
        algorithm_names = list(seen)
    if len(algorithm_names) < 2:
        raise ParseError(f"{rpath.name}: need at least two algorithms")
    algo_index = {a: j for j, a in enumerate(algorithm_names)}
    k = len(algorithm_names)

    performances = np.full((n, k), cutoff, dtype=float)
    run_ok = np.zeros((n, k), dtype=bool)
    filled = np.zeros((n, k), dtype=bool)
    run_instances: set[str] = set()
    for lineno, fields in rrows:
        inst = fields[r_inst]
        run_instances.add(inst)
        if inst not in index_of:
            continue  # reported below as a set mismatch
        algo = fields[r_algo]
        if algo not in algo_index:
            raise ParseError(f"{rpath.name}:{lineno}: unknown algorithm {algo!r}")
        i, j = index_of[inst], algo_index[algo]
        if filled[i, j]:
            continue  # first repetition wins
        filled[i, j] = True
        status_ok = fields[r_status].strip().lower() == "ok"
        runtime = _reference_float_or_nan(fields[r_perf], rpath, lineno)
        if status_ok and np.isfinite(runtime) and runtime >= 0:
            run_ok[i, j] = True
            performances[i, j] = min(runtime, cutoff)
        # otherwise keep the cutoff-clamped default (missing-evaluation policy)
    if run_instances != set(instance_ids):
        raise ConsistencyError(
            f"{rpath.name}: instance set differs from {fpath.name} "
            f"({len(run_instances)} vs {n} instances)"
        )

    # CV folds.
    cpath = paths[CV_FILE]
    cattrs, crows = _reference_read_arff(cpath)
    c_inst = _require_column(cattrs, "instance_id", cpath)
    c_fold = _require_column(cattrs, "fold", cpath)
    fold_of = np.zeros(n, dtype=int)
    have_fold = np.zeros(n, dtype=bool)
    cv_instances: set[str] = set()
    for lineno, fields in crows:
        inst = fields[c_inst]
        cv_instances.add(inst)
        if inst not in index_of:
            continue
        try:
            fold = int(float(fields[c_fold]))
        except ValueError:
            raise ParseError(f"{cpath.name}:{lineno}: not a fold id: {fields[c_fold]!r}") from None
        if not 1 <= fold <= N_FOLDS:
            raise ParseError(f"{cpath.name}:{lineno}: fold {fold} outside 1..{N_FOLDS}")
        i = index_of[inst]
        if not have_fold[i]:
            fold_of[i] = fold
            have_fold[i] = True
    if cv_instances != set(instance_ids) or not have_fold.all():
        raise ConsistencyError(
            f"{cpath.name}: instance set differs from {fpath.name}"
        )

    return Scenario(
        name=str(meta.get("scenario_id", root.name)),
        algorithm_names=tuple(algorithm_names),
        feature_names=feature_names,
        features=features,
        performances=performances,
        run_ok=run_ok,
        cutoff=cutoff,
        fold_of=fold_of,
        instance_ids=tuple(instance_ids),
    )
