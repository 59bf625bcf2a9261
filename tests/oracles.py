"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (counting ranks,
O(k^2) pair counts, plain exhaustive enumeration) rather than reusing the
package's search or metric code, so tests compare two genuinely separate
routes. The split enumerator reuses only the scalar loss primitives, which
are themselves verified against the brute-force metrics in this module.
"""

import math

import numpy as np

from harris.losses import mse_loss, rank_vector, spearman_loss

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
            point = (low + high) / 2.0
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
    splits = (xs[left_sizes - 1] + xs[left_sizes]) / 2.0

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
                point = (low + high) / 2.0
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


def tree_skeleton(node):
    """Skeleton of a production TreeNode in reference_tree's tuple format."""
    from harris.tree import Leaf

    if isinstance(node, Leaf):
        return ("leaf", node.size)
    return ("node", node.feature_index, node.split_point,
            tree_skeleton(node.left), tree_skeleton(node.right))


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
