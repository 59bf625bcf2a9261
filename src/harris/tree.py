"""Hybrid ranking-and-regression decision trees.

A tree is grown by binary splitting. Split search enumerates every candidate
feature and every midpoint between consecutive distinct feature values a < b
(a itself where the midpoint rounds up onto b), scoring each candidate by the
size-weighted hybrid loss of the two children with both children's labels
(mean vector and Borda consensus) recomputed on that side. Rows with feature
value <= split point go left. Every fit checks its data with
checked_training_data: n x p features, n x k targets, n, p, k >= 1, all finite.

build_trees grows many trees in lockstep. Each tree settles its nodes depth
first, left before right, and draws each split's feature sample from its own
generator, so every tree is the one a recursive build on its own data would
grow. Each step takes the next node to split from every unfinished tree and
scores all of their candidate columns in one pass: one column-wise sort,
prefix sums over the sorted rows, and the losses of every real split point of
every column at once (in blocks of BLOCK_CELLS label cells). Leaf rankings
are ranked once per build_trees call, all leaves of all its trees together.
best_split and build_tree are its one-node and one-tree cases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .losses import rank_vector

# Candidate losses within this (relative above 1) tolerance of the minimum
# count as tied; ties resolve to the lowest feature index, then the lowest
# split point. Distinct split losses on unit-scaled labels sit far above
# this gap, so only mathematical ties are merged.
SPLIT_TIE_TOL = 1e-10

# Split search scores candidate columns in blocks of at most this many
# rows x columns x k label cells, which bounds its scratch memory. Blocks of
# 2**14 to 2**16 cells ran equally fast; the smaller bound keeps a fit of
# many trees in lockstep near the memory of growing them one at a time.
BLOCK_CELLS = 1 << 14


def checked_int(name: str, value) -> int:
    """value as an int; a bool or a value that is not an integer raises
    DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_training_data(features, *targets) -> list[np.ndarray]:
    """[X, *Ys]: n x p features and n x k targets of one width k as float
    matrices; DomainError unless n, p, k >= 1 and every entry is finite."""
    arrays = [np.ascontiguousarray(a, dtype=float) for a in (features, *targets)]
    shapes = [a.shape for a in arrays]
    if any(len(s) != 2 or 0 in s for s in shapes) or len({s[0] for s in shapes}) > 1 \
            or len({s[1] for s in shapes[1:]}) > 1:
        raise DomainError(f"training data must be n x p features and n x k targets, "
                          f"n, p, k >= 1; got shapes {shapes}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError("training data must be finite (impute missing values first)")
    return arrays


def seed_sequence(seed, *path) -> np.random.SeedSequence:
    """SeedSequence((seed mod 2**64, *path)): the one rule that turns a seed
    into a random stream (the stream map is in the README). A seed that is not
    an integer raises DomainError. Entropy is read as 32-bit words and short
    entropy is zero-padded, so paths of differing lengths can alias."""
    return np.random.SeedSequence((checked_int("seed", seed) & 0xFFFFFFFFFFFFFFFF, *path))


@dataclass(frozen=True)
class TreeConfig:
    lam: float = 0.5                      # weight of the ranking loss
    max_depth: int = 6
    min_samples_split: int = 2
    features_per_split: Union[int, str] = "all"  # int, "all", or "sqrt"

    def __post_init__(self):
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise DomainError(f"lambda must be a number, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        for name in ("max_depth", "min_samples_split"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.max_depth < 0:
            raise DomainError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise DomainError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if isinstance(self.features_per_split, str):
            if self.features_per_split not in ("all", "sqrt"):
                raise DomainError(f"features_per_split must be an int, 'all' or 'sqrt'")
        else:
            object.__setattr__(self, "features_per_split",
                               checked_int("features_per_split", self.features_per_split))
            if self.features_per_split < 1:
                raise DomainError("features_per_split must be >= 1")

    def resolve_features_per_split(self, n_features: int) -> int:
        if self.features_per_split == "all":
            return n_features
        if self.features_per_split == "sqrt":
            return min(n_features, max(1, math.isqrt(n_features - 1) + 1))
        m = int(self.features_per_split)
        if m > n_features:
            raise DomainError(f"features_per_split={m} exceeds {n_features} features")
        return m


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as parallel lists over its split nodes and its leaves,
    each in preorder.

    Split node i sends a row left when row[feature[i]] <= split[i]. A child
    id c >= 0 (in left[i] or right[i]) is split node c; c < 0 is leaf ~c. The
    root is split node 0, or leaf 0 (id -1) in a tree without splits. Leaf j
    holds the mean cost vector regression[j], the Borda consensus ranking
    ranking[j] (both leaves x k) and its training size size[j].
    """
    feature: list[int]
    split: list[float]
    left: list[int]
    right: list[int]
    regression: np.ndarray
    ranking: np.ndarray
    size: list[int]


class _LabelStats:
    """Per-row quantities reused by every split evaluation.

    rank_rows holds each instance's average-rank vector; unit_ranks the
    centered, unit-norm version (zero rows for all-tied instances, which
    contribute the neutral 0.5 ranking loss); sq_sums the per-row sum of
    squared costs for the regression term. Every quantity is computed row by
    row, so the stats of stacked label matrices are the stacked stats.
    """

    def __init__(self, labels: np.ndarray):
        self.labels = labels
        self.rank_rows = rank_vector(labels)
        centered = self.rank_rows - self.rank_rows.mean(axis=1, keepdims=True)
        norms = np.sqrt((centered ** 2).sum(axis=1))
        unit = np.zeros_like(centered)
        nonzero = norms > 0
        unit[nonzero] = centered[nonzero] / norms[nonzero, None]
        self.unit_ranks = unit
        self.sq_sums = (labels ** 2).sum(axis=1)


def _ranking_means(rank_sums, unit_sums, sizes, k):
    """Mean spearman loss of each side against its own Borda consensus.

    For side S with consensus ranking c: mean over rows of (1 - u_i . c_hat)/2
    where u_i is the row's unit-norm centered rank vector, which equals
    0.5 - (sum_i u_i) . c_hat / (2 |S|). A constant consensus fixes the loss
    at 0.5.
    """
    consensus = rank_vector(rank_sums)
    centered = consensus - (k + 1) / 2.0
    norms = np.sqrt((centered ** 2).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    dots = (unit_sums * (centered / safe[:, None])).sum(axis=1)
    means = 0.5 - 0.5 * dots / sizes
    return np.where(norms == 0.0, 0.5, means)


def _candidate_losses(columns, sizes, rows, stats: _LabelStats, lam: float):
    """All candidate splits of an N x m block of feature columns.

    Column c holds its node's sizes[c] feature values on top, padded with NaN
    to N rows; rows[:, c] gives the stats row of each of its entries. Returns
    (column positions, split points, losses), ordered by column, then by
    split point. Each column is sorted once (NaN padding sorts last and, as
    no value is > NaN, never bounds a split) and losses come from prefix sums
    over its sorted rows, read only at real split points, with the node's
    totals read at its own last row; children's labels are implicit (mean
    vector for the regression term, Borda consensus for the ranking term).
    """
    m = columns.shape[1]
    order = columns.argsort(axis=0, kind="stable")
    order *= m
    order += np.arange(m)                     # flat positions, column by column
    xs = columns.ravel()[order]
    rows = rows.ravel()[order]
    feat, sel = (xs[1:] > xs[:-1]).T.nonzero()  # sel + 1 rows go left
    low, high = xs[sel, feat], xs[sel + 1, feat]
    with np.errstate(over="ignore"):  # near the float maximum mid is inf
        mid = (low + high) / 2.0
    splits = np.where(mid < high, mid, low)  # low <= split < high, as the sides counted

    # each candidate's left prefix sums, then the node's totals at its own
    # last row, turned in place into the right side's sums
    c = sel.size
    last = sizes[feat] - 1
    at_row = np.concatenate((sel, last))
    at_col = np.concatenate((feat, feat))
    n = (last + 1).astype(float)
    nl = (sel + 1).astype(float)
    nr = n - nl
    sides = np.concatenate((nl, nr))

    def side_sums(values):
        sums = values[rows].cumsum(axis=0)[at_row, at_col]
        sums[c:] -= sums[:c]
        return sums

    k = stats.labels.shape[1]
    reg = 0.0
    if lam != 1.0:
        sums, sq = side_sums(stats.labels), side_sums(stats.sq_sums)
        # mean over side of per-row MSE against the side mean; clamp the
        # cancellation residue of mathematically zero losses
        reg = np.maximum(sq - (sums ** 2).sum(axis=1) / sides, 0.0) / (sides * k)
    rank = 0.0
    if lam != 0.0:
        rank = _ranking_means(side_sums(stats.rank_rows), side_sums(stats.unit_ranks), sides, k)
    loss = lam * rank + (1.0 - lam) * reg
    return feat, splits, (nl / n) * loss[:c] + (nr / n) * loss[c:]


def _best_splits(X, stats: _LabelStats, nodes, lam: float):
    """The lowest-loss split of each node, all nodes scored together.

    Each node is (rows, stats_rows, features): its rows of X, the matching
    rows of stats and its sorted candidate features. Returns, per node,
    (feature_index, split_point, weighted_loss), or None when no candidate
    feature has two distinct values there. Columns go largest node first, in
    blocks of BLOCK_CELLS label cells, so that a block pads little. A block
    holds whole nodes, or part of one node too wide for a block, and the
    candidates are reduced to one per node as each node completes.
    """
    n_features = X.shape[1]
    flat_x = X.ravel()
    k = stats.labels.shape[1]
    by_size = sorted(range(len(nodes)), key=lambda j: nodes[j][0].size, reverse=True)
    nodes = [nodes[j] for j in by_size]
    # one flat store of every node's rows; a column reads its node's stretch
    x_rows = np.concatenate([rows for rows, _, _ in nodes])
    stats_rows = np.concatenate([srows for _, srows, _ in nodes])
    node_size = np.array([rows.size for rows, _, _ in nodes])
    node_width = np.array([feats.size for _, _, feats in nodes])
    node_first_col = node_width.cumsum() - node_width
    col_node = np.arange(len(nodes)).repeat(node_width)
    col_feat = np.concatenate([feats for _, _, feats in nodes])
    col_size = node_size[col_node]
    col_start = (node_size.cumsum() - node_size)[col_node]
    n_cols = col_node.size

    found = [None] * len(nodes)
    parts = []  # candidates of the nodes not yet reduced
    c0 = 0
    while c0 < n_cols:
        height = int(col_size[c0])
        c1 = min(n_cols, c0 + max(1, BLOCK_CELLS // (height * k)))
        if c1 < n_cols and col_node[c1] == col_node[c1 - 1] != col_node[c0]:
            c1 = int(node_first_col[col_node[c1]])  # that node starts the next block
        at = np.arange(height)[:, None] + col_start[c0:c1]
        columns = flat_x[x_rows.take(at, mode="clip") * n_features + col_feat[c0:c1]]
        size = col_size[c0:c1]
        if size[-1] < height:
            columns[at >= col_start[c0:c1] + size] = np.nan
        pos, points, loss = _candidate_losses(columns, size, stats_rows.take(at, mode="clip"),
                                              stats, lam)
        parts.append((pos + c0, points, loss))
        if c1 == n_cols or col_node[c1] != col_node[c1 - 1]:
            cand_cols, splits, losses = (np.concatenate(part) for part in zip(*parts))
            for node, i in _first_ties(col_node[cand_cols], losses):
                found[by_size[node]] = (int(col_feat[cand_cols[i]]), float(splits[i]),
                                        float(losses[i]))
            parts = []
        c0 = c1
    return found


def _first_ties(cand_node, losses):
    """(node, candidate index) of each node's winner among candidates run by
    node, then feature, then split point: the first candidate within the tie
    tolerance of its node's minimum."""
    if losses.size == 0:
        return []
    none = losses.size
    starts = np.empty(none, dtype=bool)
    starts[0] = True
    np.not_equal(cand_node[1:], cand_node[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    minimum = np.minimum.reduceat(losses, first)
    threshold = minimum + SPLIT_TIE_TOL * np.maximum(1.0, np.abs(minimum))
    tied = np.where(losses <= threshold[starts.cumsum() - 1], np.arange(none), none)
    winners = np.minimum.reduceat(tied, first)
    winners[winners == none] = first[winners == none]  # a NaN minimum ties nothing
    return zip(cand_node[first].tolist(), winners.tolist())


def best_split(features, labels, lam: float, candidate_features=None):
    """Minimize the size-weighted hybrid child loss over all candidate splits.

    Returns (feature_index, split_point, weighted_loss), or None when no
    candidate feature has two distinct values. The candidate columns are
    scored together, BLOCK_CELLS label cells at a time.
    """
    X, Y = checked_training_data(features, labels)
    if X.shape[0] < 2:
        raise DomainError("need at least two rows to split")
    if candidate_features is None:
        candidate_features = range(X.shape[1])
    feats = np.array(sorted(int(f) for f in candidate_features), dtype=np.intp)
    if feats.size and not 0 <= feats[0] <= feats[-1] < X.shape[1]:
        raise DomainError(f"candidate features must lie in 0..{X.shape[1] - 1}")
    rows = np.arange(X.shape[0])
    return _best_splits(X, _LabelStats(Y), [(rows, rows, feats)], lam)[0]


def _hybrid_loss_is_zero(labels: np.ndarray, rank_rows: np.ndarray, lam: float) -> bool:
    """Whether the node's hybrid loss against its own labels is exactly zero.

    The regression term vanishes iff every row equals the first (testing the
    float-computed MSE would miss this: the mean of identical rows is off by
    an ulp). The ranking term vanishes iff all instance rankings are identical
    and not all-tied: identical rankings match their own Borda consensus with
    an exactly-zero spearman loss, while an all-tied ranking contributes the
    constant 0.5 and differing rankings a strictly positive term.
    """
    if lam != 1.0 and not (labels == labels[0]).all():
        return False
    if lam != 0.0:
        first = rank_rows[0]
        if (first == first[0]).all() or not (rank_rows == first).all():
            return False
    return True


def build_trees(features, targets, jobs, config: TreeConfig) -> list[Tree]:
    """Grow one hybrid tree per job, all in lockstep.

    features is n x p and targets a sequence of n x k label matrices of equal
    width k. Job (t, rows, rng) grows a tree on features[rows] and
    targets[t][rows] (rows may repeat, as in a bootstrap sample), drawing its
    feature samples from rng; the tree equals build_tree on that data with
    that generator. Only row indices are kept per tree and per node.
    """
    X, *matrices = checked_training_data(features, *targets)
    n, n_features = X.shape
    jobs = [(t, np.asarray(rows, dtype=np.intp), rng) for t, rows, rng in jobs]
    if any(rows.size == 0 for _, rows, _ in jobs):
        raise DomainError("cannot build a tree from an empty dataset")
    if any(rows.min() < 0 or rows.max() >= n for _, rows, _ in jobs):
        raise DomainError(f"a job's rows must lie in 0..{n - 1}")
    if any(not 0 <= t < len(matrices) for t, _, _ in jobs):
        raise DomainError(f"a job's target index must lie in 0..{len(matrices) - 1}")
    if not jobs:
        return []
    stats = _LabelStats(np.concatenate(matrices))
    mtry = config.resolve_features_per_split(n_features)
    every_feature = np.arange(n_features)

    def settle(slot, node: int):
        # slot: the parent's left or right list and its index (a dummy at the root)
        links, parent = slot
        links[parent] = node

    def add_leaf(leaves, slot, labels: np.ndarray, rank_rows: np.ndarray):
        # the mean label and the rank sums of the leaf's Borda consensus,
        # which is ranked with every other leaf's once the trees are grown
        regression, rank_sums, size = leaves
        settle(slot, ~len(size))
        regression.append(labels.mean(axis=0))
        rank_sums.append(rank_rows.sum(axis=0))
        size.append(labels.shape[0])

    def next_split(growth):
        """Settle the tree's nodes in preorder up to the next one to split."""
        stack, _, leaves, offset, rng = growth
        while stack:
            rows, depth, slot = stack.pop()
            srows = rows + offset
            labels, rank_rows = stats.labels[srows], stats.rank_rows[srows]
            if depth >= config.max_depth or rows.size < config.min_samples_split \
                    or _hybrid_loss_is_zero(labels, rank_rows, config.lam):
                add_leaf(leaves, slot, labels, rank_rows)
                continue
            if mtry < n_features:
                candidates = np.sort(rng.choice(n_features, size=mtry, replace=False))
            else:
                candidates = every_feature
            return rows, srows, depth, slot, candidates
        return None

    # per tree: open nodes (rows, depth, slot), split node lists, leaf lists,
    # stats row offset and rng
    growths = [([(rows, 0, ([0], 0))], ([], [], [], []), ([], [], []), t * n, rng)
               for t, rows, rng in jobs]
    open_nodes = [(growth, node) for growth in growths
                  if (node := next_split(growth)) is not None]
    while open_nodes:
        found = _best_splits(X, stats, [(rows, srows, feats) for _, (rows, srows, _, _, feats)
                                        in open_nodes], config.lam)
        for ((stack, splits, leaves, _, _), (rows, srows, depth, slot, _)), split \
                in zip(open_nodes, found):
            if split is None:
                add_leaf(leaves, slot, stats.labels[srows], stats.rank_rows[srows])
                continue
            f, point, _ = split
            feature, points, left_ids, right_ids = splits
            node = len(feature)
            settle(slot, node)
            feature.append(f)
            points.append(point)
            left_ids.append(0)   # both children are settled, and patched in, later
            right_ids.append(0)
            left = X[rows, f] <= point
            stack.append((rows[~left], depth + 1, (right_ids, node)))
            stack.append((rows[left], depth + 1, (left_ids, node)))
        open_nodes = [(growth, node) for growth, _ in open_nodes
                      if (node := next_split(growth)) is not None]
    leaves = [leaf_lists for _, _, leaf_lists, _, _ in growths]
    rankings = rank_vector(np.array([sums for _, rank_sums, _ in leaves for sums in rank_sums]))
    per_tree = np.split(rankings, np.cumsum([len(size) for _, _, size in leaves])[:-1])
    return [Tree(*splits, np.array(regression), ranking.copy(), size)
            for (_, splits, _, _, _), (regression, _, size), ranking
            in zip(growths, leaves, per_tree)]


def build_tree(features, labels, config: TreeConfig, rng: np.random.Generator) -> Tree:
    """Grow one hybrid tree.

    A node becomes a leaf when it reaches max_depth, holds fewer than
    min_samples_split rows, already has zero hybrid loss, or no candidate
    feature offers a valid split. Each split searches a fresh uniform sample
    (without replacement) of features_per_split features.
    """
    return build_trees(features, [labels], [(0, np.arange(len(features)), rng)], config)[0]
