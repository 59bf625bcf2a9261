"""Hybrid ranking-and-regression decision trees.

A tree is grown by recursive binary splitting. Split search enumerates every
candidate feature and every midpoint between consecutive distinct feature
values, scoring each candidate by the size-weighted hybrid loss of the two
children with both children's labels (mean vector and Borda consensus)
recomputed on that side. Rows with feature value <= split point go left.
A node's candidate columns are scored in one pass: one column-wise sort,
prefix sums over the sorted rows, and the losses of every real split point
of every column at once (in blocks of BLOCK_CELLS label cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .labels import NodeLabels
from .losses import rank_vector

# Candidate losses within this (relative above 1) tolerance of the minimum
# count as tied; ties resolve to the lowest feature index, then the lowest
# split point. Distinct split losses on unit-scaled labels sit far above
# this gap, so only mathematical ties are merged.
SPLIT_TIE_TOL = 1e-10

# Split search scores a node's candidate columns in blocks of at most this
# many n x columns x k label cells, which bounds its scratch memory.
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class TreeConfig:
    lam: float = 0.5                      # weight of the ranking loss
    max_depth: int = 6
    min_samples_split: int = 2
    features_per_split: Union[int, str] = "all"  # int, "all", or "sqrt"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.max_depth < 0:
            raise DomainError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise DomainError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if isinstance(self.features_per_split, str):
            if self.features_per_split not in ("all", "sqrt"):
                raise DomainError(f"features_per_split must be an int, 'all' or 'sqrt'")
        elif self.features_per_split < 1:
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


@dataclass(frozen=True)
class Leaf:
    labels: NodeLabels
    size: int


@dataclass(frozen=True)
class Internal:
    feature_index: int
    split_point: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


class _LabelStats:
    """Per-row quantities reused by every split evaluation.

    rank_rows holds each instance's average-rank vector; unit_ranks the
    centered, unit-norm version (zero rows for all-tied instances, which
    contribute the neutral 0.5 ranking loss); sq_sums the per-row sum of
    squared costs for the regression term.
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

    def subset(self, idx: np.ndarray) -> "_LabelStats":
        sub = _LabelStats.__new__(_LabelStats)
        sub.labels = self.labels[idx]
        sub.rank_rows = self.rank_rows[idx]
        sub.unit_ranks = self.unit_ranks[idx]
        sub.sq_sums = self.sq_sums[idx]
        return sub


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


def _candidate_losses(columns, stats: _LabelStats, lam: float):
    """All candidate splits of an n x m block of feature columns.

    Returns (column positions, split points, losses), ordered by column, then
    by split point; empty when every column is constant. Each column is
    sorted once and losses come from prefix sums over its sorted rows, read
    only at real split points; children's labels are implicit (mean vector
    for the regression term, Borda consensus for the ranking term).
    """
    order = np.argsort(columns, axis=0, kind="stable")
    xs = np.take_along_axis(columns, order, axis=0)
    feat, sel = np.nonzero((xs[1:] > xs[:-1]).T)  # sel + 1 rows go left
    splits = (xs[sel, feat] + xs[sel + 1, feat]) / 2.0

    n = columns.shape[0]
    k = stats.labels.shape[1]
    nl = (sel + 1).astype(float)
    nr = n - nl

    reg_left = reg_right = 0.0
    if lam != 1.0:
        col_cum = np.cumsum(stats.labels[order], axis=0)
        sq_cum = np.cumsum(stats.sq_sums[order], axis=0)
        sums_left = col_cum[sel, feat]
        sums_right = col_cum[-1, feat] - sums_left
        sq_left = sq_cum[sel, feat]
        sq_right = sq_cum[-1, feat] - sq_left
        # mean over side of per-row MSE against the side mean; clamp the
        # cancellation residue of mathematically zero losses
        reg_left = np.maximum(sq_left - (sums_left ** 2).sum(axis=1) / nl, 0.0) / (nl * k)
        reg_right = np.maximum(sq_right - (sums_right ** 2).sum(axis=1) / nr, 0.0) / (nr * k)

    rank_left = rank_right = 0.0
    if lam != 0.0:
        rank_cum = np.cumsum(stats.rank_rows[order], axis=0)
        unit_cum = np.cumsum(stats.unit_ranks[order], axis=0)
        rank_sel, unit_sel = rank_cum[sel, feat], unit_cum[sel, feat]
        rank_left = _ranking_means(rank_sel, unit_sel, nl, k)
        rank_right = _ranking_means(rank_cum[-1, feat] - rank_sel,
                                    unit_cum[-1, feat] - unit_sel, nr, k)

    left_loss = lam * rank_left + (1.0 - lam) * reg_left
    right_loss = lam * rank_right + (1.0 - lam) * reg_right
    return feat, splits, (nl / n) * left_loss + (nr / n) * right_loss


def best_split(features, labels, lam: float, candidate_features=None,
               _stats: Optional[_LabelStats] = None):
    """Minimize the size-weighted hybrid child loss over all candidate splits.

    Returns (feature_index, split_point, weighted_loss), or None when no
    candidate feature has two distinct values. The candidate columns are
    scored together, BLOCK_CELLS label cells at a time.
    """
    X = np.asarray(features, dtype=float)
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DomainError("features and labels must have matching row counts")
    if X.shape[0] < 2:
        raise DomainError("need at least two rows to split")
    if candidate_features is None:
        candidate_features = range(X.shape[1])
    stats = _stats if _stats is not None else _LabelStats(Y)

    feats = np.array(sorted(int(f) for f in candidate_features), dtype=np.intp)
    width = max(1, BLOCK_CELLS // (Y.shape[0] * Y.shape[1]))
    owners, splits, losses = [], [], []
    for start in range(0, feats.size, width):
        pos, points, loss = _candidate_losses(X[:, feats[start:start + width]], stats, lam)
        owners.append(feats[start + pos])
        splits.append(points)
        losses.append(loss)
    if not any(loss.size for loss in losses):
        return None

    losses = np.concatenate(losses)
    minimum = float(losses.min())
    # candidates run by feature, then split point: the first tie is the lowest
    i = int(np.argmax(losses <= minimum + SPLIT_TIE_TOL * max(1.0, abs(minimum))))
    return int(np.concatenate(owners)[i]), float(np.concatenate(splits)[i]), float(losses[i])


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


def build_tree(features, labels, config: TreeConfig, rng: np.random.Generator) -> TreeNode:
    """Grow one hybrid tree.

    A node becomes a leaf when it reaches max_depth, holds fewer than
    min_samples_split rows, already has zero hybrid loss, or no candidate
    feature offers a valid split. Each split searches a fresh uniform sample
    (without replacement) of features_per_split features.
    """
    X = np.asarray(features, dtype=float)
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if X.shape[0] == 0:
        raise DomainError("cannot build a tree from an empty dataset")
    stats = _LabelStats(Y)
    n_features = X.shape[1]
    mtry = config.resolve_features_per_split(n_features)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        sub_labels = Y[idx]
        sub_ranks = stats.rank_rows[idx]

        def leaf() -> Leaf:
            # same floats as labels.node_labels(sub_labels), reusing cached ranks
            return Leaf(NodeLabels(regression=sub_labels.mean(axis=0),
                                   ranking=rank_vector(sub_ranks.sum(axis=0))), idx.size)

        if depth >= config.max_depth or idx.size < config.min_samples_split:
            return leaf()
        if _hybrid_loss_is_zero(sub_labels, sub_ranks, config.lam):
            return leaf()
        if mtry < n_features:
            candidates = rng.choice(n_features, size=mtry, replace=False)
        else:
            candidates = np.arange(n_features)
        found = best_split(X[idx], sub_labels, config.lam, candidates,
                           _stats=stats.subset(idx))
        if found is None:
            return leaf()
        f, point, _ = found
        mask = X[idx, f] <= point
        return Internal(
            feature_index=f,
            split_point=point,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )

    return grow(np.arange(X.shape[0]), 0)


def predict_leaf(tree: TreeNode, row) -> NodeLabels:
    """Route an instance down the tree (<= goes left) to its leaf labels.

    A row that is not a list is first converted to a list of floats, which
    index and compare faster than numpy scalars; to route one row down many
    trees, convert it once and pass the list.
    """
    if not isinstance(row, list):
        row = np.asarray(row, dtype=float).tolist()
    node = tree
    while isinstance(node, Internal):
        node = node.left if row[node.feature_index] <= node.split_point else node.right
    return node.labels


def tree_depth(tree: TreeNode) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))
