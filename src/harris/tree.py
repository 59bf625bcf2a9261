"""Hybrid ranking-and-regression decision trees.

A tree is grown by binary splitting. Split search enumerates every candidate
feature and every midpoint between consecutive distinct feature values a < b
(a itself where the midpoint rounds up onto b), scoring each candidate by the
size-weighted hybrid loss of the two children with both children's labels
(mean vector and Borda consensus) recomputed on that side. Rows with feature
value <= split point go left. Every fit checks its data with
checked_training_data: n x p features, n x k targets, n, p, k >= 1, all finite.

build_trees grows many trees in lockstep, level by level, as depth-wise
boosting libraries do: each depth scores the candidate columns of every open
node of every tree in one pass, so a fit makes at most max_depth passes. Every
pass reads the fit's one search state (_SplitSearch): X, the stacked targets,
lambda, their stats matrix and X's rank table. Stats row r is row r % n of X
under target r // n, so growth moves one array of stats rows. The columns go
in blocks of BLOCK_CELLS label cells, one contiguous row per column: one
row-wise sort, one prefix sum of the stats rows along the sorted entries, and
the losses of every real split point of every column at once. The sort is of
integer keys, not floats: an entry's key is its value's rank in its column,
from the rank table (read at offsets computed once per pass), then its index
in its row. The stats rows are gathered level-major, entry i of every column
in one row, and summed by one in-place vector add per row; a block narrower
than ROW_ADD_WIDTH stats entries a row takes one cumsum down its rows
instead, with the same additions in the same order. A candidate is kept as its
position in its block; split points are computed only for each node's winner,
from the values at its entries in the block that holds it. Leaf checks run for
a whole level in one comparison of each node's stats rows with its first row,
and leaf labels are reduced once at the end, grouped by leaf size. Each tree
keeps its nodes in the order they grew: by depth, then left to right. A
sampled tree draws one array of uniforms per level from its own generator, one
row per open node, so its draws depend neither on the build order nor on the
trees grown beside it, and a deep tree cut at depth d is the depth-d tree,
whose feature and split lists, and leaves above depth d, are prefixes of the
deep tree's. The trees come back to back in one Tree table, each with its own
ids. best_split and build_tree are the one-node and one-tree cases. A leaf
keeps its mean cost vector and its size: the Borda consensus scores splits,
and prediction reads only the mean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .losses import rank_vector, real_array

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

# A block whose rows hold at least this many stats entries (columns x stats
# columns) forms its prefix sums by one vector add per row; a narrower block,
# a tall node alone or the short last block of a pass, by one cumsum down its
# rows. Timed on single full blocks (one core, numpy 2.4), the row adds took
# 8.6x the cumsum's time at 25 entries a row, 1.2x at 200, 0.96x at 250,
# 0.84x at 300 and 0.65x at 400 (25 stats columns); with 16 stats columns
# 1.2x at 192 and 0.84x at 256; with 9, 1.4x at 288 and 0.81x at 432.
ROW_ADD_WIDTH = 256


def checked_int(name: str, value) -> int:
    """value as an int; a bool or a value that is not an integer raises
    DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_training_data(features, *targets) -> list[np.ndarray]:
    """[X, *Ys]: n x p features and one or more n x k targets of one width k
    as float matrices; DomainError unless n, p, k >= 1 and every entry is a
    finite real number."""
    arrays = [np.ascontiguousarray(real_array(a, "training data"))
              for a in (features, *targets)]
    shapes = [a.shape for a in arrays]
    if any(len(s) != 2 or 0 in s for s in shapes) or len({s[0] for s in shapes}) > 1 \
            or len({s[1] for s in shapes[1:]}) != 1:  # no targets, or targets of two widths
        raise DomainError(f"training data must be n x p features and n x k targets, "
                          f"n, p, k >= 1; got shapes {shapes}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError("training data must be finite (impute missing values first)")
    return arrays


def checked_query_row(x, n_features: int) -> list[float]:
    """x as a list of floats; DomainError unless it is one row of n_features
    finite real numbers. Strings are parsed as float() parses them."""
    try:
        row = real_array(x, "features")
    except DomainError:
        raise DomainError(f"features are not numeric: {x!r}") from None
    if row.shape != (n_features,):
        got = row.size if row.ndim == 1 else f"shape {row.shape}"
        raise DomainError(f"expected {n_features} features, got {got}")
    if not np.isfinite(row).all():
        raise DomainError("feature vectors must be finite (impute missing values first)")
    return row.tolist()


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
    features_per_split: Union[int, str] = "all"  # int, "all", or "sqrt"

    def __post_init__(self):
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise DomainError(f"lambda must be a number, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "max_depth", checked_int("max_depth", self.max_depth))
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.max_depth < 0:
            raise DomainError(f"max_depth must be >= 0, got {self.max_depth}")
        if isinstance(self.features_per_split, str):
            if self.features_per_split not in ("all", "sqrt"):
                raise DomainError("features_per_split must be an int, 'all' or 'sqrt', "
                                  f"got {self.features_per_split!r}")
        else:
            object.__setattr__(self, "features_per_split",
                               checked_int("features_per_split", self.features_per_split))
            if self.features_per_split < 1:
                raise DomainError("features_per_split must be >= 1, "
                                  f"got {self.features_per_split!r}")

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
    """Fitted trees back to back, as parallel lists over their split nodes and
    their leaves, each tree's in level order (by depth, then left to right),
    with its own ids: tree t has splits[t] split nodes and splits[t] + 1 leaves.

    A tree's split node i sends a row left when row[feature[i]] <= split[i].
    A child id c >= 0 (in left[i] or right[i]) is its split node c; c < 0 is
    its leaf ~c. Its root is split node 0, or leaf 0 (id -1) if it has no
    splits. Leaf j holds the mean cost vector regression[j] (leaves x k) and
    its training size size[j]. table[t] and table[a:b] are tables of tree t
    and of trees a to b - 1, with no id changed; a table iterates its trees.
    """
    feature: list[int]
    split: list[float]
    left: list[int]
    right: list[int]
    regression: np.ndarray
    size: list[int]
    splits: list[int]

    def __len__(self) -> int:
        return len(self.splits)

    def __getitem__(self, index) -> "Tree":
        picked = range(len(self.splits))[index]  # past the end, IndexError ends iteration
        if isinstance(picked, range) and picked.step != 1:
            raise IndexError("trees are sliced with step 1")
        a, b = (picked, picked + 1) if isinstance(picked, int) else (picked.start, picked.stop)
        s0, s1 = sum(self.splits[:a]), sum(self.splits[:b])
        return Tree(self.feature[s0:s1], self.split[s0:s1], self.left[s0:s1], self.right[s0:s1],
                    self.regression[s0 + a:s1 + b], self.size[s0 + a:s1 + b], self.splits[a:b])


class _SplitSearch:
    """One fit's split-search state, read by every pass. Stats row r is row
    r % n of X under target r // n of the stacked n x k targets, labels.

    summed holds per stats row the columns split search sums over a side:
    where lam < 1, [labels | sum of squared costs] for the regression term;
    where lam > 0, then [average ranks | centered unit-norm ranks] for the
    ranking term (zero for an all-tied instance, which adds the neutral 0.5
    loss), each a function of the row's labels. table holds each entry of X
    as its dense rank among its column's distinct values (-0.0 and 0.0 share
    one) shifted left by shift, where 2**shift > largest >= any node's size.
    """

    def __init__(self, X, targets, lam: float, largest: int):
        self.X, self.lam = X, lam
        self.labels = labels = np.concatenate(targets)
        self.k = labels.shape[1]
        columns = []
        if lam != 1.0:
            columns += [labels, (labels ** 2).sum(axis=1, keepdims=True)]
        if lam != 0.0:
            ranks = rank_vector(labels)
            centered = ranks - ranks.mean(axis=1, keepdims=True)
            norms = np.sqrt((centered ** 2).sum(axis=1))
            unit = np.zeros_like(centered)
            nonzero = norms > 0
            unit[nonzero] = centered[nonzero] / norms[nonzero, None]
            columns += [ranks, unit]
        self.summed = np.concatenate(columns, axis=1)
        self.shift = largest.bit_length()
        order = X.argsort(axis=0)
        values = np.take_along_axis(X, order, axis=0)
        dense = np.zeros(X.shape, dtype=np.int64)
        np.cumsum(values[1:] > values[:-1], axis=0, out=dense[1:])
        dense <<= self.shift
        self.table = np.empty_like(dense)
        np.put_along_axis(self.table, order, dense, axis=0)


def _ranking_means(rank_sums, unit_sums, sizes, k):
    """Mean spearman loss of each side against its own Borda consensus.

    For side S with consensus ranking c: mean over rows of (1 - u_i . c_hat)/2
    where u_i is the row's unit-norm centered rank vector, which equals
    0.5 - (sum_i u_i) . c_hat / (2 |S|). A constant consensus fixes the loss
    at 0.5. Each step runs in place, in the order of
    0.5 - 0.5 * dots / sizes, so the bytes are those of the out-of-place
    expression (tests/oracles.py).
    """
    centered = rank_vector(rank_sums)
    centered -= (k + 1) / 2.0
    norms = np.sqrt((centered * centered).sum(axis=1))
    flat = norms == 0.0
    norms[flat] = 1.0
    centered /= norms[:, None]
    centered *= unit_sums
    means = centered.sum(axis=1)  # the dots
    means *= 0.5
    means /= sizes
    np.subtract(0.5, means, out=means)
    means[flat] = 0.5
    return means


def _candidate_losses(search: _SplitSearch, keys, sizes, starts, srows):
    """All candidate splits of an m x N block of sort keys, one contiguous
    row per feature column.

    Row c holds its column's sizes[c] keys first, each rank << search.shift |
    entry (the value's dense rank in its column, then the entry's index in the
    row), padded to N with a key above every real key; entry i of row c is
    entry starts[c] + i of srows, its stats row. Returns (entries, feat, at,
    losses): the entries of srows in the order of each row's sorted keys, as
    one flat array, and per candidate its row feat, the flat position at =
    feat * N + i of its lower entry (the i + 1 lowest entries go left) and its
    weighted loss, ordered by row, then by position. Keys are distinct, so the
    sort puts equal values in entry order, as a stable sort of the values
    would; it runs in place, and keys ends holding the ranks. A candidate is a
    rank rise between two real entries. Losses come from prefix sums along the
    sorted stats rows, read only at candidates, with the column's totals read
    at its own last entry; children's labels are implicit (mean vector for the
    regression term, Borda consensus for the ranking term). The stats rows are
    gathered level-major, N x m x stats columns, so that row i holds entry i of
    every column; the prefix sums are one in-place add of each row to the next
    where a row holds at least ROW_ADD_WIDTH stats entries, else one cumsum
    down the rows. Either adds each column's terms in its sorted order, so
    both give the same bytes. Candidate (feat, i) is read at row i * m + feat.
    No split point is computed here: the caller computes its winners' alone,
    from the values at their entries.
    """
    m, height = keys.shape
    shift, k, lam = search.shift, search.k, search.lam
    keys.sort(axis=1)
    entries = keys & ((1 << shift) - 1)
    entries += starts[:, None]
    rows = srows.take(entries)
    keys >>= shift
    ranks = keys.ravel()
    rises = np.empty(ranks.size, dtype=bool)
    np.greater(ranks[1:], ranks[:-1], out=rises[:-1])
    base = np.arange(0, m * height, height)
    last = base + sizes - 1  # each row's last real entry, which bounds no split
    rises[last] = False
    rises[-1] = False  # nor does the block's last entry, which np.greater skipped
    at = rises.nonzero()[0]
    feat = at // height
    sel = at - base[feat]  # sel + 1 entries go left

    # each candidate's left prefix sums, then its column's totals at its own
    # last entry, turned in place into the right side's sums
    c = sel.size
    size = sizes[feat]
    reads = np.concatenate((sel, size - 1))
    reads *= m
    reads += np.concatenate((feat, feat))
    n = size.astype(float)
    nl = (sel + 1).astype(float)
    nr = n - nl
    sides = np.concatenate((nl, nr))
    sums = search.summed.take(rows.T, axis=0)  # height x m x stats columns
    if sums[0].size < ROW_ADD_WIDTH:
        np.cumsum(sums, axis=0, out=sums)
    else:
        for i in range(1, height):
            sums[i] += sums[i - 1]
    sums = sums.reshape(height * m, -1).take(reads, axis=0)
    sums[c:] -= sums[:c]

    reg = 0.0
    if lam != 1.0:
        # mean over side of per-row MSE against the side mean; clamp the
        # cancellation residue of mathematically zero losses
        reg = np.maximum(sums[:, k] - (sums[:, :k] ** 2).sum(axis=1) / sides, 0.0) / (sides * k)
    rank = 0.0
    if lam != 0.0:  # the ranking columns are the last 2k in every layout
        rank = _ranking_means(sums[:, -2 * k:-k], sums[:, -k:], sides, k)
    loss = lam * rank + (1.0 - lam) * reg
    return entries.ravel(), feat, at, (nl / n) * loss[:c] + (nr / n) * loss[c:]


def _best_splits(search: _SplitSearch, srows, starts, sizes, feats):
    """The lowest-loss split of each node, all nodes scored together.

    Node j holds the sizes[j] stats rows of srows from starts[j] on and
    searches the sorted candidate features feats[j] (nodes x m). Returns the
    arrays (feature, split point, weighted loss) over the nodes; a node where
    no candidate feature has two distinct values gets feature -1. Columns go
    largest node first, in blocks of BLOCK_CELLS label cells, so that a block
    pads little; a block is laid out one contiguous row per column. Split
    search sorts integer keys, not floats: an entry's key is its rank from
    search.table plus its index in its column's row, and padding gets a key
    above every real key. Each stats row's offset in the flat rank table
    (its row of X times p) is computed once per pass, and a block gathers
    its keys' table positions from those offsets. A block holds whole nodes,
    or part of one node too wide for a block, and each block's entries in
    sorted order are kept until its nodes complete: their candidates are then
    reduced to one per node, and only the winners' split points are computed,
    from the values in X at the winner's two entries, read from its own block.
    """
    X, k = search.X, search.k
    n, n_features = X.shape
    flat_table = search.table.ravel()
    offsets = srows % n  # each stats row's offset in the flat rank table
    offsets *= n_features
    top = n << search.shift  # ranks lie below n
    m = feats.shape[1]
    by_size = np.argsort(-sizes, kind="stable")
    col_node = by_size.repeat(m)
    col_feat = feats[by_size].ravel()
    col_size = sizes[col_node]
    col_start = starts[col_node]
    n_cols = col_node.size

    feature = np.full(sizes.size, -1)
    point = np.full(sizes.size, np.nan)
    loss = np.full(sizes.size, np.nan)
    parts = []  # candidates of the nodes not yet reduced, and their blocks' sorted entries
    kept = 0  # the number of sorted entries in parts
    c0 = 0
    while c0 < n_cols:
        height = int(col_size[c0])
        c1 = min(n_cols, c0 + max(1, BLOCK_CELLS // (height * k)))
        if c1 < n_cols and col_node[c1] == col_node[c1 - 1] != col_node[c0]:
            c1 -= c1 % m  # that node starts the next block
        steps = np.arange(height)
        cells = offsets.take(col_start[c0:c1, None] + steps, mode="clip")  # one row per column
        cells += col_feat[c0:c1, None]
        keys = flat_table.take(cells)
        keys += steps
        size = col_size[c0:c1]
        if size[-1] < height:
            keys[steps >= size[:, None]] = top
        entries, feat, at, losses = _candidate_losses(search, keys, size, col_start[c0:c1],
                                                      srows)
        parts.append((entries, feat + c0, at + kept, losses))
        kept += entries.size
        if c1 == n_cols or col_node[c1] != col_node[c1 - 1]:
            entries, cand_cols, at, losses = (np.concatenate(part) for part in zip(*parts))
            nodes, winners = _first_ties(col_node[cand_cols], losses)
            cols = cand_cols[winners]
            feature[nodes] = col_feat[cols]
            # each winner's split point, from the values at its two entries
            # in its own block: low <= split < high, as the sides were counted
            low, high = X[srows[entries[at[winners, None] + [0, 1]]] % n, col_feat[cols, None]].T
            with np.errstate(over="ignore"):  # near the float maximum mid is inf
                mid = (low + high) / 2.0
            point[nodes] = np.where(mid < high, mid, low)
            loss[nodes] = losses[winners]
            parts, kept = [], 0
        c0 = c1
    return feature, point, loss


def _first_ties(cand_node, losses):
    """(nodes, candidate indices) of each node's winner among candidates run by
    node, then feature, then split point: the first candidate within the tie
    tolerance of its node's minimum."""
    if losses.size == 0:
        return cand_node, cand_node
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
    return cand_node[first], winners


def best_split(features, labels, lam: float, candidate_features=None):
    """Minimize the size-weighted hybrid child loss over all candidate splits.

    Returns (feature_index, split_point, weighted_loss), or None when no
    candidate feature has two distinct values. lam is checked as TreeConfig
    checks it. The candidate columns are scored together, BLOCK_CELLS label
    cells at a time.
    """
    lam = TreeConfig(lam=lam).lam
    X, Y = checked_training_data(features, labels)
    n, p = X.shape
    if n < 2:
        raise DomainError("need at least two rows to split")
    try:
        candidates = iter(range(p) if candidate_features is None else candidate_features)
    except TypeError:
        raise DomainError("candidate_features must be an iterable of integers, "
                          f"got {candidate_features!r}") from None
    feats = np.array(sorted(checked_int("candidate feature", f) for f in candidates),
                     dtype=np.intp)
    if feats.size and not 0 <= feats[0] <= feats[-1] < p:
        raise DomainError(f"candidate features must lie in 0..{p - 1}")
    feature, point, loss = _best_splits(_SplitSearch(X, [Y], lam, n), np.arange(n),
                                        np.array([0]), np.array([n]), feats[None])
    return None if feature[0] < 0 else (int(feature[0]), float(point[0]), float(loss[0]))


def _zero_hybrid_loss(search: _SplitSearch, srows, starts, sizes):
    """Per node, the sizes[j] entries of srows from starts[j] on: whether its
    hybrid loss against its own labels is exactly zero.

    Its rows' stats, functions of their labels, must equal its first row's:
    the labels (lam < 1) or rankings (lam = 1) are then all the first's
    (testing the float-computed MSE would miss this: the mean of identical
    rows is off by an ulp). Where lam > 0 the first ranking must not be
    all-tied (a zero unit-rank row): identical rankings match their own Borda
    consensus with an exactly-zero spearman loss, while an all-tied ranking
    contributes the constant 0.5 and differing rankings a positive term.
    """
    summed, firsts = search.summed, srows[starts]
    zero = np.logical_and.reduceat((summed[srows] == summed[firsts.repeat(sizes)]).all(axis=1),
                                   starts)
    if search.lam != 0.0:
        zero &= summed[firsts, -search.k:].any(axis=1)
    return zero


def _leaf_means(labels, rows, sizes):
    """labels[segment].mean(axis=0) for each segment of rows (sizes[j] rows in
    turn), bit for bit: the segments of one size are reduced together with
    the reduction that mean runs, then divided by their size."""
    starts = sizes.cumsum() - sizes
    means = np.empty((sizes.size, labels.shape[1]))
    for size in np.unique(sizes).tolist():
        group = (sizes == size).nonzero()[0]
        means[group] = np.add.reduce(labels[rows[starts[group, None] + np.arange(size)]],
                                     axis=1) / size
    return means


def _checked_job(job):
    """job as (target index, rows as a 1-D intp array, rng); DomainError
    unless it is a triple whose target index is an integer and whose rows
    form a 1-D array of integers (an empty one of any type)."""
    try:
        t, rows, rng = job
    except (TypeError, ValueError):
        raise DomainError("a job must be a (target index, rows, rng) triple") from None
    try:
        rows = np.asarray(rows)
        integers = rows.ndim == 1 and (rows.size == 0 or rows.dtype.kind in "iu")
    except ValueError:  # ragged
        integers = False
    if not integers:
        raise DomainError("a job's rows must be a 1-D array of integers")
    return checked_int("a job's target index", t), rows.astype(np.intp), rng


def build_trees(features, targets, jobs, config: TreeConfig) -> Tree:
    """Grow one hybrid tree per job, all in lockstep, level by level, into one table.

    features is n x p and targets a sequence of n x k label matrices of equal
    width k. Job j, (t, rows, rng), grows tree j of the table on features[rows]
    and targets[t][rows] (rows may repeat, as in a bootstrap sample), drawing
    its feature samples from rng; the tree equals build_tree on that data with
    that generator. Only row indices are kept per tree and per node. A job
    that is not such a triple, a target index that is not an integer, and
    rows that are not a 1-D array of integers (fractions are not truncated)
    raise DomainError.

    Each depth scores every open node of every tree in one _best_splits pass,
    so a call makes at most max_depth passes. A node keeps its rows in job
    order; a sampled tree draws rng.random((its open nodes at this depth, p))
    and open node i, counted left to right, searches the sorted mtry features
    of the stable argsort of row i. A tree grown to depth D and cut at d is
    the tree grown to depth d, and no tree depends on its lockstep partners.
    """
    X, *matrices = checked_training_data(features, *targets)
    n, n_features = X.shape
    jobs = [_checked_job(job) for job in jobs]
    if any(rows.size == 0 for _, rows, _ in jobs):
        raise DomainError("cannot build a tree from an empty dataset")
    if any(rows.min() < 0 or rows.max() >= n for _, rows, _ in jobs):
        raise DomainError(f"a job's rows must lie in 0..{n - 1}")
    if any(not 0 <= t < len(matrices) for t, _, _ in jobs):
        raise DomainError(f"a job's target index must lie in 0..{len(matrices) - 1}")
    if not jobs:
        return Tree([], [], [], [], np.empty((0, matrices[0].shape[1])), [], [])
    search = _SplitSearch(X, matrices, config.lam, max(rows.size for _, rows, _ in jobs))
    mtry = config.resolve_features_per_split(n_features)

    # the level being grown: per node its job, size and id; its stats rows
    # run node after node. Ids count nodes level by level.
    node_job = np.arange(len(jobs))
    sizes = np.array([rows.size for _, rows, _ in jobs])
    srows = np.concatenate([rows + t * n for t, rows, _ in jobs])
    levels = []  # per level: node jobs, features (-1 at a leaf), split points, left child ids
    leaf_parts = []  # per level: its leaves' stats rows and sizes
    n_nodes = 0
    while sizes.size:
        starts = sizes.cumsum() - sizes
        feature = np.full(sizes.size, -1)
        point = np.zeros(sizes.size)
        grow = np.zeros(0, dtype=np.intp)  # the nodes to search
        if len(levels) < config.max_depth:
            grow = ((sizes >= 2) & ~_zero_hybrid_loss(search, srows, starts, sizes)).nonzero()[0]
        if grow.size:
            if mtry < n_features:
                counts = np.bincount(node_job[grow], minlength=len(jobs)).tolist()
                draws = np.concatenate([jobs[j][2].random((count, n_features))
                                        for j, count in enumerate(counts) if count])
                feats = np.sort(draws.argsort(axis=1, kind="stable")[:, :mtry], axis=1)
            else:
                feats = np.broadcast_to(np.arange(n_features), (grow.size, n_features))
            feature[grow], point[grow], _ = _best_splits(search, srows, starts[grow], sizes[grow],
                                                         feats)
        split = feature >= 0
        left = np.full(sizes.size, -1)
        left[split] = n_nodes + sizes.size + 2 * np.arange(split.sum())
        levels.append((node_job, feature, point, left))
        in_leaf = np.repeat(~split, sizes)
        leaf_parts.append((srows[in_leaf], sizes[~split]))
        n_nodes += sizes.size

        # each split node's rows, left side then right, make its two children
        row_node = np.repeat(np.arange(sizes.size), sizes)[~in_leaf]
        srows = srows[~in_leaf]
        child = 2 * np.repeat(np.arange(split.sum()), sizes[split]) \
            + ~(X[srows % n, feature[row_node]] <= point[row_node])
        srows = srows[child.argsort(kind="stable")]
        sizes = np.bincount(child, minlength=2 * split.sum())
        node_job = node_job[split].repeat(2)
    return _level_order_trees(levels, leaf_parts, search.labels, len(jobs))


def _level_order_trees(levels, leaf_parts, labels, n_jobs) -> Tree:
    """The table of the jobs' trees from the levels build_trees grew, each
    tree's split nodes and leaves in level order.

    build_trees numbers nodes level by level and, within a level, tree by
    tree, so a stable sort by job puts each tree's nodes in its own level
    order; a node's id in its tree is its rank among that tree's split nodes,
    or ~rank among its leaves.
    """
    node_job, feature, point, left = (np.concatenate(part) for part in zip(*levels))
    leaf_rows, leaf_sizes = (np.concatenate(part) for part in zip(*leaf_parts))
    splits, leaves = (feature >= 0).nonzero()[0], (feature < 0).nonzero()[0]
    splits = splits[np.argsort(node_job[splits], kind="stable")]
    by_tree = np.argsort(node_job[leaves], kind="stable")  # leaf_rows run in id order
    leaves = leaves[by_tree]
    split_job, leaf_job = node_job[splits], node_job[leaves]
    code = np.empty(feature.size, dtype=np.intp)  # a node's id in its tree
    code[splits] = np.arange(splits.size) - split_job.searchsorted(split_job)
    code[leaves] = ~(np.arange(leaves.size) - leaf_job.searchsorted(leaf_job))
    return Tree(feature[splits].tolist(), point[splits].tolist(), code[left[splits]].tolist(),
                code[left[splits] + 1].tolist(),
                _leaf_means(labels, leaf_rows, leaf_sizes)[by_tree], leaf_sizes[by_tree].tolist(),
                np.bincount(split_job, minlength=n_jobs).tolist())


def build_tree(features, labels, config: TreeConfig, rng: np.random.Generator) -> Tree:
    """Grow one hybrid tree.

    A node becomes a leaf when it reaches max_depth, holds one row, already
    has zero hybrid loss, or no candidate feature offers a valid split. Each
    split searches a uniform sample (without replacement) of
    features_per_split features, drawn as build_trees draws it.
    """
    return build_trees(features, [labels], [(0, np.arange(len(features)), rng)], config)
