"""The average-rank transform and the Kendall tau-b metric.

Cost vectors are "smaller is better" throughout: the cheapest algorithm gets
rank 1. Rankings are k-vectors of average ranks, so tied costs share the mean
of the rank positions they span and every ranking sums to k(k+1)/2.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UndefinedMetric

# A ranking is a k-vector of (possibly fractional) average ranks.
Ranking = np.ndarray


def rank_vector(costs) -> Ranking:
    """Average-rank transform along the last axis; rank 1 = lowest cost.

    Ranks are counted exactly as 1 + #smaller + (#equal - 1) / 2, so tied
    costs share the mean of their positions and an n x k matrix is ranked row
    by row. NaN has no rank and raises DomainError.

    The count makes k passes, one per column, each comparing that column with
    all k columns at once; a pass costs about as much for one row as for a
    few hundred, so single rows are better ranked together in one call.
    """
    a = np.asarray(costs, dtype=float)
    if np.isnan(a).any():
        raise DomainError("cannot rank NaN costs")
    k = a.shape[-1]
    # one contiguous row per column; the transpose also reverses the other
    # axes, which is harmless as every comparison is elementwise across them
    cols = a.T.copy()
    # 1 + 2 #smaller + #equal, counted in the narrowest integer type that holds it
    twice = np.ones(cols.shape, dtype=np.min_scalar_type(2 * k + 1))
    for col in cols:
        twice += col < cols
        twice += col <= cols
    return np.true_divide(twice.T, 2.0, order="C")


def _pair_signs(v: np.ndarray) -> np.ndarray:
    """k x k matrix of sign(v_i - v_j), by comparison so infinities stay exact."""
    return (v[:, None] > v).astype(np.int64) - (v[:, None] < v)


def kendall_tau_b(r1: Ranking, r2: Ranking) -> float:
    """Kendall's tau-b between two rankings, with tie correction.

    Counts all k(k-1)/2 pairs: (concordant - discordant) over the geometric
    mean of the pairs untied in each ranking, clipped to [-1, 1]. Raises
    UndefinedMetric when either ranking is fully tied (the tie-corrected
    denominator vanishes); callers report such instances as missing.
    """
    a = np.asarray(r1, dtype=float).ravel()
    b = np.asarray(r2, dtype=float).ravel()
    if a.shape != b.shape:
        raise DomainError(f"rank vectors differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise DomainError("need at least two algorithms to compare rankings")
    if np.isnan(a).any() or np.isnan(b).any():
        raise UndefinedMetric("tau-b is undefined for rankings holding NaN")
    sa, sb = _pair_signs(a), _pair_signs(b)
    # every unordered pair appears twice in the sign matrices
    untied_a = np.count_nonzero(sa) // 2
    untied_b = np.count_nonzero(sb) // 2
    if untied_a == 0 or untied_b == 0:
        raise UndefinedMetric("tau-b is undefined when a ranking is all-tied")
    con_minus_dis = int((sa * sb).sum()) // 2
    tau = con_minus_dis / np.sqrt(untied_a) / np.sqrt(untied_b)
    return float(min(1.0, max(-1.0, tau)))
