"""Node labels: mean cost vector and Borda consensus ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .losses import Ranking, rank_vector


@dataclass(frozen=True)
class NodeLabels:
    regression: np.ndarray  # componentwise mean of the node's cost vectors
    ranking: Ranking        # Borda consensus over the node's instance rankings


def _as_label_matrix(labels) -> np.ndarray:
    Y = np.atleast_2d(np.asarray(labels, dtype=float))
    if Y.shape[0] == 0:
        raise DomainError("labels of an empty dataset are undefined")
    return Y


def mean_label(labels) -> np.ndarray:
    """Componentwise arithmetic mean of the cost vectors."""
    return _as_label_matrix(labels).mean(axis=0)


def borda_consensus(labels) -> Ranking:
    """Borda consensus: rank algorithms by their summed per-instance ranks.

    The lowest rank total wins consensus rank 1; tied totals share averaged
    ranks, so the consensus is itself a valid (possibly fractional) ranking.
    """
    return rank_vector(rank_vector(_as_label_matrix(labels)).sum(axis=0))


def node_labels(labels) -> NodeLabels:
    Y = _as_label_matrix(labels)
    return NodeLabels(regression=mean_label(Y), ranking=borda_consensus(Y))
