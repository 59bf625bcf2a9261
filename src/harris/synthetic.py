"""Seeded synthetic scenarios for end-to-end runs without benchmark data.

The generated scenario is oracle-separable: the index of the best algorithm
is a step function of feature 0 alone. Feature 0 takes values from a fixed
grid (three levels per group) so that learned split thresholds always fall
inside the gaps between groups; the remaining features are uniform noise.
Cost bands are disjoint across ranks, which makes every instance's ranking
strict and constant within a group. Every draw comes from one stream,
tree.seed_sequence(seed, 0x53594E).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .scenario import N_FOLDS, Scenario
from .tree import checked_int, seed_sequence


def make_synthetic_scenario(n_instances: int = 500, n_algorithms: int = 3,
                            n_features: int = 3, seed: int = 0,
                            name: str = "synthetic") -> Scenario:
    """Build the oracle-separable fixture scenario.

    Group g (chosen by feature 0) has best algorithm g with cost in
    [50, 70]; the algorithm ranked r places in [300r, 300r + 50]. All runs
    finish, the cutoff clears the worst band, and folds 1..10 are assigned
    round-robin within each group so every fold sees every group.
    """
    k = checked_int("n_algorithms", n_algorithms)
    n = checked_int("n_instances", n_instances)
    p = checked_int("n_features", n_features)
    if n < N_FOLDS * k:
        raise DomainError(f"need at least {N_FOLDS * k} instances for stratified folds")
    if k < 2 or p < 1:
        raise DomainError("need k >= 2 algorithms and p >= 1 features")

    rng = np.random.default_rng(seed_sequence(seed, 0x53594E))
    group = rng.integers(0, k, size=n)
    # three grid levels per group, always clear of the group boundaries
    level = rng.integers(0, 3, size=n)
    x0 = (group + 0.2 + 0.3 * level) / k

    features = rng.uniform(0.0, 1.0, size=(n, p))
    features[:, 0] = x0

    performances = np.empty((n, k), dtype=float)
    for rank in range(k):
        algo = (group + rank) % k
        base = 50.0 if rank == 0 else 300.0 * rank
        span = 20.0 if rank == 0 else 50.0
        performances[np.arange(n), algo] = base + span * rng.uniform(0.0, 1.0, size=n)

    cutoff = 300.0 * k + 200.0
    run_ok = np.ones((n, k), dtype=bool)

    fold_of = np.zeros(n, dtype=int)
    for g in range(k):
        members = np.nonzero(group == g)[0]
        members = members[rng.permutation(members.size)]
        fold_of[members] = 1 + np.arange(members.size) % N_FOLDS

    return Scenario(
        name=name,
        algorithm_names=tuple(f"algo_{j}" for j in range(k)),
        feature_names=tuple(f"f{j}" for j in range(p)),
        features=features,
        performances=performances,
        run_ok=run_ok,
        cutoff=cutoff,
        fold_of=fold_of,
        instance_ids=tuple(f"inst_{i}" for i in range(n)),
    )
