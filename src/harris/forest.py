"""Bagged ensembles of hybrid trees.

Each tree draws its RNG stream from tree.seed_sequence(seed, tree_number):
first its bootstrap rows, then one array of feature draws per depth level,
so forests are reproducible no matter in which order or beside which trees
they are built. fit_forests grows every tree of several forests on one
feature matrix in one tree.build_trees lockstep, level by level; each tree
keeps only its bootstrap row indices, and each forest holds its slice of
the one tree.Tree table that build_trees returns. A forest derives, in one
vectorized shift of the table's ids, a routing table over the split nodes
of all its trees; prediction walks it from each tree's root and averages
the table's leaf rows it reaches, gathered with one take. A model file holds
each tree's slice of the table as the plain dump of its lists, checked on
load without recursion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import DomainError, ModelFormatError
from .scenario import ScaleParams, decoding_errors_as
from .tree import Tree, TreeConfig, build_trees, checked_int, checked_training_data, seed_sequence

MODEL_FORMAT = "harris-forest"
MODEL_VERSION = 3


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "seed"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        if not isinstance(self.bootstrap, bool):
            raise DomainError(f"bootstrap must be True or False, got {self.bootstrap!r}")
        if self.n_trees < 1:
            raise DomainError(f"n_trees must be >= 1, got {self.n_trees}")


def single_tree_config(lam: float, max_depth: int, seed: int = 0) -> ForestConfig:
    """One unbagged tree searching every feature: plain recursive splitting
    with no ensemble randomness (the --paper-tree CLI preset)."""
    return ForestConfig(
        n_trees=1,
        tree=TreeConfig(lam=lam, max_depth=max_depth, features_per_split="all"),
        bootstrap=False,
        seed=seed,
    )


@dataclass(frozen=True)
class HybridForest:
    """A fitted forest: one tree.Tree table of its trees, and the routing table
    derived from it, the one place where tree ids become forest-wide."""
    trees: Tree
    config: ForestConfig
    scale: ScaleParams
    algorithm_names: tuple[str, ...]
    n_features: int
    # derived, not stored in the model file:
    # every tree's regression leaf labels, trees.regression itself
    leaf_rows: np.ndarray = field(init=False, repr=False, compare=False)
    # one (feature, split, left, right) per split node of every tree, with
    # forest-wide ids: a child c >= 0 is route[c], a child c < 0 is the leaf
    # in row ~c of leaf_rows
    route: tuple[tuple[int, float, int, int], ...] = field(init=False, repr=False,
                                                           compare=False)
    # each tree's root id in route; a one-leaf tree's root is ~(its leaf row)
    roots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # tree t's split node c is route[first[t] + c], and its leaf ~c is row
        # first[t] + t + ~c of leaf_rows (each tree before it has one more
        # leaf than split nodes), stored as c - (first[t] + t)
        splits = np.array(self.trees.splits, dtype=np.intp)
        first = splits.cumsum() - splits
        leaf_first = first + np.arange(splits.size)
        children = np.array([self.trees.left, self.trees.right], dtype=np.intp)
        children += np.where(children >= 0, first.repeat(splits), -leaf_first.repeat(splits))
        object.__setattr__(self, "leaf_rows", self.trees.regression)
        object.__setattr__(self, "route", tuple(zip(self.trees.feature, self.trees.split,
                                                    *children.tolist())))
        object.__setattr__(self, "roots", tuple(np.where(splits > 0, first, ~leaf_first).tolist()))


def fit_forest(features, labels, config: ForestConfig, *,
               scale: ScaleParams | None = None,
               algorithm_names=None) -> HybridForest:
    """Fit config.n_trees hybrid trees on (features, labels).

    With bootstrap, tree t trains on a size-n sample drawn with replacement
    from its own (seed, t) stream; otherwise every tree sees the full data
    and trees differ only through feature subsampling. scale and
    algorithm_names are bookkeeping for reporting in original units.
    """
    return fit_forests(features, [labels], [config], scale=scale,
                       algorithm_names=algorithm_names)[0]


def fit_forests(features, targets, configs, *, scale: ScaleParams | None = None,
                algorithm_names=None) -> list[HybridForest]:
    """fit_forest(features, targets[i], configs[i]) for every i, with all trees
    of all forests grown together. The configs may differ in everything but
    their tree config; the targets must have equal widths."""
    X, *labels = checked_training_data(features, *targets)
    n = X.shape[0]
    if len(labels) != len(configs) or any(c.tree != configs[0].tree for c in configs):
        raise DomainError("forests fitted together need one target each and one tree config")
    if scale is None:
        scale = ScaleParams(min=0.0, max=1.0)

    jobs = []
    for target, config in enumerate(configs):
        for tree_number in range(1, config.n_trees + 1):
            rng = np.random.default_rng(seed_sequence(config.seed, tree_number))
            rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
            jobs.append((target, rows, rng))
    trees = build_trees(X, labels, jobs, configs[0].tree)
    return [
        HybridForest(
            trees=trees[end - config.n_trees:end],
            config=config,
            scale=scale,
            algorithm_names=tuple(algorithm_names if algorithm_names is not None
                                  else (f"algo_{j}" for j in range(Y.shape[1]))),
            n_features=X.shape[1],
        )
        for Y, config, end in zip(labels, configs, accumulate(c.n_trees for c in configs))
    ]


def predict_costs(forest: HybridForest, x) -> np.ndarray:
    """Mean of the trees' regression leaf labels for one instance.

    A row that is not a list is first converted to a list of floats; to ask
    many forests about one row, convert it once and pass the list. A check of
    the row would cost a noticeable share of a served selection, so callers
    check it: every selector and `harris predict` use tree.checked_query_row.
    """
    row = x if isinstance(x, list) else np.asarray(x, dtype=float).tolist()
    route = forest.route
    ids = []
    for i in forest.roots:
        while i >= 0:
            feature, split, left, right = route[i]
            i = left if row[feature] <= split else right
        ids.append(~i)
    # the reduction np.mean(leaves, axis=0) runs, without building its input
    return np.add.reduce(forest.leaf_rows.take(ids, 0), 0) / len(ids)


def select_algorithm(forest: HybridForest, x) -> int:
    """Index of the predicted-cheapest algorithm; ties go to the lowest index."""
    return int(predict_costs(forest, x).argmin())


# --- model serialization ------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON int or float: not a bool, not a string."""
    return type(value) in (int, float)


def _tree_from_dict(record: dict, n_features: int, k: int) -> tuple:
    """The lists (feature, split, left, right, regression rows, size) of the
    tree a model file record stores, checked so that routing any row ends at
    a leaf with k labels."""
    feature, split, left, right, size = (record[key] for key in
                                         ("feature", "split", "left", "right", "size"))
    if not all(isinstance(v, list) and all(type(i) is int for i in v)
               for v in (feature, left, right, size)):
        raise ModelFormatError("feature, left, right and size must be lists of integers")
    s, leaves = len(feature), len(size)
    if not len(split) == len(left) == len(right) == s or leaves != s + 1:
        raise ModelFormatError(f"feature, split, left and right need one entry per split node "
                               f"and size one more, got {s}, {len(split)}, {len(left)}, "
                               f"{len(right)} and {leaves}")
    if not (isinstance(split, list) and all(_is_number(v) and math.isfinite(v) for v in split)):
        raise ModelFormatError("split points must be finite numbers")
    split = [float(v) for v in split]
    rows = record["regression"]
    if not (isinstance(rows, list) and len(rows) == leaves
            and all(isinstance(r, list) and len(r) == k for r in rows)):
        raise ModelFormatError(f"regression must be {leaves} x {k}: "
                               f"a row per leaf, a column per algorithm name")
    if not all(_is_number(v) and math.isfinite(v) for r in rows for v in r):
        raise ModelFormatError("leaf labels must be finite numbers")
    if any(not 0 <= f < n_features for f in feature):
        raise ModelFormatError(f"feature ids must lie in 0..{n_features - 1}")
    if min(size) < 1:
        raise ModelFormatError("leaf sizes must be >= 1")
    # every node but the root is a child once, and a split node's children
    # come after it; so the ids form one tree, with no cycle
    if sorted(left + right) != [*range(-leaves, 0 if s else -1), *range(1, s)] \
            or any(0 <= c <= i for i, pair in enumerate(zip(left, right)) for c in pair):
        raise ModelFormatError("child ids must name every other node once, "
                               "split nodes after their parent")
    return feature, split, left, right, rows, size


def forest_to_dict(forest: HybridForest) -> dict:
    cfg = forest.config
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": {
            "n_trees": cfg.n_trees,
            "bootstrap": cfg.bootstrap,
            "seed": cfg.seed,
            "lambda": cfg.tree.lam,
            "max_depth": cfg.tree.max_depth,
            "features_per_split": cfg.tree.features_per_split,
        },
        "scale": {"min": forest.scale.min, "max": forest.scale.max},
        "algorithm_names": list(forest.algorithm_names),
        "n_features": forest.n_features,
        "trees": [{"feature": list(tree.feature), "split": list(tree.split),
                   "left": list(tree.left), "right": list(tree.right),
                   "regression": tree.regression.tolist(), "size": list(tree.size)}
                  for tree in forest.trees],
    }


def _config_from_dict(cfg: dict) -> ForestConfig:
    """The ForestConfig a model file stores; the configs check each field."""
    try:
        return ForestConfig(
            n_trees=cfg["n_trees"],
            bootstrap=cfg["bootstrap"],
            seed=cfg["seed"],
            tree=TreeConfig(lam=cfg["lambda"], max_depth=cfg["max_depth"],
                            features_per_split=cfg["features_per_split"]),
        )
    except DomainError as exc:
        raise ModelFormatError(f"config: {exc}") from None


def forest_from_dict(data: dict) -> HybridForest:
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a forest model file")
    if data.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {data.get('version')!r}, expected {MODEL_VERSION}"
        )
    try:
        config = _config_from_dict(data["config"])
        names, n_features, trees = data["algorithm_names"], data["n_features"], data["trees"]
        if not isinstance(names, list) or not names or not all(isinstance(a, str) for a in names):
            raise ModelFormatError("algorithm_names must be a non-empty list of names")
        if type(n_features) is not int or n_features < 1:
            raise ModelFormatError("n_features must be an integer >= 1")
        if not isinstance(trees, list) or len(trees) != config.n_trees:
            raise ModelFormatError(f"trees must be a list of n_trees = {config.n_trees} trees")
        checked = []
        for t, record in enumerate(trees):
            try:
                checked.append(_tree_from_dict(record, n_features, len(names)))
            except ModelFormatError as exc:
                raise ModelFormatError(f"tree {t}: {exc}") from None
        feature, split, left, right, rows, size = (list(chain.from_iterable(c))
                                                   for c in zip(*checked))
        bounds = data["scale"]["min"], data["scale"]["max"]
        if not all(_is_number(v) and math.isfinite(v) for v in bounds):
            raise ModelFormatError("scale min and max must be finite numbers")
        scale = ScaleParams(min=float(bounds[0]), max=float(bounds[1]))
        return HybridForest(
            trees=Tree(feature, split, left, right, np.array(rows, dtype=float), size,
                       [len(record["feature"]) for record in trees]),
            config=config,
            scale=scale,
            algorithm_names=tuple(names),
            n_features=n_features,
        )
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks the key {exc}") from None
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None


def save_forest(forest: HybridForest, path) -> None:
    Path(path).write_text(
        json.dumps(forest_to_dict(forest), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def load_forest(path) -> HybridForest:
    try:
        with decoding_errors_as(ModelFormatError, path):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    try:
        return forest_from_dict(data)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
