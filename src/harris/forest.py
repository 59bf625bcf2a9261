"""Bagged ensembles of hybrid trees.

Each tree draws its RNG stream from (seed, tree_number), so forests are
reproducible no matter in which order the trees are built. fit_forests grows
every tree of several forests on one feature matrix in one tree.build_trees
lockstep; each tree keeps only its bootstrap row indices. Prediction averages
the trees' regression leaf labels; the Borda leaf rankings stay available per
tree for diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, ModelFormatError
from .labels import NodeLabels
from .scenario import ScaleParams
from .tree import Internal, Leaf, TreeConfig, TreeNode, build_trees, predict_leaf

MODEL_FORMAT = "harris-forest"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
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
    trees: tuple[TreeNode, ...]
    config: ForestConfig
    scale: ScaleParams
    algorithm_names: tuple[str, ...]
    n_features: int


def _tree_rng(seed: int, tree_number: int) -> np.random.Generator:
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, tree_number)
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
    X = np.asarray(features, dtype=float)
    labels = [np.atleast_2d(np.asarray(Y, dtype=float)) for Y in targets]
    n = X.shape[0]
    if n == 0:
        raise DomainError("cannot fit a forest on an empty dataset")
    if len(labels) != len(configs) or any(c.tree != configs[0].tree for c in configs):
        raise DomainError("forests fitted together need one target each and one tree config")
    if scale is None:
        scale = ScaleParams(min=0.0, max=1.0)

    jobs = []
    for target, config in enumerate(configs):
        for tree_number in range(1, config.n_trees + 1):
            rng = _tree_rng(config.seed, tree_number)
            rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
            jobs.append((target, rows, rng))
    trees = iter(build_trees(X, labels, jobs, configs[0].tree))
    return [
        HybridForest(
            trees=tuple(next(trees) for _ in range(config.n_trees)),
            config=config,
            scale=scale,
            algorithm_names=tuple(algorithm_names if algorithm_names is not None
                                  else (f"algo_{j}" for j in range(Y.shape[1]))),
            n_features=X.shape[1],
        )
        for Y, config in zip(labels, configs)
    ]


def predict_costs(forest: HybridForest, x) -> np.ndarray:
    """Mean of the trees' regression leaf labels for one instance.

    A row that is not a list is first converted to a list of floats; to ask
    many forests about one row, convert it once and pass the list.
    """
    row = x if isinstance(x, list) else np.asarray(x, dtype=float).tolist()
    return np.mean([predict_leaf(tree, row).regression for tree in forest.trees], axis=0)


def select_algorithm(forest: HybridForest, x) -> int:
    """Index of the predicted-cheapest algorithm; ties go to the lowest index."""
    return int(np.argmin(predict_costs(forest, x)))


# --- model serialization ------------------------------------------------------

def _node_list(tree: TreeNode) -> list[dict]:
    nodes: list[dict] = []

    def add(node: TreeNode) -> int:
        my_id = len(nodes)
        nodes.append({})
        if isinstance(node, Leaf):
            nodes[my_id] = {
                "regression": [float(v) for v in node.labels.regression],
                "ranking": [float(v) for v in node.labels.ranking],
                "size": node.size,
            }
        else:
            left = add(node.left)
            right = add(node.right)
            nodes[my_id] = {
                "feature": node.feature_index,
                "split": node.split_point,
                "left": left,
                "right": right,
            }
        return my_id

    add(tree)
    return nodes


def _node_from_list(nodes: list[dict], index: int) -> TreeNode:
    record = nodes[index]
    if "feature" in record:
        left, right = int(record["left"]), int(record["right"])
        # _node_list numbers nodes in preorder, so children follow their parent;
        # this also rules out cycles.
        if not (index < left < len(nodes) and index < right < len(nodes)):
            raise ModelFormatError(
                f"node {index}: child ids must lie in {index + 1}..{len(nodes) - 1}"
            )
        return Internal(
            feature_index=int(record["feature"]),
            split_point=float(record["split"]),
            left=_node_from_list(nodes, left),
            right=_node_from_list(nodes, right),
        )
    return Leaf(
        labels=NodeLabels(
            regression=np.asarray(record["regression"], dtype=float),
            ranking=np.asarray(record["ranking"], dtype=float),
        ),
        size=int(record["size"]),
    )


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
            "min_samples_split": cfg.tree.min_samples_split,
            "features_per_split": cfg.tree.features_per_split,
        },
        "scale": {"min": forest.scale.min, "max": forest.scale.max},
        "algorithm_names": list(forest.algorithm_names),
        "n_features": forest.n_features,
        "trees": [_node_list(tree) for tree in forest.trees],
    }


def forest_from_dict(data: dict) -> HybridForest:
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a forest model file")
    if data.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {data.get('version')!r}, expected {MODEL_VERSION}"
        )
    try:
        cfg = data["config"]
        fps = cfg["features_per_split"]
        config = ForestConfig(
            n_trees=int(cfg["n_trees"]),
            bootstrap=bool(cfg["bootstrap"]),
            seed=int(cfg["seed"]),
            tree=TreeConfig(
                lam=float(cfg["lambda"]),
                max_depth=int(cfg["max_depth"]),
                min_samples_split=int(cfg["min_samples_split"]),
                features_per_split=fps if isinstance(fps, str) else int(fps),
            ),
        )
        return HybridForest(
            trees=tuple(_node_from_list(nodes, 0) for nodes in data["trees"]),
            config=config,
            scale=ScaleParams(min=float(data["scale"]["min"]), max=float(data["scale"]["max"])),
            algorithm_names=tuple(data["algorithm_names"]),
            n_features=int(data["n_features"]),
        )
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks the key {exc}") from None
    except (IndexError, TypeError, ValueError, RecursionError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None


def save_forest(forest: HybridForest, path) -> None:
    Path(path).write_text(
        json.dumps(forest_to_dict(forest), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def load_forest(path) -> HybridForest:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
    try:
        return forest_from_dict(data)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
