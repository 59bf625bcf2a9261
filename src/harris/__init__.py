"""Per-instance algorithm selection with hybrid ranking-regression forests."""

__version__ = "0.1.0"

from .baselines import (ClusterSelector, HarrisSelector, OracleSelector,
                        PairwiseVotingSelector, RegressionForestSelector,
                        Selector, SingleBestSelector)
from .errors import (ConsistencyError, DomainError, EmptyScenarioError,
                     ModelFormatError, ParseError, UndefinedMetric)
from .evaluation import (AggregateRecord, FoldRecord, average_rank, cross_validate,
                         read_report_csv, sweep, write_report_csv)
from .forest import (ForestConfig, HybridForest, fit_forest, load_forest,
                     predict_costs, save_forest, select_algorithm,
                     single_tree_config)
from .labels import NodeLabels, borda_consensus, mean_label, node_labels
from .losses import (Ranking, kendall_tau_b, mse_loss, node_loss, rank_vector,
                     spearman_loss)
from .scenario import (ScaleParams, Scenario, column_medians, filter_unsolved,
                       impute_features, par10, par10_matrix, parse_scenario,
                       scale_performances)
from .synthetic import make_synthetic_scenario
from .tree import Internal, Leaf, TreeConfig, TreeNode, best_split, build_tree, predict_leaf

__all__ = [name for name in dir() if not name.startswith("_")]
