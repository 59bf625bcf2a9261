"""Per-instance algorithm selection with hybrid ranking-regression forests."""

__version__ = "0.1.0"

from .baselines import (ClusterSelector, HarrisSelector, OracleSelector,
                        PairwiseVotingSelector, RegressionForestSelector,
                        Selector, SingleBestSelector)
from .errors import (ConsistencyError, DomainError, EmptyScenarioError,
                     ModelFormatError, ParseError, UndefinedMetric)
from .evaluation import (ReportRow, average_rank, cross_validate, cross_validate_cells,
                         read_report_csv, sweep, write_report_csv)
from .forest import (ForestConfig, HybridForest, fit_forest, load_forest,
                     predict_costs, save_forest, select_algorithm,
                     single_tree_config)
from .losses import Ranking, kendall_tau_b, rank_vector
from .scenario import (ScaleParams, Scenario, column_medians, filter_unsolved,
                       impute_features, par10_matrix, parse_scenario,
                       scale_performances)
from .synthetic import make_synthetic_scenario
from .tree import Tree, TreeConfig, best_split, build_tree

__all__ = [name for name in dir() if not name.startswith("_")]
