"""Cross-validation harness, lambda/depth sweeps, and rank aggregation.

Every experiment is one cross_validate_cells loop over the folds: an
evaluate's selectors and a sweep's grid cells are its cells, and they share a
fold's preprocessed arrays, read-only. PAR10 is always reported in original
seconds; selectors train on costs scaled to [0, 1]. Scaling parameters and
imputation medians are fit on the training folds only, so no test
information leaks into fitting. Kendall's tau-b is computed per test instance
between the selector's predicted costs and the true PAR10 costs (it reads only
their pairwise order, the order of their rankings), then macro-averaged over
the instances where it is defined.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .baselines import HarrisSelector, OracleSelector, Selector
from .errors import DomainError, UndefinedMetric
from .forest import ForestConfig
from .losses import kendall_tau_b, rank_vector, real_array
from .scenario import (Scenario, column_medians, impute_features, par10_matrix,
                       read_csv_rows, scale_performances)
from .tree import TreeConfig

DEFAULT_LAMBDA_GRID = tuple(i / 10 for i in range(11))
DEFAULT_DEPTH_GRID = (2, 4, 6, 8, 10)

REPORT_COLUMNS = ("scenario", "selector", "lambda", "depth", "fold", "row_type",
                  "par10", "par10_std", "tau", "tau_std", "n_instances")


@dataclass(frozen=True)
class ReportRow:
    """One report CSV row, row_type aside: a fold row has par10_std and tau_std
    None, an aggregate row (mean and sample std over folds) has fold None."""
    scenario: str
    selector: str
    lam: Optional[float]
    depth: Optional[int]
    fold: Optional[int]
    par10: float
    par10_std: Optional[float]
    tau: Optional[float]
    tau_std: Optional[float]
    n_instances: int


def cross_validate_cells(scenario: Scenario, cells: Sequence[tuple],
                         ) -> tuple[list[ReportRow], list[ReportRow]]:
    """Evaluate (selector_factory, lam, depth) cells on the scenario's folds;
    lam and depth only label a cell's rows. In every fold each cell fits a
    fresh selector, selects on the test rows, and is scored by the selected
    algorithm's PAR10 in original units plus the per-instance tau-b where
    defined. Returns the fold rows cell by cell and one aggregate per cell."""
    costs = par10_matrix(scenario)
    folds = sorted(int(f) for f in np.unique(scenario.fold_of))
    rows: list[list[ReportRow]] = [[] for _ in cells]

    for fold in folds:
        test_mask = scenario.fold_of == fold
        train_mask = ~test_mask
        if not train_mask.any():
            raise DomainError(f"fold {fold} leaves no training instances")
        medians = column_medians(scenario.features[train_mask])
        train_features = impute_features(scenario.features[train_mask], medians)
        test_features = impute_features(scenario.features[test_mask], medians)
        scaled_train, _ = scale_performances(costs[train_mask])
        for shared in (train_features, test_features, scaled_train):
            shared.setflags(write=False)

        for (selector_factory, lam, depth), cell_rows in zip(cells, rows):
            selector = selector_factory()
            is_oracle = isinstance(selector, OracleSelector)
            selector.fit(train_features, scaled_train)

            fold_costs: list[float] = []
            fold_taus: list[float] = []
            for x, true_costs in zip(test_features, costs[test_mask]):
                # the oracle is scored on the test labels it is meant to know
                predicted = true_costs if is_oracle else selector.predicted_costs(x)
                if len(predicted) != len(true_costs):
                    raise DomainError(f"selector {selector.name!r} predicted {len(predicted)} "
                                      f"costs for {len(true_costs)} algorithms")
                if np.isnan(predicted).any():
                    raise DomainError(f"selector {selector.name!r} predicted NaN costs")
                choice = int(predicted.argmin())  # Selector.select, without a second call
                if selector.predicts_costs:
                    try:
                        # tau-b reads only the pairwise order, which ranking keeps
                        fold_taus.append(kendall_tau_b(predicted, true_costs))
                    except UndefinedMetric:
                        pass
                fold_costs.append(float(true_costs[choice]))

            tau = float(np.mean(fold_taus)) if fold_taus else None
            cell_rows.append(ReportRow(scenario.name, selector.name, lam, depth, fold,
                                       float(np.mean(fold_costs)), None, tau, None,
                                       len(fold_costs)))

    return [r for cell in rows for r in cell], [_aggregate(cell) for cell in rows]


def cross_validate(scenario: Scenario, selector_factory: Callable[[], Selector], *,
                   lam: Optional[float] = None,
                   depth: Optional[int] = None) -> tuple[list[ReportRow], ReportRow]:
    """Evaluate one selector under the scenario's fold split: the one-cell
    case of cross_validate_cells."""
    fold_rows, (aggregate,) = cross_validate_cells(scenario, [(selector_factory, lam, depth)])
    return fold_rows, aggregate


def _aggregate(fold_rows: Sequence[ReportRow]) -> ReportRow:
    par10s = np.array([r.par10 for r in fold_rows])
    taus = [r.tau for r in fold_rows if r.tau is not None]
    tau_std = (float(np.std(taus, ddof=1)) if len(taus) > 1 else 0.0) if taus else None
    return replace(fold_rows[0], fold=None, par10=float(par10s.mean()),
                   par10_std=float(par10s.std(ddof=1)) if par10s.size > 1 else 0.0,
                   tau=float(np.mean(taus)) if taus else None, tau_std=tau_std,
                   n_instances=sum(r.n_instances for r in fold_rows))


def sweep(scenario: Scenario, lambdas: Iterable[float] = DEFAULT_LAMBDA_GRID,
          depths: Iterable[int] = DEFAULT_DEPTH_GRID, *,
          config: ForestConfig = ForestConfig(tree=TreeConfig(features_per_split="sqrt")),
          ) -> tuple[list[ReportRow], list[ReportRow]]:
    """Cross-validate the hybrid forest over the full lambda x depth grid.

    Every cell uses `config` with its tree's lambda and max depth replaced.
    All cells share the scenario's fold split and the same seed, so the table
    isolates the effect of the two hyperparameters.
    """
    # partial binds each cell's config now; a lambda here would see the last one
    cells = [(partial(HarrisSelector,
                      replace(config, tree=replace(config.tree, lam=lam, max_depth=depth))),
              lam, depth)
             for lam, depth in product(lambdas, depths)]
    if not cells:
        raise DomainError("sweep grids must be nonempty")
    return cross_validate_cells(scenario, cells)


def average_rank(par10_by_scenario: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Average rank of each selector across scenarios (rank 1 = lowest mean
    PAR10 within a scenario; ties share averaged ranks)."""
    if not (isinstance(par10_by_scenario, Mapping)
            and all(isinstance(cells, Mapping) for cells in par10_by_scenario.values())):
        raise DomainError("PAR10 table must map each scenario to a mapping of selectors")
    if not par10_by_scenario:
        raise DomainError("no scenarios to rank")
    selectors = sorted({s for cells in par10_by_scenario.values() for s in cells})
    totals = np.zeros(len(selectors))
    for scenario_name, cells in par10_by_scenario.items():
        missing = [s for s in selectors if s not in cells]
        if missing:
            raise DomainError(f"scenario {scenario_name!r} is missing selectors {missing}")
        totals += rank_vector(real_array([cells[s] for s in selectors], "PAR10 values"))
    means = totals / len(par10_by_scenario)
    return dict(zip(selectors, means))


# --- report CSV --------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _csv_fields(r: ReportRow) -> list[str]:
    return [r.scenario, r.selector, _fmt(r.lam), _fmt(r.depth), _fmt(r.fold),
            "aggregate" if r.fold is None else "fold", _fmt(r.par10), _fmt(r.par10_std),
            _fmt(r.tau), _fmt(r.tau_std), _fmt(r.n_instances)]


def write_report_csv(path, fold_rows: Sequence[ReportRow],
                     aggregates: Sequence[ReportRow]) -> None:
    """Write fold and aggregate rows in the REPORT_COLUMNS order.

    Rows are sorted deterministically, so identical inputs yield identical
    bytes; see README for the schema.
    """
    lines = sorted((_csv_fields(r) for r in (*fold_rows, *aggregates)),
                   key=lambda f: (*f[:4], f[5], int(f[4]) if f[4] else 0))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # minimal quoting leaves a lone \r bare, and a reader ends the row there
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(REPORT_COLUMNS)
        for fields in lines:
            (quote_all if any("\r" in f for f in fields) else writer).writerow(fields)


def read_report_csv(path) -> list[ReportRow]:
    """Read a report CSV back as ReportRows, checking the header and every
    field: row_type must be "fold" exactly when the fold column is set. A bad
    row raises DomainError naming file:line."""
    lines = read_csv_rows(path)
    if not lines or tuple(lines[0][1]) != REPORT_COLUMNS:
        raise DomainError(f"unsupported report schema in {path}")
    rows = []
    for line, fields in lines[1:]:
        where = f"{path}:{line}"
        if len(fields) != len(REPORT_COLUMNS):
            raise DomainError(f"{where}: expected {len(REPORT_COLUMNS)} fields, got {len(fields)}")
        text = dict(zip(REPORT_COLUMNS, fields))
        field = partial(_number, where, text)
        row = ReportRow(text["scenario"], text["selector"], field("lambda"), field("depth", int),
                        field("fold", int), field("par10", optional=False), field("par10_std"),
                        field("tau"), field("tau_std"), field("n_instances", int, optional=False))
        if text["row_type"] != ("aggregate" if row.fold is None else "fold"):
            raise DomainError(f"{where}: row_type {text['row_type']!r} does not match "
                              f"fold {text['fold']!r}")
        rows.append(row)
    return rows


def _number(where: str, text: dict[str, str], column: str, kind=float, optional=True):
    """The column's field as a finite float or an int; None if optional and empty."""
    if optional and text[column] == "":
        return None
    try:
        value = kind(text[column])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise DomainError(f"{where}: {column} must be {what}, got {text[column]!r}")
    return value


def best_cells_by_scenario(rows: Iterable[ReportRow]) -> dict[str, dict[str, float]]:
    """Collapse aggregate report rows to the best PAR10 per (scenario,
    selector); with sweep output this realizes tuned-selection reporting."""
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        if row.fold is not None:
            continue
        cells = table.setdefault(row.scenario, {})
        if row.selector not in cells or row.par10 < cells[row.selector]:
            cells[row.selector] = row.par10
    return table
