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
from .losses import kendall_tau_b, rank_vector
from .scenario import (Scenario, column_medians, impute_features, par10_matrix,
                       read_csv_rows, scale_performances)
from .tree import TreeConfig

DEFAULT_LAMBDA_GRID = tuple(i / 10 for i in range(11))
DEFAULT_DEPTH_GRID = (2, 4, 6, 8, 10)

REPORT_SCHEMA_VERSION = 1
REPORT_COLUMNS = (
    "scenario", "selector", "lambda", "depth", "fold", "row_type",
    "par10", "par10_std", "tau", "tau_std", "n_instances",
)


@dataclass(frozen=True)
class FoldRecord:
    scenario: str
    selector: str
    lam: Optional[float]
    depth: Optional[int]
    fold: int
    par10: float
    tau: Optional[float]
    n_instances: int


@dataclass(frozen=True)
class AggregateRecord:
    scenario: str
    selector: str
    lam: Optional[float]
    depth: Optional[int]
    par10_mean: float
    par10_std: float
    tau_mean: Optional[float]
    tau_std: Optional[float]
    n_instances: int


def cross_validate_cells(scenario: Scenario, cells: Sequence[tuple],
                         ) -> tuple[list[FoldRecord], list[AggregateRecord]]:
    """Evaluate (selector_factory, lam, depth) cells on the scenario's folds;
    lam and depth only label a cell's records. In every fold each cell fits a
    fresh selector, selects on the test rows, and is scored by the selected
    algorithm's PAR10 in original units plus the per-instance tau-b where
    defined. Returns the fold records cell by cell and one aggregate per cell."""
    costs = par10_matrix(scenario)
    folds = sorted(int(f) for f in np.unique(scenario.fold_of))
    records: list[list[FoldRecord]] = [[] for _ in cells]

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

        for (selector_factory, lam, depth), cell_records in zip(cells, records):
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

            cell_records.append(FoldRecord(
                scenario=scenario.name,
                selector=selector.name,
                lam=lam,
                depth=depth,
                fold=fold,
                par10=float(np.mean(fold_costs)),
                tau=float(np.mean(fold_taus)) if fold_taus else None,
                n_instances=len(fold_costs),
            ))

    return [r for cell in records for r in cell], [_aggregate(cell) for cell in records]


def cross_validate(scenario: Scenario, selector_factory: Callable[[], Selector], *,
                   lam: Optional[float] = None,
                   depth: Optional[int] = None) -> tuple[list[FoldRecord], AggregateRecord]:
    """Evaluate one selector under the scenario's fold split: the one-cell
    case of cross_validate_cells."""
    fold_records, (aggregate,) = cross_validate_cells(scenario, [(selector_factory, lam, depth)])
    return fold_records, aggregate


def _aggregate(fold_records: Sequence[FoldRecord]) -> AggregateRecord:
    first = fold_records[0]
    par10s = np.array([r.par10 for r in fold_records])
    taus = [r.tau for r in fold_records if r.tau is not None]
    return AggregateRecord(
        scenario=first.scenario,
        selector=first.selector,
        lam=first.lam,
        depth=first.depth,
        par10_mean=float(par10s.mean()),
        par10_std=float(par10s.std(ddof=1)) if par10s.size > 1 else 0.0,
        tau_mean=float(np.mean(taus)) if taus else None,
        tau_std=(float(np.std(taus, ddof=1)) if len(taus) > 1 else 0.0) if taus else None,
        n_instances=sum(r.n_instances for r in fold_records),
    )


def sweep(scenario: Scenario, lambdas: Iterable[float] = DEFAULT_LAMBDA_GRID,
          depths: Iterable[int] = DEFAULT_DEPTH_GRID, *,
          config: ForestConfig = ForestConfig(tree=TreeConfig(features_per_split="sqrt")),
          ) -> tuple[list[FoldRecord], list[AggregateRecord]]:
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
    if not par10_by_scenario:
        raise DomainError("no scenarios to rank")
    selectors = sorted({s for cells in par10_by_scenario.values() for s in cells})
    totals = np.zeros(len(selectors))
    for scenario_name, cells in par10_by_scenario.items():
        missing = [s for s in selectors if s not in cells]
        if missing:
            raise DomainError(f"scenario {scenario_name!r} is missing selectors {missing}")
        totals += rank_vector([float(cells[s]) for s in selectors])
    means = totals / len(par10_by_scenario)
    return dict(zip(selectors, means))


# --- CSV report schema (version 1) -------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _fold_row(r: FoldRecord) -> list[str]:
    return [r.scenario, r.selector, _fmt(r.lam), _fmt(r.depth), str(r.fold), "fold",
            _fmt(r.par10), "", _fmt(r.tau), "", str(r.n_instances)]


def _aggregate_row(r: AggregateRecord) -> list[str]:
    return [r.scenario, r.selector, _fmt(r.lam), _fmt(r.depth), "", "aggregate",
            _fmt(r.par10_mean), _fmt(r.par10_std), _fmt(r.tau_mean), _fmt(r.tau_std),
            str(r.n_instances)]


def _sort_key(row: list[str]):
    return (row[0], row[1], row[2], row[3], row[5], int(row[4]) if row[4] else 0)


def write_report_csv(path, fold_records: Sequence[FoldRecord],
                     aggregates: Sequence[AggregateRecord]) -> None:
    """Write fold and aggregate rows in the documented column order.

    Rows are sorted deterministically, so identical inputs yield identical
    bytes; see README for the version-1 schema.
    """
    rows = [_fold_row(r) for r in fold_records] + [_aggregate_row(r) for r in aggregates]
    rows.sort(key=_sort_key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)


def read_report_csv(path) -> list[dict[str, str]]:
    """Read a report CSV back as dict rows, validating the schema header, the
    field count of each row and the par10 of each aggregate row (a finite
    number); a bad row raises DomainError naming file:line."""
    lines = read_csv_rows(path)
    if not lines or tuple(lines[0][1]) != REPORT_COLUMNS:
        raise DomainError(f"unsupported report schema in {path}")
    rows = []
    for line, fields in lines[1:]:
        where = f"{path}:{line}"
        if len(fields) != len(REPORT_COLUMNS):
            raise DomainError(
                f"{where}: expected {len(REPORT_COLUMNS)} fields, got {len(fields)}")
        row = dict(zip(REPORT_COLUMNS, fields))
        if row["row_type"] == "aggregate":
            try:
                par10 = float(row["par10"])
            except ValueError:
                par10 = math.nan
            if not math.isfinite(par10):
                raise DomainError(f"{where}: par10 must be a finite number, "
                                  f"got {row['par10']!r}")
        rows.append(row)
    return rows


def best_cells_by_scenario(rows: Iterable[dict[str, str]]) -> dict[str, dict[str, float]]:
    """Collapse aggregate report rows to the best PAR10 per (scenario,
    selector); with sweep output this realizes tuned-selection reporting."""
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        if row["row_type"] != "aggregate":
            continue
        value = float(row["par10"])
        cells = table.setdefault(row["scenario"], {})
        name = row["selector"]
        if name not in cells or value < cells[name]:
            cells[name] = value
    return table
