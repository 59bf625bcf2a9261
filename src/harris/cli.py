"""Command-line interface for training, evaluating, and reporting selectors.

The option groups build what a command runs on: scenario_options calls the
command with the loaded Scenario as `scn`, and forest_options with the built
ForestConfig as `config`. A command takes only its own options besides.
"""

from __future__ import annotations

import sys
from functools import partial, wraps

import click
from click.core import ParameterSource

from . import __version__
from .baselines import (ClusterSelector, HarrisSelector, OracleSelector,
                        PairwiseVotingSelector, RegressionForestSelector,
                        SingleBestSelector)
from .errors import (ConsistencyError, DomainError, EmptyScenarioError,
                     ModelFormatError, ParseError)
from .evaluation import (DEFAULT_DEPTH_GRID, DEFAULT_LAMBDA_GRID, average_rank,
                         best_cells_by_scenario, cross_validate_cells, read_report_csv,
                         sweep, write_report_csv)
from .forest import (ForestConfig, fit_forest, load_forest, predict_costs,
                     save_forest, single_tree_config)
from .scenario import (column_medians, filter_unsolved, impute_features, par10_matrix,
                       parse_scenario, read_csv_rows, scale_performances)
from .synthetic import make_synthetic_scenario
from .tree import TreeConfig, checked_query_row

_USER_ERRORS = (ParseError, ConsistencyError, EmptyScenarioError, DomainError,
                ModelFormatError)


def _fail_on(func):
    """Turn domain/parse failures into clean nonzero exits."""
    @wraps(func)  # keeps the click options stacked on func
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except _USER_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


def _given_flags(*names):
    """The flags, as --help shows them, of the named params that the command
    line set, so an option that another one overrides can refuse them."""
    ctx = click.get_current_context()
    return ["/".join(param.opts + param.secondary_opts) for param in ctx.command.params
            if param.name in names
            and ctx.get_parameter_source(param.name) == ParameterSource.COMMANDLINE]


def scenario_options(func):
    """The scenario flags; func is called with the scenario they name as
    `scn`, unsolved instances dropped unless --keep-unsolved."""
    func = click.option("--scenario", "scenario_dir", type=click.Path(exists=True, file_okay=False),
                        default=None, help="ASLib-style scenario directory.")(func)
    func = click.option("--synthetic", is_flag=True,
                        help="Use the built-in seeded synthetic scenario instead of --scenario.")(func)
    func = click.option("--synthetic-n", type=int, default=500, show_default=True,
                        help="Synthetic scenario size.")(func)
    func = click.option("--synthetic-seed", type=int, default=0, show_default=True,
                        help="Synthetic scenario generator seed.")(func)
    func = click.option("--drop-unsolved/--keep-unsolved", default=True, show_default=True,
                        help="Drop instances no algorithm solves before training/evaluation.")(func)

    @wraps(func)
    def wrapper(scenario_dir, synthetic, synthetic_n, synthetic_seed, drop_unsolved, **kwargs):
        if synthetic and scenario_dir is not None:
            raise click.UsageError("--scenario and --synthetic are mutually exclusive")
        if synthetic:
            scn = make_synthetic_scenario(n_instances=synthetic_n, seed=synthetic_seed)
        elif scenario_dir is not None:
            if given := _given_flags("synthetic_n", "synthetic_seed"):
                raise click.UsageError(f"{given[0]} applies to --synthetic only, not to --scenario")
            scn = parse_scenario(scenario_dir)
        else:
            raise click.UsageError("provide --scenario DIR or --synthetic")
        return func(scn=filter_unsolved(scn) if drop_unsolved else scn, **kwargs)
    return wrapper


def lambda_depth_options(func):
    """--lambda/--depth, for the commands that fit one (lambda, depth) cell;
    forest_options puts them into the config's tree."""
    func = click.option("--lambda", "lam", type=click.FloatRange(0.0, 1.0),
                        default=TreeConfig.lam, show_default=True,
                        help="Weight of the ranking loss in split search.")(func)
    func = click.option("--depth", type=click.IntRange(min=0), default=TreeConfig.max_depth,
                        show_default=True, help="Maximum tree depth.")(func)
    return func


# options that --paper-tree fixes itself (one tree, no bootstrap, all features)
_PAPER_TREE_FIXES = ("n_trees", "bootstrap", "features_per_split")


def forest_options(func):
    """The forest flags; func is called with the ForestConfig they build as
    `config`. Its tree takes --lambda/--depth where the command has them and
    TreeConfig's defaults otherwise (sweep's grid replaces both)."""
    func = click.option("--n-trees", type=click.IntRange(min=1), default=ForestConfig.n_trees,
                        show_default=True, help="Trees per hybrid forest.")(func)
    func = click.option("--bootstrap/--no-bootstrap", default=ForestConfig.bootstrap,
                        show_default=True,
                        help="Bootstrap-resample the training data per tree.")(func)
    func = click.option("--features-per-split", default="sqrt", show_default=True,
                        help="Features sampled per split: an integer, 'sqrt', or 'all'.")(func)
    func = click.option("--paper-tree", is_flag=True,
                        help="Preset: a single unbagged tree searching all features.")(func)
    func = click.option("--seed", type=int, default=ForestConfig.seed, show_default=True,
                        help="Seed for all randomized components.")(func)

    @wraps(func)
    def wrapper(n_trees, bootstrap, features_per_split, paper_tree, seed,
                lam=TreeConfig.lam, depth=TreeConfig.max_depth, **kwargs):
        if paper_tree:
            if given := _given_flags(*_PAPER_TREE_FIXES):
                raise click.UsageError(f"--paper-tree fixes {given[0]}; do not pass both")
            return func(config=single_tree_config(lam, depth, seed), **kwargs)
        if features_per_split not in ("all", "sqrt"):
            try:
                features_per_split = int(features_per_split)
            except ValueError:
                raise click.BadParameter(
                    "--features-per-split must be an integer, 'sqrt', or 'all'") from None
        tree = TreeConfig(lam=lam, max_depth=depth, features_per_split=features_per_split)
        return func(config=ForestConfig(n_trees=n_trees, bootstrap=bootstrap, seed=seed,
                                        tree=tree), **kwargs)
    return wrapper


def _comma_list(flag, given, convert):
    """The values of a comma-separated option, each passed through convert:
    at least one, none twice. A value convert refuses with ValueError is a
    usage error naming the flag."""
    try:
        values = [convert(v.strip()) for v in given.split(",") if v.strip()]
    except ValueError as exc:
        raise click.UsageError(f"{flag} {given!r}: {exc}") from None
    if not values or len(set(values)) != len(values):
        raise click.UsageError(f"{flag} {given!r} must name each value once, and at least one")
    return values


def _selector_cells(config, *, baseline_trees, baseline_depth, isac_clusters):
    """Selector name -> (factory of a fresh, unfitted selector, lambda, depth)
    cell; only harris carries lambda/depth labels, those of its config."""
    sub_forests = dict(n_trees=baseline_trees, max_depth=baseline_depth, seed=config.seed)
    return {
        "harris": (partial(HarrisSelector, config), config.tree.lam, config.tree.max_depth),
        "rfr": (partial(RegressionForestSelector, **sub_forests), None, None),
        "isac": (partial(ClusterSelector, n_clusters=isac_clusters, seed=config.seed), None, None),
        "satzilla": (partial(PairwiseVotingSelector, **sub_forests), None, None),
        "sbs": (SingleBestSelector, None, None),
        "oracle": (OracleSelector, None, None),
    }


def _fmt_cell(value, digits=2):
    return "-" if value is None else f"{value:.{digits}f}"


def _print_summary(scenario, aggregates):
    click.echo(f"scenario {scenario.name}: n={scenario.n_instances} "
               f"k={scenario.n_algorithms} p={scenario.n_features} cutoff={scenario.cutoff}")
    click.echo(f"{'selector':<12} {'PAR10 (mean +/- std)':<28} {'tau-b':>8}")
    for agg in aggregates:
        par10 = f"{agg.par10_mean:.2f} +/- {agg.par10_std:.2f}"
        click.echo(f"{agg.selector:<12} {par10:<28} {_fmt_cell(agg.tau_mean, 3):>8}")


@click.group()
@click.version_option(version=__version__, prog_name="harris")
def main():
    """Per-instance algorithm selection with hybrid ranking-regression forests."""


@main.command()
@_fail_on
@scenario_options
@lambda_depth_options
@forest_options
@click.option("--selectors", default="harris,rfr,isac,satzilla", show_default=True,
              help="Comma-separated selector list.")
@click.option("--baseline-trees", type=click.IntRange(min=1), default=100, show_default=True,
              help="Trees per baseline sub-forest (rfr, satzilla).")
@click.option("--baseline-depth", type=click.IntRange(min=0), default=10, show_default=True,
              help="Tree depth for baseline sub-forests.")
@click.option("--isac-clusters", type=click.IntRange(min=1), default=10, show_default=True,
              help="Cluster count for the isac baseline.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default="evaluation.csv",
              show_default=True, help="Report CSV path.")
def evaluate(scn, config, selectors, baseline_trees, baseline_depth, isac_clusters, output):
    """Run 10-fold cross-validation for the requested selectors."""
    cells = _selector_cells(config, baseline_trees=baseline_trees,
                            baseline_depth=baseline_depth, isac_clusters=isac_clusters)

    def known(name):
        if name not in cells:
            raise ValueError(f"unknown selector {name!r}; choose from {', '.join(cells)}")
        return name

    names = _comma_list("--selectors", selectors, known)
    fold_records, aggregates = cross_validate_cells(scn, [cells[name] for name in names])
    write_report_csv(output, fold_records, aggregates)
    _print_summary(scn, aggregates)
    click.echo(f"wrote {output}")


@main.command("sweep")
@_fail_on
@scenario_options
@forest_options
@click.option("--lambdas", default=",".join(str(v) for v in DEFAULT_LAMBDA_GRID),
              show_default=True, help="Comma-separated lambda grid.")
@click.option("--depths", default=",".join(str(v) for v in DEFAULT_DEPTH_GRID),
              show_default=True, help="Comma-separated depth grid.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default="sweep.csv",
              show_default=True, help="Report CSV path.")
def sweep_cmd(scn, config, lambdas, depths, output):
    """Cross-validate the hybrid forest over a lambda x depth grid."""
    fold_records, aggregates = sweep(scn, _comma_list("--lambdas", lambdas, float),
                                     _comma_list("--depths", depths, int), config=config)
    write_report_csv(output, fold_records, aggregates)
    best = min(aggregates, key=lambda a: a.par10_mean)
    click.echo(f"{len(aggregates)} grid cells written to {output}")
    click.echo(f"best cell: lambda={best.lam} depth={best.depth} "
               f"PAR10={best.par10_mean:.2f} +/- {best.par10_std:.2f}")


@main.command()
@_fail_on
@scenario_options
@lambda_depth_options
@forest_options
@click.option("--model", "-o", type=click.Path(dir_okay=False), default="model.json",
              show_default=True, help="Where to write the fitted forest.")
def train(scn, config, model):
    """Fit a hybrid forest on a full scenario and save it as JSON."""
    features = impute_features(scn.features, column_medians(scn.features))
    scaled, scale = scale_performances(par10_matrix(scn))
    forest = fit_forest(features, scaled, config, scale=scale,
                        algorithm_names=scn.algorithm_names)
    save_forest(forest, model)
    click.echo(f"trained {config.n_trees} tree(s) on {scn.name} "
               f"(n={scn.n_instances}, k={scn.n_algorithms}); wrote {model}")


@main.command()
@click.option("--model", "-m", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Forest model written by `harris train`.")
@click.option("--features", "features_csv", type=click.Path(exists=True, dir_okay=False),
              required=True, help="CSV of feature vectors, one instance per row.")
@_fail_on
def predict(model, features_csv):
    """Select an algorithm for each feature vector in a CSV file."""
    forest = load_forest(model)
    rows = [(line, row) for line, row in read_csv_rows(features_csv) if row]
    if not rows:
        raise DomainError(f"{features_csv}: no feature rows")
    vectors = []  # every row is checked before any selection is printed
    for line, row in rows:
        try:
            vectors.append(checked_query_row(row, forest.n_features))
        except DomainError as e:
            raise DomainError(f"{features_csv}:{line}: {e}") from None
    for x in vectors:
        predicted = predict_costs(forest, x)
        choice = int(predicted.argmin())  # select_algorithm, without a second walk
        cost_text = ",".join(f"{c:.4f}" for c in forest.scale.invert(predicted))
        click.echo(f"{forest.algorithm_names[choice]}\t{cost_text}")


@main.command()
@click.argument("reports", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@_fail_on
def report(reports):
    """Average-rank selectors across scenarios from evaluation/sweep CSVs.

    When a CSV holds several (lambda, depth) cells for a selector, the best
    PAR10 cell per scenario is used.
    """
    rows = []
    for path in reports:
        rows.extend(read_report_csv(path))
    table = best_cells_by_scenario(rows)
    if not table:
        raise DomainError("no aggregate rows found in the given reports")
    ranks = average_rank(table)
    selectors = sorted(ranks)
    click.echo(f"{'scenario':<24} " + " ".join(f"{s:>12}" for s in selectors))
    for scenario_name in sorted(table):
        cells = table[scenario_name]
        click.echo(f"{scenario_name:<24} "
                   + " ".join(f"{cells[s]:>12.2f}" for s in selectors))
    click.echo(f"{'average rank':<24} "
               + " ".join(f"{ranks[s]:>12.2f}" for s in selectors))


if __name__ == "__main__":
    sys.exit(main())
