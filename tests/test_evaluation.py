import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from harris import evaluation
from harris.baselines import HarrisSelector, OracleSelector, Selector, SingleBestSelector
from harris.cli import main
from harris.errors import DomainError, UndefinedMetric
from harris.evaluation import (REPORT_COLUMNS, average_rank, best_cells_by_scenario,
                               cross_validate, cross_validate_cells, read_report_csv, sweep,
                               write_report_csv)
from harris.forest import single_tree_config
from harris.losses import kendall_tau_b, rank_vector
from harris.scenario import column_medians, filter_unsolved, par10_matrix
from harris.synthetic import make_synthetic_scenario


class RecordingSelector(Selector):
    """Constant selector that captures what each fold's fit() gets to see."""

    name = "recorder"

    def __init__(self, log):
        self.log = log

    def fit(self, features, costs):
        self.log.append({
            "n_train": np.asarray(features).shape[0],
            "medians_seen": np.median(np.asarray(features), axis=0),
            "costs": np.array(costs),
        })
        return self

    def predicted_costs(self, x):
        return np.array([1.0, 1.0, 1.0])  # all tied: tau undefined everywhere


class TestCrossValidate:
    def test_oracle_par10_is_per_instance_minimum(self):
        scn = make_synthetic_scenario(120, seed=0)
        costs = par10_matrix(scn)
        folds, agg = cross_validate(scn, lambda: OracleSelector())
        for record in folds:
            test_rows = scn.fold_of == record.fold
            assert record.par10 == pytest.approx(costs[test_rows].min(axis=1).mean())
        assert agg.par10_mean == pytest.approx(
            np.mean([r.par10 for r in folds]))
        assert agg.tau_mean == pytest.approx(1.0)

    def test_selector_writing_only_fit_and_predicted_costs(self):
        class CostsOnly(Selector):
            name = "costs-only"

            def fit(self, features, costs):
                return self

            def predicted_costs(self, x):
                return np.array([0.5, 0.2, 0.2])

        assert CostsOnly().select(np.zeros(3)) == 1  # the tie goes to the lowest index
        scn = make_synthetic_scenario(60, seed=5)
        costs = par10_matrix(scn)
        folds, _ = cross_validate(scn, CostsOnly)
        for record in folds:
            assert record.par10 == pytest.approx(costs[scn.fold_of == record.fold, 1].mean())

    def test_fold_tau_is_mean_of_per_row_tau(self):
        # a fold's rows are ranked in one call; its tau must still be the mean
        # of the per-row tau-b, undefined rows left out, to the last bit
        seen_by_fold = []

        class Rounded(Selector):
            name = "rounded"

            def __init__(self):
                self.seen = []
                seen_by_fold.append(self.seen)

            def fit(self, features, costs):
                return self

            def predicted_costs(self, x):
                costs = np.round(np.asarray(x) * 2.0)  # coarse, so ties are common
                self.seen.append(costs)
                return costs

        scn = make_synthetic_scenario(90, seed=3)
        costs = par10_matrix(scn)
        folds, _ = cross_validate(scn, Rounded)
        skipped = 0
        for record, seen in zip(folds, seen_by_fold):
            taus = []
            for predicted, true_costs in zip(seen, costs[scn.fold_of == record.fold]):
                try:
                    taus.append(kendall_tau_b(rank_vector(predicted), rank_vector(true_costs)))
                except UndefinedMetric:
                    skipped += 1
            assert len(seen) == record.n_instances
            assert np.float64(record.tau).tobytes() == np.float64(np.mean(taus)).tobytes()
        assert skipped > 0

    def test_nan_predicted_costs_stop_the_run(self):
        # argmin would pick the NaN and tau-b would skip the row: neither may pass silently
        class NaNCosts(Selector):
            name = "nan-costs"

            def fit(self, features, costs):
                return self

            def predicted_costs(self, x):
                return np.array([0.1, np.nan, 0.3])

        with pytest.raises(DomainError, match="'nan-costs' predicted NaN costs"):
            cross_validate(make_synthetic_scenario(60, seed=5), NaNCosts)

    def test_wrong_length_predicted_costs_stop_the_run(self):
        # one cost too many would index past the true costs, unnamed
        class ExtraCost(Selector):
            name = "extra-cost"

            def fit(self, features, costs):
                return self

            def predicted_costs(self, x):
                return np.array([0.1, 0.2, 0.3, 0.4])

        with pytest.raises(DomainError, match="'extra-cost' predicted 4 costs for 3 algorithms"):
            cross_validate(make_synthetic_scenario(60, seed=5), ExtraCost)

    def test_constant_prediction_reports_missing_tau(self):
        scn = make_synthetic_scenario(60, seed=5)
        log = []
        folds, agg = cross_validate(scn, lambda: RecordingSelector(log))
        assert all(r.tau is None for r in folds)
        assert agg.tau_mean is None and agg.tau_std is None

    def test_harris_matches_oracle_on_separable_fixture(self):
        scn = make_synthetic_scenario(200, seed=1)
        _, oracle_agg = cross_validate(scn, lambda: OracleSelector())
        config = single_tree_config(lam=0.5, max_depth=2, seed=0)
        folds, agg = cross_validate(scn, lambda: HarrisSelector(config), lam=0.5, depth=2)
        assert agg.par10_mean == pytest.approx(oracle_agg.par10_mean)
        assert all(r.tau == pytest.approx(1.0) for r in folds)

    def test_every_instance_tested_exactly_once(self):
        scn = make_synthetic_scenario(90, seed=2)
        log = []
        folds, agg = cross_validate(scn, lambda: RecordingSelector(log))
        assert sum(r.n_instances for r in folds) == scn.n_instances
        assert [entry["n_train"] + r.n_instances for entry, r in zip(log, folds)] \
            == [scn.n_instances] * len(folds)

    def test_scaling_and_medians_fit_on_training_rows_only(self):
        scn = make_synthetic_scenario(100, seed=3)
        # plant an extreme instance in fold 1's test set
        features = scn.features.copy()
        performances = scn.performances.copy()
        victim = int(np.nonzero(scn.fold_of == 1)[0][0])
        features[victim, 1] = 1e6
        performances[victim, 2] = scn.cutoff - 1.0
        from dataclasses import replace
        spiked = replace(scn, features=features, performances=performances)

        log = []
        folds, _ = cross_validate(spiked, lambda: RecordingSelector(log))
        costs = par10_matrix(spiked)
        for entry, record in zip(log, folds):
            train = costs[spiked.fold_of != record.fold]
            # the min-max scaling of this fold's training rows alone
            assert np.array_equal(entry["costs"], (train - train.min()) / np.ptp(train))
        # fold 1 trains without the spike, so whole-scenario scaling differs there
        whole = (costs - costs.min()) / np.ptp(costs)
        assert not np.array_equal(log[0]["costs"], whole[spiked.fold_of != 1])
        medians = [entry["medians_seen"][1] for entry in log]
        assert all(m < 1e5 for m in medians)

    def test_annotations_carried_through(self):
        scn = make_synthetic_scenario(60, seed=4)
        folds, agg = cross_validate(
            scn, lambda: HarrisSelector(single_tree_config(0.3, 2, 0)), lam=0.3, depth=2)
        assert {r.lam for r in folds} == {0.3}
        assert agg.depth == 2


class TestSweep:
    def test_single_cell_equals_cross_validate(self):
        # every cell of the grid fits its own config, not the last one built
        scn = make_synthetic_scenario(80, seed=6)
        grid = [(lam, depth) for lam in (0.0, 1.0) for depth in (1, 3)]
        folds, aggs = sweep(scn, [0.0, 1.0], [1, 3], config=single_tree_config(0.5, 2, seed=0))
        assert [(a.lam, a.depth) for a in aggs] == grid
        # the cells differ, so a cell fit with another cell's config shows
        assert len({tuple(r.par10 for r in folds if (r.lam, r.depth) == cell)
                    for cell in grid}) > 1
        n_folds = len(folds) // len(grid)
        for i, (lam, depth) in enumerate(grid):
            config = single_tree_config(lam, depth, seed=0)
            ref_folds, ref_agg = cross_validate(
                scn, lambda: HarrisSelector(config), lam=lam, depth=depth)
            assert aggs[i] == ref_agg
            assert folds[i * n_folds:(i + 1) * n_folds] == ref_folds

    def test_grid_shape_and_determinism(self):
        scn = make_synthetic_scenario(70, seed=7)
        config = single_tree_config(0.0, 1, seed=3)
        folds_a, aggs_a = sweep(scn, [0.0, 1.0], [1, 2], config=config)
        folds_b, aggs_b = sweep(scn, [0.0, 1.0], [1, 2], config=config)
        assert len(aggs_a) == 4
        assert [(a.lam, a.depth) for a in aggs_a] == [(0.0, 1), (0.0, 2), (1.0, 1), (1.0, 2)]
        assert folds_a == folds_b and aggs_a == aggs_b

    def test_empty_grid_rejected(self):
        scn = make_synthetic_scenario(60, seed=8)
        with pytest.raises(DomainError):
            sweep(scn, [], [2])


class TestSharedFolds:
    @pytest.mark.parametrize("run", ["evaluate", "sweep"])
    def test_each_fold_is_preprocessed_once(self, monkeypatch, tmp_path, run):
        calls = []

        def counting_medians(features):
            calls.append(len(features))
            return column_medians(features)

        monkeypatch.setattr(evaluation, "column_medians", counting_medians)
        scn = filter_unsolved(make_synthetic_scenario(60, seed=0))
        if run == "evaluate":
            result = CliRunner().invoke(main, [
                "evaluate", "--synthetic", "--synthetic-n", "60", "--paper-tree",
                "--depth", "2", "--selectors", "harris,sbs,oracle", "-o",
                str(tmp_path / "e.csv")])
            assert result.exit_code == 0, result.output
        else:
            sweep(scn, [0.0, 1.0], [1, 2], config=single_tree_config(0.5, 2, seed=0))
        assert len(calls) == len(np.unique(scn.fold_of))

    @pytest.mark.parametrize("target", ["features", "costs", "test row"])
    def test_selector_cannot_write_into_fold_arrays(self, target):
        class Scribbler(Selector):
            name = "scribbler"

            def fit(self, features, costs):
                if target != "test row":
                    (features if target == "features" else costs)[0, 0] = 1e9
                return self

            def predicted_costs(self, x):
                x[0] = 1e9
                return np.zeros(3)

        scn = make_synthetic_scenario(60, seed=5)
        log = []
        with pytest.raises(ValueError, match="read-only"):
            cross_validate_cells(scn, [(Scribbler, None, None),
                                       (lambda: RecordingSelector(log), None, None)])
        assert log == []  # the run stopped before any cell saw a written array


class TestAverageRank:
    def test_reference_table(self):
        ranks = average_rank(oracles.REFERENCE_PAR10_TABLE)
        for name, expected in oracles.REFERENCE_AVERAGE_RANKS.items():
            assert ranks[name] == pytest.approx(expected, abs=0.005)

    def test_two_selectors_one_scenario(self):
        ranks = average_rank({"s": {"a": 1.0, "b": 2.0}})
        assert ranks == {"a": 1.0, "b": 2.0}

    def test_all_tied(self):
        ranks = average_rank({"s1": {"a": 5.0, "b": 5.0, "c": 5.0},
                              "s2": {"a": 1.0, "b": 1.0, "c": 1.0}})
        assert ranks == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_ranks_average_to_midpoint(self):
        rng = np.random.default_rng(0)
        table = {f"s{i}": {f"sel{j}": float(rng.uniform()) for j in range(4)}
                 for i in range(5)}
        ranks = average_rank(table)
        assert np.mean(list(ranks.values())) == pytest.approx(2.5)

    def test_missing_cell(self):
        with pytest.raises(DomainError):
            average_rank({"s1": {"a": 1.0, "b": 2.0}, "s2": {"a": 1.0}})


class TestReportCsv:
    def make_records(self):
        scn = make_synthetic_scenario(60, seed=9)
        folds_h, agg_h = cross_validate(
            scn, lambda: HarrisSelector(single_tree_config(0.5, 2, 0)), lam=0.5, depth=2)
        folds_s, agg_s = cross_validate(scn, lambda: SingleBestSelector())
        return folds_h + folds_s, [agg_h, agg_s]

    def test_round_trip(self, tmp_path):
        folds, aggs = self.make_records()
        path = tmp_path / "report.csv"
        write_report_csv(path, folds, aggs)
        rows = read_report_csv(path)
        assert len(rows) == len(folds) + len(aggs)
        fold_rows = [r for r in rows if r["row_type"] == "fold"]
        agg_rows = [r for r in rows if r["row_type"] == "aggregate"]
        assert len(fold_rows) == len(folds)
        assert {r["selector"] for r in agg_rows} == {"harris", "sbs"}
        harris_agg = next(r for r in agg_rows if r["selector"] == "harris")
        assert float(harris_agg["par10"]) == pytest.approx(aggs[0].par10_mean)
        assert harris_agg["lambda"] == "0.5" and harris_agg["depth"] == "2"

    def test_identical_inputs_identical_bytes(self, tmp_path):
        folds, aggs = self.make_records()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, folds, aggs)
        write_report_csv(b, list(reversed(folds)), list(reversed(aggs)))
        assert a.read_bytes() == b.read_bytes()

    def test_schema_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(DomainError):
            read_report_csv(bad)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(REPORT_COLUMNS) + "\nsynthetic,harris,aggregate\n")
        with pytest.raises(DomainError, match=r"short\.csv:2: expected 11 fields, got 3"):
            read_report_csv(path)

    @pytest.mark.parametrize("line", [1, 2])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, line):
        rows = [",".join(REPORT_COLUMNS).encode(), b"synthetic,harris,aggregate"]
        rows[line - 1] += b"\xe9"
        path = tmp_path / "report.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(DomainError, match=rf"report\.csv:{line}: not valid UTF-8"):
            read_report_csv(path)

    def test_overlong_quoted_field_names_its_line(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(",".join(REPORT_COLUMNS) + '\n"' + "a" * 140_000 + '",harris\n')
        with pytest.raises(DomainError, match=r"report\.csv:2: unreadable CSV line"):
            read_report_csv(path)

    def test_best_cells_keep_minimum_par10(self, tmp_path):
        scn = make_synthetic_scenario(60, seed=10)
        folds, aggs = sweep(scn, [0.0, 1.0], [0, 2], config=single_tree_config(0.0, 0, seed=0))
        path = tmp_path / "sweep.csv"
        write_report_csv(path, folds, aggs)
        table = best_cells_by_scenario(read_report_csv(path))
        assert table["synthetic"]["harris"] == pytest.approx(
            min(a.par10_mean for a in aggs))
