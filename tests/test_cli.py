import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import harris
from aslib_writer import Table, write_aslib
from harris.baselines import ClusterSelector, HarrisSelector
from harris.cli import main
from harris.evaluation import cross_validate_cells, read_report_csv, sweep, write_report_csv
from harris.forest import MODEL_VERSION, ForestConfig, fit_forest, save_forest
from harris.scenario import (column_medians, filter_unsolved, impute_features, par10_matrix,
                             parse_scenario, scale_performances)
from harris.synthetic import make_synthetic_scenario
from harris.tree import TreeConfig


@pytest.fixture
def runner():
    return CliRunner()


def fast_eval_args(out, selectors="harris,sbs", extra=()):
    return ["evaluate", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "2", "--lambda", "0.5", "--seed", "7",
            "--selectors", selectors, "-o", str(out), *extra]


def test_cli_import_loads_no_scipy():
    # scipy is a test/benchmark dependency only; the runtime must not need it
    code = ("import sys; import harris.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(harris.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestEvaluate:
    def test_four_selector_shape_contract(self, runner, tmp_path):
        out = tmp_path / "eval.csv"
        result = runner.invoke(main, fast_eval_args(
            out, selectors="harris,rfr,isac,satzilla",
            extra=["--baseline-trees", "3", "--baseline-depth", "2"]))
        assert result.exit_code == 0, result.output
        rows = read_report_csv(out)
        fold_rows = [r for r in rows if r.fold is not None]
        assert len(fold_rows) == 4 * 10
        assert {r.selector for r in fold_rows} == {"harris", "rfr", "isac", "satzilla"}

    def test_oracle_summary_matches_fixture(self, runner, tmp_path):
        out = tmp_path / "eval.csv"
        result = runner.invoke(main, fast_eval_args(out, selectors="oracle"))
        assert result.exit_code == 0, result.output
        scn = make_synthetic_scenario(90, seed=0)
        costs = par10_matrix(scn)
        expected = np.mean([costs[scn.fold_of == f].min(axis=1).mean()
                            for f in sorted(set(scn.fold_of))])
        agg = next(r for r in read_report_csv(out) if r.fold is None)
        assert agg.par10 == pytest.approx(expected)

    def test_missing_scenario_path(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", "--scenario", str(tmp_path / "nope")])
        assert result.exit_code != 0

    def test_no_input_is_usage_error(self, runner):
        result = runner.invoke(main, ["evaluate"])
        assert result.exit_code != 0
        assert "--scenario" in result.output

    def test_unknown_selector(self, runner, tmp_path):
        result = runner.invoke(main, fast_eval_args(tmp_path / "x.csv", selectors="nope"))
        assert result.exit_code != 0

    @pytest.mark.parametrize("selectors", [",", " , ", "harris,harris", "sbs,harris,sbs"])
    def test_empty_or_repeated_selector_list(self, runner, tmp_path, selectors):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, fast_eval_args(out, selectors=selectors))
        assert result.exit_code == 2, result.output
        assert f"--selectors {selectors!r}" in result.output
        assert not out.exists()

    def test_threads_is_not_an_option(self, runner, tmp_path):
        result = runner.invoke(main, fast_eval_args(tmp_path / "x.csv", extra=["--threads", "2"]))
        assert result.exit_code != 0
        assert "No such option" in result.output

    def test_byte_identical_reruns(self, runner, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                fast_eval_args(out, selectors="harris,rfr",
                               extra=["--baseline-trees", "4"]),
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def write_with_unsolved(root, scn, every=7):
    """scn as an ASLib directory in which every `every`-th instance times out
    on every algorithm."""
    names = scn.algorithm_names
    runs = [[iid, "1", a, repr(float(scn.performances[i, j])),
             "timeout" if i % every == 0 else "ok"]
            for i, iid in enumerate(scn.instance_ids) for j, a in enumerate(names)]
    return write_aslib(
        root,
        f"scenario_id: unsolved\nalgorithm_cutoff_time: {scn.cutoff!r}\n"
        f"algorithms_deterministic: {','.join(names)}\n",
        Table("features", ["instance_id", "repetition", *scn.feature_names],
              [[iid, "1", *map(repr, row.tolist())]
               for iid, row in zip(scn.instance_ids, scn.features)]),
        Table("runs", ["instance_id", "repetition", "algorithm", "runtime", "runstatus"], runs),
        Table("cv", ["instance_id", "repetition", "fold"],
              [[iid, "1", str(int(f))] for iid, f in zip(scn.instance_ids, scn.fold_of)]))


class TestOptionsBuildTheRun:
    """Each command equals the library run built by hand from the scenario and
    configs its options name, on the options no other test sets."""

    FOREST = ["--n-trees", "2", "--no-bootstrap", "--seed", "5"]

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "train"])
    @pytest.mark.parametrize("source, fps", [("kept-unsolved", "1"), ("synthetic-seed", "all")])
    def test_command_equals_library_run(self, runner, tmp_path, command, source, fps):
        if source == "kept-unsolved":
            root = write_with_unsolved(tmp_path / "scn", make_synthetic_scenario(60, seed=1))
            scenario_args = ["--scenario", str(root), "--keep-unsolved"]
            scn = parse_scenario(root)
            assert filter_unsolved(scn).n_instances < scn.n_instances
        else:
            scenario_args = ["--synthetic", "--synthetic-n", "60", "--synthetic-seed", "3"]
            scn = filter_unsolved(make_synthetic_scenario(60, seed=3))

        def config(lam, depth):
            return ForestConfig(n_trees=2, bootstrap=False, seed=5, tree=TreeConfig(
                lam=lam, max_depth=depth, features_per_split=fps if fps == "all" else int(fps)))

        cli_out, lib_out = tmp_path / "cli.out", tmp_path / "lib.out"
        if command == "evaluate":
            args = ["--lambda", "0.3", "--depth", "3", "--isac-clusters", "3",
                    "--selectors", "harris,isac"]
            write_report_csv(lib_out, *cross_validate_cells(scn, [
                (partial(HarrisSelector, config(0.3, 3)), 0.3, 3),
                (partial(ClusterSelector, n_clusters=3, seed=5), None, None)]))
        elif command == "sweep":
            args = ["--lambdas", "0,1", "--depths", "2"]
            write_report_csv(lib_out, *sweep(scn, [0.0, 1.0], [2], config=config(0.5, 6)))
        else:
            args = ["--lambda", "0.3", "--depth", "3"]
            scaled, scale = scale_performances(par10_matrix(scn))
            save_forest(fit_forest(impute_features(scn.features, column_medians(scn.features)),
                                   scaled, config(0.3, 3), scale=scale,
                                   algorithm_names=scn.algorithm_names), lib_out)
        result = runner.invoke(main, [command, *scenario_args, *self.FOREST,
                                      "--features-per-split", fps, *args, "-o", str(cli_out)])
        assert result.exit_code == 0, result.output
        assert cli_out.read_bytes() == lib_out.read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "train"])
    def test_bad_features_per_split_is_usage_error(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--synthetic", "--synthetic-n", "30",
                                      "--features-per-split", "half", "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "--features-per-split" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "train"])
    def test_scenario_and_synthetic_is_usage_error(self, runner, tmp_path, command):
        scenario_dir = tmp_path / "scenario"
        write_with_unsolved(scenario_dir, make_synthetic_scenario(30, seed=1))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--synthetic", "--synthetic-n", "30",
                                      "--scenario", str(scenario_dir), "--paper-tree",
                                      "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "--scenario" in result.output and "--synthetic" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "train"])
    @pytest.mark.parametrize("option", [("--synthetic-n", "7"), ("--synthetic-seed", "9"),
                                        ("--synthetic-n", "500")])
    def test_synthetic_options_with_scenario_are_usage_errors(self, runner, tmp_path,
                                                               command, option):
        # --scenario names the data, so these would be ignored, the default too
        scenario_dir = tmp_path / "scenario"
        write_with_unsolved(scenario_dir, make_synthetic_scenario(30, seed=1))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--scenario", str(scenario_dir), *option,
                                      "--paper-tree", "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert option[0] in result.output and "--scenario" in result.output
        assert not out.exists()


class TestPaperTree:
    COMMANDS = {
        "evaluate": ["evaluate", "--selectors", "harris"],
        "sweep": ["sweep", "--lambdas", "0", "--depths", "1"],
        "train": ["train"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("option, flag", [
        (("--n-trees", "5"), "--n-trees"),
        (("--bootstrap",), "--bootstrap/--no-bootstrap"),
        (("--no-bootstrap",), "--bootstrap/--no-bootstrap"),
        (("--features-per-split", "all"), "--features-per-split"),
    ])
    def test_rejects_the_options_it_fixes(self, runner, tmp_path, command, option, flag):
        # --paper-tree is one unbagged tree over all features: these would be ignored
        result = runner.invoke(main, [*self.COMMANDS[command], "--synthetic",
                                      "--synthetic-n", "30", "--paper-tree", *option,
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert flag in result.output and "--paper-tree" in result.output
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_grid_row_count(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "sweep", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--lambdas", "0,1", "--depths", "1,2,3", "--seed", "2", "-o", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_report_csv(out)
        aggregates = [r for r in rows if r.fold is None]
        assert len(aggregates) == 6
        assert len([r for r in rows if r.fold is not None]) == 60

    def test_repeat_run_is_byte_identical(self, runner, tmp_path):
        args = ["sweep", "--synthetic", "--synthetic-n", "90", "--paper-tree",
                "--lambdas", "0,0.5", "--depths", "2", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_cell_matches_evaluate(self, runner, tmp_path):
        common = ["--synthetic", "--synthetic-n", "90", "--n-trees", "3", "--seed", "4"]
        sweep_csv, eval_csv = tmp_path / "sweep.csv", tmp_path / "eval.csv"
        result = runner.invoke(main, ["sweep", *common, "--lambdas", "0.5", "--depths", "3",
                                      "-o", str(sweep_csv)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["evaluate", *common, "--selectors", "harris",
                                      "--lambda", "0.5", "--depth", "3", "-o", str(eval_csv)])
        assert result.exit_code == 0, result.output
        swept = [r for r in read_report_csv(sweep_csv) if r.selector == "harris"]
        assert swept == [r for r in read_report_csv(eval_csv) if r.selector == "harris"]
        assert len(swept) == 11

    @pytest.mark.parametrize("option", [("--lambda", "0.1"), ("--depth", "7")])
    def test_lambda_and_depth_are_not_options(self, runner, tmp_path, option):
        # the grid sets both per cell, so sweep must not take and ignore them
        result = runner.invoke(main, ["sweep", "--synthetic", "--synthetic-n", "30",
                                      "--paper-tree", "--lambdas", "0", "--depths", "1",
                                      *option, "-o", str(tmp_path / "x.csv")])
        assert result.exit_code != 0
        assert "No such option" in result.output

    @pytest.mark.parametrize("grid", [("--lambdas", "0.5,0.50"), ("--depths", "2,2")])
    def test_repeated_grid_value_is_usage_error(self, runner, tmp_path, grid):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["sweep", "--synthetic", "--synthetic-n", "30",
                                      "--paper-tree", "--lambdas", "0.5", "--depths", "2",
                                      *grid, "-o", str(out)])
        assert result.exit_code == 2
        assert f"{grid[0]} '{grid[1]}' must name each value once" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("grid", [("--lambdas", ","), ("--depths", "")])
    def test_empty_grid_is_usage_error(self, runner, tmp_path, grid):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["sweep", "--synthetic", "--synthetic-n", "30",
                                      "--paper-tree", *grid, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"{grid[0]} {grid[1]!r} must name each value once" in result.output
        assert not out.exists()

    def test_bad_grid(self, runner, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--synthetic", "--lambdas", "zero", "-o", str(tmp_path / "x.csv")])
        assert result.exit_code != 0
        assert "--lambdas 'zero'" in result.output and "--depths" not in result.output


class TestTrainPredict:
    def test_round_trip_recovers_best_algorithm(self, runner, tmp_path):
        model = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "2", "--seed", "3", "-o", str(model)])
        assert result.exit_code == 0, result.output

        scn = make_synthetic_scenario(90, seed=0)
        wanted = [0, 17, 55]
        feature_file = tmp_path / "features.csv"
        feature_file.write_text(
            "\n".join(",".join(repr(float(v)) for v in scn.features[i]) for i in wanted) + "\n")
        result = runner.invoke(main, [
            "predict", "-m", str(model), "--features", str(feature_file)])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        for line, i in zip(lines, wanted):
            name, costs = line.split("\t")
            assert name == scn.algorithm_names[int(np.argmin(scn.performances[i]))]
            # costs come back in original units
            assert min(float(c) for c in costs.split(",")) < 100.0

    def test_depth_zero_model_predicts(self, runner, tmp_path):
        # a depth-0 tree is a single leaf: the model must load and predict
        # the training mean for every row
        model = tmp_path / "model.json"
        result = runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "0", "-o", str(model)])
        assert result.exit_code == 0, result.output
        feature_file = tmp_path / "features.csv"
        feature_file.write_text("0.1,0.2,0.3\n0.9,0.8,0.7\n")
        result = runner.invoke(main, [
            "predict", "-m", str(model), "--features", str(feature_file)])
        assert result.exit_code == 0, result.output
        first, second = result.output.strip().splitlines()
        assert first == second

    def test_adjacent_feature_values_split_apart(self, runner, tmp_path):
        # the one feature alternates between two adjacent doubles, whose
        # midpoint rounds up onto the upper one; the best algorithm alternates
        # with it, so a split at the lower value separates them exactly
        values, names = (0.3, 0.1 + 0.2), ("a", "b")
        ids = [f"i{i}" for i in range(20)]
        root = write_aslib(
            tmp_path / "adjacent",
            "scenario_id: adjacent\nalgorithm_cutoff_time: 1000\nalgorithms_deterministic: a,b\n",
            Table("features", ["instance_id", "repetition", "f"],
                  [[iid, "1", repr(values[i % 2])] for i, iid in enumerate(ids)]),
            Table("runs", ["instance_id", "repetition", "algorithm", "runtime", "runstatus"],
                  [[iid, "1", a, "10.0" if i % 2 == j else "100.0", "ok"]
                   for i, iid in enumerate(ids) for j, a in enumerate(names)]),
            Table("cv", ["instance_id", "repetition", "fold"],
                  [[iid, "1", str(i // 2 + 1)] for i, iid in enumerate(ids)]))
        model, rows = tmp_path / "model.json", tmp_path / "rows.csv"
        tree_args = ["--scenario", str(root), "--paper-tree", "--depth", "3"]
        result = runner.invoke(main, ["train", *tree_args, "-o", str(model)])
        assert result.exit_code == 0, result.output
        rows.write_text("".join(f"{v!r}\n" for v in values))
        result = runner.invoke(main, ["predict", "-m", str(model), "--features", str(rows)])
        assert result.exit_code == 0, result.output
        assert [line.split("\t")[0] for line in result.output.splitlines()] == list(names)
        out = tmp_path / "eval.csv"
        result = runner.invoke(main, ["evaluate", *tree_args, "--selectors", "harris,oracle",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        par10 = {r.selector: r.par10 for r in read_report_csv(out) if r.fold is None}
        assert par10["harris"] == par10["oracle"] == 10.0

    def test_wrong_feature_count(self, runner, tmp_path):
        model = tmp_path / "model.json"
        assert runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "1", "-o", str(model)]).exit_code == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.5\n")
        result = runner.invoke(main, ["predict", "-m", str(model), "--features", str(bad)])
        assert result.exit_code != 0
        assert "expected 3 features" in result.output

    @pytest.mark.parametrize("row, message", [
        ("0.1,abc,0.3", "not numeric"),
        ("0.1,0.2", "expected 3 features, got 2"),
        ("0.1,nan,0.3", "must be finite"),
        ("0.1,\udce9,0.3", "not valid UTF-8"),  # the byte 0xe9 alone
    ])
    def test_bad_feature_row_names_file_and_line(self, runner, tmp_path, row, message):
        model = tmp_path / "model.json"
        assert runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "1", "-o", str(model)]).exit_code == 0
        feats = tmp_path / "f.csv"
        feats.write_bytes(f"0.1,0.2,0.3\n\n{row}\n".encode("utf-8", "surrogateescape"))
        result = runner.invoke(main, ["predict", "-m", str(model), "--features", str(feats)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert f"f.csv:3: " in result.output and message in result.output

    def test_overlong_quoted_field_names_its_line(self, runner, tmp_path):
        model = tmp_path / "model.json"
        assert runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "1", "-o", str(model)]).exit_code == 0
        feats = tmp_path / "f.csv"
        feats.write_text('0.1,0.2,0.3\n"' + "1" * 140_000 + '",0.2,0.3\n')
        result = runner.invoke(main, ["predict", "-m", str(model), "--features", str(feats)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert "f.csv:2: unreadable CSV line" in result.output

    def test_bad_later_row_prints_nothing(self, runner, tmp_path):
        model = tmp_path / "model.json"
        assert runner.invoke(main, [
            "train", "--synthetic", "--synthetic-n", "90", "--paper-tree",
            "--depth", "1", "-o", str(model)]).exit_code == 0
        feats = tmp_path / "f.csv"
        feats.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n0.1,nan,0.3\n")
        env = {**os.environ, "PYTHONPATH": str(Path(harris.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "harris.cli", "predict", "-m", str(model),
             "--features", str(feats)],
            capture_output=True, text=True, env=env)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "f.csv:3: " in result.stderr

    def test_same_seed_identical_model_files(self, runner, tmp_path):
        args = ["train", "--synthetic", "--synthetic-n", "90", "--n-trees", "4",
                "--depth", "2", "--seed", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_model_fails_with_a_message(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"format": "harris-forest", "version": {MODEL_VERSION}}}')
        feats = tmp_path / "f.csv"
        feats.write_text("0.1,0.2,0.3\n")
        result = runner.invoke(main, ["predict", "-m", str(bad), "--features", str(feats)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert "bad.json" in result.output and "config" in result.output

    def test_model_version_mismatch(self, runner, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text('{"format": "harris-forest", "version": 99}')
        feats = tmp_path / "f.csv"
        feats.write_text("0.1,0.2,0.3\n")
        result = runner.invoke(main, ["predict", "-m", str(bad), "--features", str(feats)])
        assert result.exit_code != 0
        assert "version" in result.output


class TestReport:
    def test_average_ranks_from_evaluation_csv(self, runner, tmp_path):
        out = tmp_path / "eval.csv"
        assert runner.invoke(main, fast_eval_args(out, selectors="harris,sbs,oracle")) \
            .exit_code == 0
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 0, result.output
        assert "average rank" in result.output
        assert "harris" in result.output

    def test_rejects_foreign_csv(self, runner, tmp_path):
        alien = tmp_path / "alien.csv"
        alien.write_text("a,b\n1,2\n")
        assert runner.invoke(main, ["report", str(alien)]).exit_code != 0

    @pytest.mark.parametrize("par10", ["abc", "nan"])
    def test_bad_aggregate_par10_fails_with_file_and_line(self, runner, tmp_path, par10):
        out = tmp_path / "eval.csv"
        assert runner.invoke(main, fast_eval_args(out, selectors="sbs")).exit_code == 0
        lines = out.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if ",aggregate," in line)
        fields = lines[at].split(",")
        fields[6] = par10
        lines[at] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert f"eval.csv:{at + 1}" in result.output and repr(par10) in result.output
