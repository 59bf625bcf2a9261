import contextlib
import gc
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from aslib_writer import Table, render_arff, write_aslib
from harris.errors import ConsistencyError, DomainError, EmptyScenarioError, ParseError
from harris.evaluation import average_rank
from harris import scenario
from harris.losses import rank_vector
from harris.scenario import (ScaleParams, Scenario, _read_arff, _read_features,
                             _split_quoted, column_medians, filter_unsolved,
                             impute_features, par10_matrix, parse_scenario,
                             scale_performances)
from oracles import par10

runtimes = st.floats(min_value=0, max_value=5000, allow_nan=False)

# conftest's demo feature file; its last row is line 9
DEMO_FEATURES = (
    "@relation demo_features\n@attribute instance_id string\n"
    "@attribute repetition numeric\n@attribute width numeric\n@attribute height numeric\n"
    "@data\ninst1,1,1.0,10.0\ninst2,1,2.0,?\ninst3,1,3.0,30.0\n"
)


class TestPar10:
    """The PAR10 oracle of one run, and par10_matrix against it."""

    def test_below_threshold(self):
        assert par10(100.0, True, 1200.0) == 100.0

    def test_timeout_at_1200(self):
        assert par10(1200.0, False, 1200.0) == 12000.0

    def test_timeout_at_7200(self):
        assert par10(7200.0, False, 7200.0) == 72000.0

    def test_finished_at_cutoff_still_penalized(self):
        assert par10(1200.0, True, 1200.0) == 12000.0

    def test_negative_runtime(self):
        with pytest.raises(DomainError):
            par10(-1.0, True, 100.0)

    def test_nonpositive_cutoff(self):
        with pytest.raises(DomainError):
            par10(1.0, True, 0.0)

    @given(runtimes, runtimes, st.floats(min_value=1, max_value=5000))
    def test_monotone_and_penalty_dominates(self, a, b, cutoff):
        lo, hi = sorted((a, b))
        assert par10(lo, True, cutoff) <= par10(hi, True, cutoff)
        if lo < cutoff:
            assert par10(hi, False, cutoff) > par10(lo, True, cutoff)

    @given(st.floats(min_value=0.5, max_value=5000), st.integers(1, 4), st.integers(2, 4),
           st.data())
    def test_matrix_matches_the_oracle(self, cutoff, n, k, data):
        # runtimes below, at and above the cutoff, finished or not
        cells = st.one_of(st.just(cutoff), st.floats(min_value=0, max_value=2 * cutoff))
        runtimes = data.draw(st.lists(cells, min_size=n * k, max_size=n * k))
        finished = data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
        scn = Scenario(name="p", algorithm_names=tuple(f"a{j}" for j in range(k)),
                       feature_names=("f",), features=np.zeros((n, 1)),
                       performances=np.reshape(runtimes, (n, k)),
                       run_ok=np.reshape(finished, (n, k)), cutoff=cutoff,
                       fold_of=np.ones(n, dtype=int),
                       instance_ids=tuple(f"i{i}" for i in range(n)))
        expected = [par10(t, ok, cutoff) for t, ok in zip(runtimes, finished)]
        costs = par10_matrix(scn)
        assert costs.dtype == float and costs.ravel().tolist() == expected


class TestFilterUnsolved:
    def test_all_solved_is_unchanged(self, tiny_scenario):
        solved = filter_unsolved(tiny_scenario)
        assert filter_unsolved(solved) is solved

    def test_drops_unsolved_row_preserving_order(self, tiny_scenario):
        filtered = filter_unsolved(tiny_scenario)
        assert filtered.n_instances == 5
        assert filtered.instance_ids == ("i0", "i1", "i2", "i3", "i5")
        assert filtered.features[4].tolist() == tiny_scenario.features[5].tolist()
        assert filtered.fold_of.tolist() == [1, 2, 1, 2, 2]

    def test_everything_unsolved(self, tiny_scenario):
        scn = Scenario(
            name="dead",
            algorithm_names=tiny_scenario.algorithm_names,
            feature_names=tiny_scenario.feature_names,
            features=tiny_scenario.features.copy(),
            performances=np.full_like(tiny_scenario.performances, 100.0),
            run_ok=np.zeros_like(tiny_scenario.run_ok),
            cutoff=100.0,
            fold_of=tiny_scenario.fold_of.copy(),
            instance_ids=tiny_scenario.instance_ids,
        )
        with pytest.raises(EmptyScenarioError):
            filter_unsolved(scn)


class TestImputeFeatures:
    def test_median_fill(self):
        col = np.array([[1.0], [np.nan], [3.0]])
        assert impute_features(col, column_medians(col)).ravel().tolist() == [1.0, 2.0, 3.0]

    def test_no_missing_is_identity(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert impute_features(X, [9.0, 9.0]).tolist() == X.tolist()

    def test_fully_missing_column_is_zero(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        assert impute_features(X, column_medians(X))[:, 0].tolist() == [0.0, 0.0]

    def test_train_medians_applied_to_test(self):
        train = np.array([[1.0], [5.0]])
        test = np.array([[np.nan]])
        assert impute_features(test, column_medians(train)).ravel().tolist() == [3.0]

    @pytest.mark.parametrize("medians", [[0.5], [0.5, 1.5, 2.5], []])
    def test_medians_need_one_entry_per_column(self, medians):
        # a short vector indexed past its end, a long one went unnoticed
        with pytest.raises(DomainError, match="one median per feature column"):
            impute_features([[1.0, np.nan]], medians)


class TestScalePerformances:
    def test_affine_map(self):
        scaled, params = scale_performances(np.array([[0.0, 5.0], [10.0, 5.0]]))
        assert scaled.tolist() == [[0.0, 0.5], [1.0, 0.5]]
        assert (params.min, params.max) == (0.0, 10.0)

    def test_constant_matrix(self):
        scaled, _ = scale_performances(np.full((2, 3), 7.0))
        assert scaled.tolist() == np.zeros((2, 3)).tolist()

    def test_hand_value(self):
        scaled, _ = scale_performances(np.array([[100.0, 6050.0, 12000.0]]))
        assert scaled[0, 1] == pytest.approx(0.5)

    def test_invert_round_trip(self):
        costs = np.array([[3.0, 9.0], [1.0, 5.0]])
        scaled, params = scale_performances(costs)
        assert params.invert(scaled) == pytest.approx(costs)

    @given(st.integers(0, 10**6))
    def test_preserves_argmin_and_ranking(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0, 1000, size=(rng.integers(1, 6), rng.integers(2, 5)))
        scaled, _ = scale_performances(costs)
        for before, after in zip(costs, scaled):
            assert np.argmin(before) == np.argmin(after)
            assert rank_vector(before).tolist() == rank_vector(after).tolist()


@pytest.mark.parametrize("call", [
    lambda: impute_features(np.array([1.0, np.nan]), [0.5]),
    lambda: impute_features(np.empty((2, 0)), []),
    lambda: impute_features([[1.0, np.nan]], ["a", "b"]),
    lambda: impute_features([[1.0, np.nan]], [0.5, 1j]),
    lambda: column_medians([["a"]]),
    lambda: column_medians(np.empty((0, 2))),
    lambda: scale_performances([]),
    lambda: scale_performances([1.0, 2.0]),
    lambda: scale_performances([["a"]]),
    lambda: scale_performances(np.array([[1.0, 2j]])),
    lambda: scale_performances(np.empty((0, 2))),
    lambda: scale_performances([[1.0, "a"]]),
    lambda: scale_performances("x"),
    lambda: scale_performances([[np.nan, 1.0], [2.0, 3.0]]),
    lambda: scale_performances([[np.inf, 1.0]]),
    lambda: scale_performances([[1.0, -np.inf]]),
    lambda: ScaleParams(0.0, 1.0).invert([["a"]]),
    lambda: average_rank({"a": {"x": "b"}}),
], ids=["vector-features", "no-feature-columns", "string-medians", "complex-medians",
        "string-features", "no-rows", "empty-costs", "vector-costs", "string-costs",
        "complex-costs", "fit-no-costs", "fit-string-costs", "transform-string",
        "nan-costs", "inf-costs", "minus-inf-costs", "invert-strings", "rank-string-par10"])
def test_preprocessing_refuses_bad_input(call):
    # the package's own error, never a raw numpy error or a warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="real numbers|nonempty matrix"):
            call()


class TestParseScenario:
    def test_parses_demo_directory(self, aslib_dir_factory):
        scn = parse_scenario(aslib_dir_factory())
        assert scn.name == "demo"
        assert scn.algorithm_names == ("solver_a", "solver_b")
        assert scn.feature_names == ("width", "height")
        assert scn.n_instances == 3 and scn.n_algorithms == 2 and scn.n_features == 2
        assert scn.cutoff == 100.0
        assert np.isnan(scn.features[1, 1])
        assert scn.run_ok.tolist() == [[True, True], [False, True], [False, False]]
        # failed runs are clamped to the cutoff
        assert scn.performances.tolist() == [[5.0, 50.0], [100.0, 7.5], [100.0, 100.0]]
        assert scn.fold_of.tolist() == [1, 2, 3]

    def test_par10_matrix(self, aslib_dir_factory):
        scn = parse_scenario(aslib_dir_factory())
        assert par10_matrix(scn).tolist() == [[5.0, 50.0], [1000.0, 7.5], [1000.0, 1000.0]]

    def test_round_trip_is_deterministic(self, aslib_dir_factory):
        root = aslib_dir_factory()
        first = parse_scenario(root)
        second = parse_scenario(root)
        assert first.instance_ids == second.instance_ids
        assert np.array_equal(first.features, second.features, equal_nan=True)
        assert np.array_equal(first.performances, second.performances)
        assert np.array_equal(first.run_ok, second.run_ok)
        assert np.array_equal(first.fold_of, second.fold_of)

    def test_missing_file(self, aslib_dir_factory):
        root = aslib_dir_factory(omit=("cv.arff",))
        with pytest.raises(ParseError, match="cv.arff"):
            parse_scenario(root)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ParseError):
            parse_scenario(tmp_path)

    def test_malformed_row_reports_line(self, aslib_dir_factory):
        broken = aslib_dir_factory(features=(
            "@relation x\n@attribute instance_id string\n"
            "@attribute repetition numeric\n@attribute width numeric\n"
            "@data\ninst1,1,1.0\ninst2,1,oops\ninst3,1,3.0\n"))
        with pytest.raises(ParseError, match="feature_values.arff:7"):
            parse_scenario(broken)

    def test_runs_missing_instance(self, aslib_dir_factory):
        runs = (
            "@relation r\n@attribute instance_id string\n@attribute repetition numeric\n"
            "@attribute algorithm string\n@attribute runtime numeric\n"
            "@attribute runstatus {ok,timeout}\n@data\n"
            "inst1,1,solver_a,5.0,ok\ninst1,1,solver_b,50.0,ok\n"
            "inst2,1,solver_a,100.0,timeout\ninst2,1,solver_b,7.5,ok\n"
        )
        with pytest.raises(ConsistencyError):
            parse_scenario(aslib_dir_factory(runs=runs))

    def test_missing_pair_is_treated_as_unfinished(self, aslib_dir_factory):
        runs = (
            "@relation r\n@attribute instance_id string\n@attribute repetition numeric\n"
            "@attribute algorithm string\n@attribute runtime numeric\n"
            "@attribute runstatus {ok,timeout}\n@data\n"
            "inst1,1,solver_a,5.0,ok\n"
            "inst1,1,solver_b,50.0,ok\n"
            "inst2,1,solver_b,7.5,ok\n"
            "inst3,1,solver_a,1.0,ok\n"
            "inst3,1,solver_b,2.0,ok\n"
        )
        scn = parse_scenario(aslib_dir_factory(runs=runs))
        assert not scn.run_ok[1, 0]
        assert scn.performances[1, 0] == scn.cutoff

    def test_bad_fold_value(self, aslib_dir_factory):
        cv = ("@relation c\n@attribute instance_id string\n@attribute repetition numeric\n"
              "@attribute fold numeric\n@data\ninst1,1,1\ninst2,1,11\ninst3,1,3\n")
        with pytest.raises(ParseError, match="cv.arff:7"):
            parse_scenario(aslib_dir_factory(cv=cv))

    @pytest.mark.parametrize("fold", ["inf", "-inf", "nan", "1.7"])
    def test_non_integral_fold_value(self, aslib_dir_factory, fold):
        cv = ("@relation c\n@attribute instance_id string\n@attribute repetition numeric\n"
              f"@attribute fold numeric\n@data\ninst1,1,1\ninst2,1,{fold}\ninst3,1,3\n")
        with pytest.raises(ParseError, match=f"cv.arff:7: not a fold id: '{fold}'"):
            parse_scenario(aslib_dir_factory(cv=cv))

    def test_integral_float_fold_value(self, aslib_dir_factory):
        cv = ("@relation c\n@attribute instance_id string\n@attribute repetition numeric\n"
              "@attribute fold numeric\n@data\ninst1,1,1\ninst2,1,3.0\ninst3,1,3\n")
        assert parse_scenario(aslib_dir_factory(cv=cv)).fold_of.tolist() == [1, 3, 3]

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
    def test_infinite_feature_value(self, aslib_dir_factory, value):
        features = DEMO_FEATURES.replace("inst3,1,3.0,30.0", f"inst3,1,3.0,{value}")
        with pytest.raises(ParseError,
                           match=f"feature_values.arff:9: infinite feature value: '{value}'"):
            parse_scenario(aslib_dir_factory(features=features))

    def test_nan_feature_value_is_missing(self, aslib_dir_factory):
        features = DEMO_FEATURES.replace("inst3,1,3.0,30.0", "inst3,1,3.0,nan")
        assert np.isnan(parse_scenario(aslib_dir_factory(features=features)).features[2, 1])

    def test_infinite_value_in_later_repetition_is_not_read(self, aslib_dir_factory):
        features = DEMO_FEATURES + "inst3,2,inf,oops\n"
        scn = parse_scenario(aslib_dir_factory(features=features))
        assert scn.features[2].tolist() == [3.0, 30.0]

    @pytest.mark.parametrize("cutoff", [".inf", ".nan", "true"])
    def test_cutoff_not_a_positive_finite_number(self, aslib_dir_factory, cutoff):
        description = ("scenario_id: demo\nalgorithms_deterministic: solver_a,solver_b\n"
                       f"algorithm_cutoff_time: {cutoff}\n")
        with pytest.raises(ParseError) as info:
            parse_scenario(aslib_dir_factory(description=description))
        assert str(info.value) == (
            "description.txt: algorithm_cutoff_time must be a positive finite number")

    @pytest.mark.parametrize("fname, old, new, message", [
        ("description.txt", b"maximize: false\n", b"maximize: false\n# caf\xe9\n",
         r"^description\.txt:5: not valid UTF-8$"),
        ("feature_values.arff", b"inst2,1,2.0,?", b"inst2,1,2.0,\xe9",
         r"^feature_values\.arff:8: not valid UTF-8$"),
        ("algorithm_runs.arff", b"inst2,1,solver_b", b"inst2,1,solver_\xe9",
         r"^algorithm_runs\.arff:11: not valid UTF-8$"),
        ("cv.arff", b"inst1,1,1", b"inst\xe9,1,1", r"^cv\.arff:6: not valid UTF-8$"),
        ("description.txt", b"scenario_id: demo", b"scenario_id: " + b"[" * 5000 + b"]" * 5000,
         r"^description\.txt: invalid YAML: maximum recursion depth"),
        ("description.txt", b"solver_a,solver_b", b"5",
         r"^description\.txt: algorithms_deterministic must be a list or a comma-separated "
         r"string$"),
        ("description.txt", b"solver_a,solver_b", b"true", "algorithms_deterministic must be"),
        ("description.txt", b"solver_a,solver_b", b"1.5", "algorithms_deterministic must be"),
        ("description.txt", b"maximize: false", b"algorithms_stochastic: 2",
         "algorithms_stochastic must be"),
    ], ids=["description-utf8", "features-utf8", "runs-utf8", "cv-utf8", "deep-yaml",
            "int-algorithms", "bool-algorithms", "float-algorithms", "int-stochastic"])
    def test_hostile_file_is_a_parse_error(self, aslib_dir_factory, fname, old, new, message):
        root = aslib_dir_factory()
        data = (root / fname).read_bytes()
        assert old in data
        (root / fname).write_bytes(data.replace(old, new))
        with pytest.raises(ParseError, match=message):
            parse_scenario(root)

    def test_missing_cutoff(self, aslib_dir_factory):
        with pytest.raises(ParseError, match="algorithm_cutoff_time"):
            parse_scenario(aslib_dir_factory(description="scenario_id: demo\n"))

    def test_rows_stay_aligned(self, aslib_dir_factory):
        scn = parse_scenario(aslib_dir_factory())
        i = scn.instance_ids.index("inst2")
        assert scn.features[i, 0] == 2.0
        assert scn.performances[i, 1] == 7.5
        assert scn.fold_of[i] == 2

    def test_scenario_arrays_are_read_only(self, aslib_dir_factory):
        scn = parse_scenario(aslib_dir_factory())
        with pytest.raises(ValueError):
            scn.performances[0, 0] = 1.0

    def test_parse_keeps_no_container_per_row(self, tmp_path):
        # A container kept per data row sets off a generation-0 collection
        # every 700 rows. On this directory the reader that kept a list and a
        # tuple per row ran 80 generation-0 collections per parse_scenario
        # (Python 3.11) and 72 in its three file reads alone (3.10 and 3.11);
        # one flat cell list per block runs none in either.
        root, shape = write_wide_scenario(tmp_path / "wide")
        starts = [0, 0, 0]

        def count(phase, info):
            starts[info["generation"]] += phase == "start"

        gc.callbacks.append(count)
        try:
            scn = parse_scenario(root)
        finally:
            gc.callbacks.remove(count)
        assert (scn.n_instances, scn.n_algorithms, scn.n_features) == shape
        assert starts[0] <= 8, starts

    def test_parse_memory_stays_bounded(self, tmp_path):
        # Whole-file field lists, one string per field of a file, took the
        # traced peak of this parse to 18.0 MB (Python 3.11; its feature file
        # alone holds 126,000 fields, about 9 MB as strings). Blocks of
        # BLOCK_FIELDS fields keep it at 5.5 MB: the file's bytes, one block,
        # and the arrays returned.
        root, shape = write_wide_scenario(tmp_path / "wide")
        gc.collect()
        tracemalloc.start()
        try:
            scn = parse_scenario(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (scn.n_instances, scn.n_algorithms, scn.n_features) == shape
        assert peak < 10 * 2**20, peak


def write_wide_scenario(root):
    """A 3,000 x 40 plain directory whose algorithm names come from its runs
    file: its path and (n, k, p)."""
    n, k, p = 3000, 8, 40
    rng = np.random.default_rng(0)
    insts = [f"i{i:05d}" for i in range(n)]
    features = Table("f", ["instance_id", "repetition"] + [f"f{c}" for c in range(p)],
                     [[inst, "1", *map(repr, row)]
                      for inst, row in zip(insts, rng.normal(size=(n, p)).tolist())])
    runs = Table("r", ["instance_id", "repetition", "algorithm", "runtime", "runstatus"],
                 [[inst, "1", f"a{j}", repr(t), "ok"]
                  for inst, row in zip(insts, rng.uniform(0, 100, (n, k)).tolist())
                  for j, t in enumerate(row)])
    cv = Table("c", ["instance_id", "repetition", "fold"],
               [[inst, "1", str(i % 10 + 1)] for i, inst in enumerate(insts)])
    return write_aslib(root, "algorithm_cutoff_time: 100\n", features, runs, cv), (n, k, p)


def read_arff(path):
    """_read_arff(path) with its blocks joined: names, line numbers, cells."""
    names, blocks = _read_arff(path)
    linenos, cells = [], []
    for block_lines, block in blocks:
        linenos += block_lines
        cells += block
    return names, linenos, cells


class TestReadArff:
    def test_quoted_attribute_names_keep_their_spaces(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute 'my feat' numeric\n"
                        "@attribute \"other feat\" numeric\n@attribute plain numeric\n"
                        "@data\n1,2,3\n")
        names, _, _ = read_arff(path)
        assert names == ["my feat", "other feat", "plain"]

    def test_quoted_fields_keep_their_commas(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "'a,b',1\n\"c,d\",2\nplain,3\n\"c,d\",'a,b'\n")
        _, linenos, cells = read_arff(path)
        assert linenos == [5, 6, 7, 8]
        assert cells == ["a,b", "1", "c,d", "2", "plain", "3", "c,d", "a,b"]

    def test_blank_and_comment_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "a,1\n\n% b,2\nc,3\n  \t\n%\nd,4\n")
        assert read_arff(path) == (["id", "v"], [5, 8, 11], ["a", "1", "c", "3", "d", "4"])

    def test_quoted_lines_among_plain_ones(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n"
                        "@attribute s string\n@data\n"
                        "a,1,x\n'b, c' , 2,y\nd,3 ,z\n\"e,f\",4,\"w\"\ng,5,v\n")
        _, linenos, cells = read_arff(path)
        assert linenos == [6, 7, 8, 9, 10]
        assert cells == ["a", "1", "x", "b, c", "2", "y", "d", "3", "z", "e,f", "4", "w",
                         "g", "5", "v"]
        assert (cells[0::3], cells[1::3]) == (["a", "b, c", "d", "e,f", "g"],
                                              ["1", "2", "3", "4", "5"])

    def test_quoted_fields_keep_only_their_inner_spaces(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "' a',1\n'a',2\n\"b \",3\n"
                        "\t' a ' \t, 1\n\"b \" ,\" 2\"\n \"c \"\t,3\n\"d\\\"e \" x ,4\n")
        assert read_arff(path)[2] == [" a", "1", "a", "2", "b ", "3",
                                       " a ", "1", "b ", " 2", "c ", "3", 'd"e  x', "4"]

    def test_ids_differing_in_quoted_spaces_are_two_instances(self, tmp_path):
        ids = ["a", " a"]
        quoted = {(r, 0): ("", "'", "") for r in range(2)}
        features = Table("f", ["instance_id", "repetition", "f0"],
                         [[i, "1", v] for i, v in zip(ids, ["1.0", "2.0"])], dict(quoted))
        runs = Table("r", ["instance_id", "repetition", "algorithm", "runtime", "runstatus"],
                     [[i, "1", a, t, "ok"] for i, t in zip(ids, ["3", "4"]) for a in ("x", "y")],
                     {(r, 0): ("", '"', "") for r in range(4)})
        cv = Table("c", ["instance_id", "repetition", "fold"],
                   [[i, "1", "1"] for i in ids], dict(quoted))
        scn = parse_scenario(write_aslib(tmp_path / "s", "algorithm_cutoff_time: 100\n",
                                         features, runs, cv))
        assert scn.instance_ids == ("a", " a")
        assert scn.features.tolist() == [[1.0], [2.0]]
        assert scn.performances.tolist() == [[3.0, 3.0], [4.0, 4.0]]

    @pytest.mark.parametrize("quoted", ["'a,b',1", "\"a,b\",1"])
    def test_wrong_width_after_a_quoted_line_names_its_line(self, tmp_path, quoted):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        f"p,0\n{quoted}\n\nq,2,3\nr,4\n")
        with pytest.raises(ParseError, match=r"^x\.arff:8: expected 2 fields, got 3$"):
            read_arff(path)

    def test_overlong_double_quoted_field_is_read(self, tmp_path):
        # csv.reader refused a field over csv.field_size_limit() (131,072
        # characters); the ARFF reader has no such limit, quoted or not
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "plain,1\n\"" + "a" * 140_000 + "\",2\n" + "b" * 140_000 + ",3\n")
        assert read_arff(path)[1:] == ([5, 6, 7], ["plain", "1", "a" * 140_000, "2",
                                                    "b" * 140_000, "3"])


class TestQuotingRule:
    """One rule for every data line, whatever else the line holds: inside
    quotes a backslash makes the next character literal, outside quotes it is
    an ordinary character."""

    def test_backslash_reads_alike_in_both_quote_styles(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v string\n@data\n"
                        "\"a\\\\b\",1\n\"a\\\\b\",'1'\n'a\\\\b',\"1\"\n"
                        "'a\\'b',1\n\"a\\\"b\",1\n'a\\,b',1\n"
                        "a\\\\b,1\na\\\\b,'1'\n")
        assert read_arff(path)[2] == ["a\\b", "1", "a\\b", "1", "a\\b", "1",
                                       "a'b", "1", 'a"b', "1", "a,b", "1",
                                       "a\\\\b", "1", "a\\\\b", "1"]

    def test_escaped_quote_at_an_end_is_kept(self, tmp_path):
        # an escaped quote is literal wherever it sits; the unescaped quotes
        # at a field's ends, of either style, are still dropped
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v string\n@data\n"
                        "'it\\'',1\n\"say \\\"hi\\\"\",2\n'\\'x',3\n\"\\'\",4\n"
                        "'\\\"'\",5\n\"'a\",6\n'a\\'''',7\n'b\\'' x',8\n")
        assert read_arff(path)[2] == ["it'", "1", 'say "hi"', "2", "'x", "3", "'", "4",
                                      '"', "5", "a", "6", "a'", "7", "b' x", "8"]
        assert reference_read(path) == read_arff(path)

    def test_doubled_quote_is_not_an_escape(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v string\n@data\n"
                        "\"d\"\"e\",1\n")
        assert read_arff(path)[2] == ['d"e', "1"]

    # besides the space, characters that str.strip and \s both read as
    # whitespace: a splitter that tests for ' ' alone misreads them
    @settings(max_examples=300)
    @given(st.text(st.sampled_from("ab ,'\"\\\t\xa0%\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u3000"),
                   max_size=24).map(str.strip))
    # escaped quotes at an end, and a quote left last once the backslash that
    # ends an unclosed quoted part is dropped
    @example("'it\\'',\"\\\"a\\\"\"")
    @example("'a\\b\"\\")
    @example("\"a'\\")
    def test_splitter_matches_the_reference_grammar(self, line):
        # the reader hands the splitter lines stripped of their outer whitespace
        assert _split_quoted(line) == oracles._reference_fields(line)

    @pytest.mark.parametrize("name, value", [
        ("'it\\'s'", "it's"), ('"say \\"hi\\""', 'say "hi"'), ("'a\\\\b'", "a\\b"),
        ("'\\'x'", "'x"), ("\"a\\,b c\"", "a,b c"), ("'it\\'s' ", "it's"),
        ("'it\\''", "it'"), ("\"x\\\"'\"", 'x"'), ("'\\\\'", "\\")])
    def test_quoted_name_reads_as_the_same_data_field(self, tmp_path, name, value):
        path = tmp_path / "x.arff"
        path.write_text(f"@relation x\n@attribute {name} string\n@data\n{name}\n")
        assert read_arff(path) == ([value], [4], [value])
        assert reference_read(path) == read_arff(path)

    @settings(max_examples=300)
    @given(st.text(st.sampled_from("ab '\"\t,%"), max_size=16))
    def test_names_without_backslashes_read_as_before(self, name):
        # the header rule from before names read escapes; it took closed
        # quotes whole and an unclosed quote as part of the first word
        before = re.compile(r"""@attribute\s+('[^']*'|"[^"]*"|\S+)\s+\S""", re.IGNORECASE)
        line = f"@attribute {name} string".strip()
        match = before.match(line)
        expected = ((ParseError, "x.arff:2: malformed @attribute line") if match is None
                    else [match.group(1).strip("'\"")])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.arff"
            path.write_text(f"@relation x\n{line}\n@data\n", encoding="utf-8")
            for read in (read_arff, reference_read):
                outcome = read_outcome(read, path)
                assert (outcome if match is None else outcome[0]) == expected


# --- plain sections against the per-line path ----------------------------------

PLAIN_IDS = st.text(st.sampled_from("ab_9.-é中Ωx+"), min_size=1, max_size=4)
PLAIN_CELLS = st.one_of(st.sampled_from(["?", "", "nan", "1e3", "-0.0", "+2.5", "1_0"]),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        PLAIN_IDS)


def arff_text(attributes, lines, ends, last_end=True):
    """An ARFF file of these data lines, each ended as drawn; the header ends
    its lines as the first data line does, and the last line may lack one."""
    head = ["@relation t"] + [f"@attribute {a} string" for a in attributes] + ["@data"]
    ends = [ends[0]] * len(head) + list(ends)
    text = "".join(line + end for line, end in zip(head + lines, ends))
    return text if last_end or not lines else text[:-len(ends[-1])]


def per_line(path):
    """read_arff(path) read one line at a time, as a section that is not plain is."""
    with mock.patch.object(scenario, "_plain_bounds", return_value=None):
        return read_arff(path)


def reference_read(path):
    """oracles' reader, flattened to read_arff's (names, line numbers, cells)."""
    attributes, rows = oracles._reference_read_arff(path)
    return attributes, [n for n, _ in rows], [c for _, fields in rows for c in fields]


def read_outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return ParseError, str(exc)


@st.composite
def plain_files(draw, broken: bool):
    """(attributes, data lines, line ends, last line ended) of a plain section:
    drawn width, '?', empty and non-ASCII cells, '\n', '\r\n' or '\r' ends.
    With `broken`, one line gains a comma, the last line loses one, or both,
    which keeps the section's comma total right when they are two lines."""
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(PLAIN_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    lines = [",".join(row) for row in rows]
    if broken:
        r = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["more", "fewer", "both"]))
        if kind != "fewer":
            lines[r] += ",7"
        if kind != "more" and "," in lines[-1]:
            lines[-1] = lines[-1].replace(",", "", 1)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return [f"c{c}" for c in range(width)], lines, ends, draw(st.booleans())


# the block bounds a check parses with: the package's, then blocks of one, two
# and three rows of five fields, as the runs file has
BOUNDS = (scenario.BLOCK_FIELDS, 1, 10, 15)


class TestPlainSections:
    """A plain data section is split in blocks of whole rows; it must read as
    the per-line path and the reference reader read it, errors included, with
    blocks of every bound in BOUNDS."""

    def check(self, drawn, plain=False):
        attributes, lines, ends, last_end = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.arff"
            path.write_text(arff_text(attributes, lines, ends, last_end), encoding="utf-8",
                            newline="")
            expected = read_outcome(reference_read, path)
            assert read_outcome(per_line, path) == expected
            for bound in BOUNDS:
                # a plain section never reaches the per-line path
                with (mock.patch.object(scenario, "_split_lines", side_effect=AssertionError)
                      if plain else contextlib.nullcontext()), \
                        mock.patch.object(scenario, "BLOCK_FIELDS", bound):
                    assert read_outcome(read_arff, path) == expected
        return expected

    @settings(deadline=None, max_examples=150)
    @given(plain_files(broken=False))
    def test_plain_section_reads_as_the_per_line_path(self, drawn):
        # a row of one empty cell is a blank line, which is not plain
        ours = self.check(drawn, plain="" not in drawn[1])
        assert ours[0] == drawn[0]
        assert len(ours[2]) == len(drawn[0]) * len(ours[1])

    @settings(deadline=None, max_examples=150)
    @given(plain_files(broken=True))
    def test_wrong_comma_count_raises_as_the_per_line_path(self, drawn):
        self.check(drawn)

    @pytest.mark.parametrize("lines, message", [
        (["a,1", "b,2,3", "c,4"], "t.arff:6: expected 2 fields, got 3"),
        (["a,1", "b2", "c,4"], "t.arff:6: expected 2 fields, got 1"),
        (["a,1", "b,2,3", "c4"], "t.arff:6: expected 2 fields, got 3"),
        (["a,1", "b2", "c,4,5"], "t.arff:6: expected 2 fields, got 1"),
    ], ids=["extra", "missing", "extra-then-missing", "missing-then-extra"])
    def test_wrong_width_names_the_first_such_line(self, tmp_path, lines, message):
        path = tmp_path / "t.arff"
        path.write_text(arff_text(["id", "v"], lines, ["\n"] * len(lines)))
        for read in (read_arff, per_line, reference_read):
            assert read_outcome(read, path) == (ParseError, message)

    @pytest.mark.parametrize("lines, cells", [
        (["a,1", "% b,2", "c,3"], ["a", "1", "c", "3"]),
        (["a,1", "", "c,3"], ["a", "1", "c", "3"]),
        (["a,1", "'b,x',2", "c,3"], ["a", "1", "b,x", "2", "c", "3"]),
        (["a,1", '"b",2', "c,3"], ["a", "1", "b", "2", "c", "3"]),
        (["a,1", "b, 2", "c,3"], ["a", "1", "b", "2", "c", "3"]),
        (["a,1", "b,\t2", "c,3"], ["a", "1", "b", "2", "c", "3"]),
        (["a,1", "b,2\x0b", "c,3"], ["a", "1", "b", "2", "c", "3"]),
        (["a,1", "b%x,2", "c,3"], ["a", "1", "b%x", "2", "c", "3"]),
        (["a,1", "b,2\xa0", "c,3"], ["a", "1", "b", "2", "c", "3"]),
    ], ids=["comment-line", "blank-line", "single-quoted", "double-quoted", "space", "tab",
            "vertical-tab", "percent-in-field", "no-break-space"])
    def test_any_other_section_is_read_per_line(self, tmp_path, lines, cells):
        path = tmp_path / "t.arff"
        path.write_text(arff_text(["id", "v"], lines, ["\n"] * len(lines)), encoding="utf-8")
        with mock.patch.object(scenario, "_split_lines", wraps=scenario._split_lines) as spy:
            ours = read_arff(path)
        assert spy.call_count == 1
        assert ours[2] == cells
        assert ours == reference_read(path)


class TestFeatureBlock:
    """Without repetitions the feature block drops the id and repetition
    columns in place; with them it gathers each instance's first row (a bad
    cell in a later repetition is no error: TestParseScenario)."""

    @pytest.mark.parametrize("attributes", [
        ["instance_id", "repetition", "f0", "f1"],
        ["repetition", "f0", "instance_id", "f1"],
        ["f0", "f1", "instance_id", "repetition"],
        ["f0", "instance_id", "f1"],
    ], ids=["id-rep-first", "mixed", "id-rep-last", "no-repetition"])
    def test_dropped_columns_give_the_gathered_block(self, tmp_path, attributes):
        values = {"instance_id": ["i0", "i1", "i2"], "repetition": ["1"] * 3,
                  "f0": ["1.5", "?", "-2"], "f1": ["", "1e3", "nan"]}
        rows = [[values[a][r] for a in attributes] for r in range(3)]
        once, again = tmp_path / "once.arff", tmp_path / "again.arff"
        once.write_text(arff_text(attributes, [",".join(r) for r in rows], ["\n"] * 3))
        # a later repetition of i1 makes the reader gather first rows instead
        repeated = [v if a != "instance_id" else "i1" for a, v in zip(attributes, rows[0])]
        again.write_text(arff_text(attributes, [",".join(r) for r in rows + [repeated]],
                                   ["\n"] * 4))
        names, ids, block = _read_features(once)
        assert (names, ids) == (("f0", "f1"), ("i0", "i1", "i2"))
        assert block.tobytes() == np.array([[1.5, np.nan], [np.nan, 1e3],
                                            [-2.0, np.nan]]).tobytes()
        again_names, again_ids, again_block = _read_features(again)
        assert (again_names, again_ids) == (names, ids)
        assert again_block.tobytes() == block.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda runs: runs + "ghost,1,solver_a,1.0,ok\n",
         "algorithm_runs.arff: instance set differs from feature_values.arff "
         "(4 vs 3 instances)"),
        (lambda runs: "\n".join(line for line in runs.split("\n")
                                if not line.startswith("inst3")),
         "algorithm_runs.arff: instance set differs from feature_values.arff "
         "(2 vs 3 instances)"),
    ], ids=["unknown-instance", "missing-instance"])
    def test_run_rows_of_other_instances_are_a_consistency_error(self, aslib_dir_factory,
                                                                 edit, message):
        root = aslib_dir_factory()
        runs = root / "algorithm_runs.arff"
        runs.write_text(edit(runs.read_text()))
        assert parse_outcome(parse_scenario, root) == (ConsistencyError, message)
        assert parse_outcome(oracles.reference_parse_scenario, root) == (ConsistencyError,
                                                                         message)


# --- parser equivalence --------------------------------------------------------

PADS = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0", " \t"])
QUOTES = st.sampled_from(["", "", "", "'", '"'])
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3000).map(str),
    st.sampled_from(["?", "", "nan", "-0.0", "+2.5", "1e3", "1_0", " 7 "]),
)
# cells the parser never converts: later repetitions, rows of unknown instances
UNREAD_WORDS = st.sampled_from(["oops", "inf", "-inf", "1e999"])
# a broken directory's bad cells: not numbers, infinite (an error in a feature
# cell only), and fold cells that are not an integer in 1..10
BAD_NUMBERS = ["oops", "1.2.3", "--1"]
INFINITIES = ["inf", "-inf", "1e999"]
BAD_FOLDS = ["0", "11", "x", "1.7", "inf", "nan", "?", ""]
NAMES = ["i0", "i1", "inst 2", "x_3", "i4", "I5", "n6"]
STATUSES = ["ok", "ok", "OK", " ok", "Ok\t", "timeout", "memout", "crash"]


@st.composite
def decorated(draw, relation, attributes, rows):
    """A Table of these rows with drawn quotes, padding and comment lines."""
    table = Table(relation, attributes, rows)
    for r, row in enumerate(rows):
        if draw(st.integers(0, 5)) == 0:
            table.extras[r] = draw(st.lists(
                st.sampled_from(["", "   ", "\t", "% note", "  % x, 'y'", "%"]),
                min_size=1, max_size=2))
        if draw(st.booleans()):
            for c in range(len(row)):
                table.styles[r, c] = (draw(PADS), draw(QUOTES), draw(PADS))
    return table


@st.composite
def scenario_dirs(draw, broken: bool, plain: bool = False):
    """Text of an ASLib directory: repeated instances in all three files,
    missing and repeated runs, shuffled rows and run columns. With `broken`,
    the draw may also add a non-numeric or infinite feature cell, a
    non-numeric runtime, a wrong field count, an unknown algorithm, a fold
    that is not an integer in 1..10, or rows of unknown instances. With
    `plain`, no cell holds whitespace and no table is decorated, so every
    data section whose field counts are right is plain."""
    names, statuses, number_cells = NAMES, STATUSES, NUMBER_CELLS
    if plain:
        names = [name.replace(" ", "") for name in NAMES]
        statuses = [status for status in STATUSES if status == status.strip()]
        number_cells = NUMBER_CELLS.filter(lambda cell: cell == cell.strip())
    unread_cells = st.one_of(number_cells, UNREAD_WORDS)
    runtime_cells = st.one_of(number_cells, st.just("inf"))  # inf: an unfinished run
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    p = draw(st.integers(1, 3))
    insts = names[:n]
    algos = [f"a{j}" for j in range(k)]

    frows = draw(st.permutations([[inst, str(rep + 1)] for inst in insts
                                  for rep in range(draw(st.integers(1, 2)))]))
    seen = set()
    for row in frows:  # the first row of an instance in file order is the one read
        cells = unread_cells if row[0] in seen else number_cells
        seen.add(row[0])
        row += [draw(cells) for _ in range(p)]
    fattrs = ["instance_id", "repetition"] + [f"f{c}" for c in range(p)]

    run_cols = draw(st.permutations(["instance_id", "repetition", "algorithm", "runtime",
                                     "runstatus"]))
    status = st.sampled_from(statuses)
    listed = draw(st.booleans())
    runs = []
    for i, inst in enumerate(insts):
        for j, algo in enumerate(algos):
            # every instance has a run, and every algorithm one unless listed
            fewest = 1 if j == 0 or (i == 0 and not listed) else 0
            runs += [(inst, algo, rep) for rep in range(draw(st.integers(fewest, 2)))]
    rrows = []
    seen = set()
    for inst, algo, rep in draw(st.permutations(runs)):
        cell = {"instance_id": inst, "repetition": str(rep + 1), "algorithm": algo,
                "runtime": draw(unread_cells if (inst, algo) in seen else runtime_cells),
                "runstatus": draw(status)}
        seen.add((inst, algo))
        rrows.append([cell[c] for c in run_cols])

    crows = []
    for inst in insts:
        for rep in range(draw(st.integers(1, 2))):
            fold = draw(st.integers(1, 10))
            crows.append([inst, str(rep + 1), draw(st.sampled_from([str(fold), f"{fold}.0"]))])
    crows = draw(st.permutations(crows))

    description = "scenario_id: gen\nperformance_measures: runtime\n"
    description += f"algorithm_cutoff_time: {draw(st.sampled_from(['100', '7.5', '1e3']))}\n"
    if listed:
        description += f"algorithms_deterministic: {','.join(algos)}\n"

    cv_cols = ["instance_id", "repetition", "fold"]
    if broken:  # every table has a row for each instance, so none is empty
        kinds = draw(st.lists(st.sampled_from(["cell", "width", "algorithm", "ghost", "fold"]),
                              min_size=1, max_size=2))
        for kind in sorted(kinds, key=lambda kind: kind == "width"):  # widths last
            if kind == "cell":
                rows, col, bad = draw(st.sampled_from([
                    (frows, 2 + draw(st.integers(0, p - 1)), BAD_NUMBERS + INFINITIES),
                    (rrows, run_cols.index("runtime"), BAD_NUMBERS)]))
                draw(st.sampled_from(rows))[col] = draw(st.sampled_from(bad))
            elif kind == "width":
                row = draw(st.sampled_from(draw(st.sampled_from([frows, rrows, crows]))))
                if draw(st.booleans()):
                    row.append("1")
                else:
                    row.pop()
            elif kind == "algorithm":
                draw(st.sampled_from(rrows))[run_cols.index("algorithm")] = "zz"
            elif kind == "ghost":
                rows, cols = draw(st.sampled_from([(rrows, run_cols), (crows, cv_cols)]))
                ghost = {"instance_id": "ghost", "repetition": "1", "algorithm": "zz",
                         "runtime": "oops", "runstatus": "ok", "fold": "99"}
                rows.insert(draw(st.integers(0, len(rows))), [ghost[c] for c in cols])
            else:
                draw(st.sampled_from(crows))[2] = draw(st.sampled_from(BAD_FOLDS))

    tables = [("features", fattrs, frows), ("runs", run_cols, rrows), ("cv", cv_cols, crows)]
    return (description, *(Table(*table) if plain else draw(decorated(*table))
                           for table in tables))


def parse_outcome(parse, root):
    """Everything a parse yields, as comparable values: the scenario's names,
    ids and array bytes (NaN positions included), or the error raised."""
    try:
        scn = parse(root)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (scn.features, scn.performances, scn.run_ok, scn.fold_of)
    return (scn.name, scn.algorithm_names, scn.feature_names, scn.instance_ids, scn.cutoff,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def same_outcome_in_blocks(root):
    """parse_outcome of parse_scenario(root) with each block bound in BOUNDS,
    checked equal to the reference parser's, which it returns."""
    expected = parse_outcome(oracles.reference_parse_scenario, root)
    for bound in BOUNDS:
        with mock.patch.object(scenario, "BLOCK_FIELDS", bound):
            assert parse_outcome(parse_scenario, root) == expected
    return expected


class TestParserEquivalence:
    """parse_scenario against the per-row reference parser of tests/oracles.py,
    with blocks of every bound in BOUNDS."""

    def check(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            return same_outcome_in_blocks(write_aslib(Path(tmp) / "scn", *texts))

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=False))
    def test_same_scenario_on_valid_directories(self, texts):
        outcome = self.check(texts)
        assert not isinstance(outcome[0], type), outcome

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=True))
    def test_same_error_on_broken_directories(self, texts):
        self.check(texts)


# characters str.splitlines() breaks a line at, but file iteration does not
ODD_CHARS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def odd_line_dirs(draw, broken: bool):
    """A scenario_dirs draw written with mixed '\\n', '\\r\\n' and lone '\\r'
    line ends, an odd character inside the instance names or at the ends of
    lines, as (description, {file name: text})."""
    description, *tables = draw(scenario_dirs(broken=broken))
    odd = draw(st.sampled_from(ODD_CHARS))
    inner = draw(st.booleans())
    texts = {}
    for name, table in zip(("feature_values.arff", "algorithm_runs.arff", "cv.arff"), tables):
        col = table.attributes.index("instance_id")
        for row in table.rows:
            if inner and col < len(row):
                row[col] = row[col][:1] + odd + row[col][1:]
        lines = render_arff(table).split("\n")[:-1]
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(lines), max_size=len(lines)))
        pads = draw(st.lists(st.sampled_from(["", "", odd, " " + odd]),
                             min_size=len(lines), max_size=len(lines)))
        texts[name] = "".join(line + pad + end for line, pad, end in zip(lines, pads, ends))
    return description, texts


class TestLineEndingEquivalence:
    """parse_scenario against the reference parser on files whose lines end
    in '\\r\\n' or a lone '\\r' and hold characters that are line breaks to
    str.splitlines() only, so line numbers in errors must still agree."""

    def check(self, description, texts):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "description.txt").write_text(description, encoding="utf-8")
            for name, text in texts.items():
                (root / name).write_text(text, encoding="utf-8", newline="")
            return same_outcome_in_blocks(root)

    @settings(deadline=None, max_examples=60)
    @given(odd_line_dirs(broken=False))
    def test_same_scenario_on_valid_directories(self, drawn):
        outcome = self.check(*drawn)
        assert not isinstance(outcome[0], type), outcome

    @settings(deadline=None, max_examples=60)
    @given(odd_line_dirs(broken=True))
    def test_same_error_on_broken_directories(self, drawn):
        self.check(*drawn)

    @pytest.mark.parametrize("odd", ODD_CHARS)
    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_error_line_counts_file_lines_only(self, aslib_dir_factory, odd, end):
        root = aslib_dir_factory()
        text = DEMO_FEATURES.replace("inst2,1,2.0,?", f"in{odd}st2,1,2.0,?{odd}")
        text = text.replace("inst3,1,3.0,30.0", "inst3,1,oops,30.0").replace("\n", end)
        (root / "feature_values.arff").write_text(text, encoding="utf-8", newline="")
        outcome = (ParseError, "feature_values.arff:9: not a number: 'oops'")
        assert parse_outcome(parse_scenario, root) == outcome
        assert parse_outcome(oracles.reference_parse_scenario, root) == outcome


# --- blocks --------------------------------------------------------------------

class TestPlainDirectories:
    """parse_scenario against the reference parser on directories whose every
    section is plain, and so split in blocks, with every bound in BOUNDS."""

    check = TestParserEquivalence.check

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=False, plain=True))
    def test_same_scenario_on_plain_directories(self, texts):
        outcome = self.check(texts)
        assert not isinstance(outcome[0], type), outcome

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=True, plain=True))
    def test_same_error_on_plain_broken_directories(self, texts):
        self.check(texts)


BOUNDARY_INSTS = ["i0", "i1", "i2", "i3", "i4"]


def _insert(row):
    return lambda rows, r: rows.insert(r, list(row))


def _put(col, value):
    return lambda rows, r: rows[r].__setitem__(col, value)


class TestBlockBoundaries:
    """A row that changes what the parser reads, put at every position of its
    file, so that with blocks of one, two and three rows it falls before, on
    and after the edge of a block; every outcome is the reference parser's."""

    def tables(self):
        features = [[inst, "1", f"{i}.5", "?" if i == 2 else str(-i), "1e3"]
                    for i, inst in enumerate(BOUNDARY_INSTS)]
        runs = [[inst, "1", algo, f"{i + 2 * j}.25", "timeout" if (i + j) % 3 == 2 else "ok"]
                for i, inst in enumerate(BOUNDARY_INSTS) for j, algo in enumerate(["a0", "a1"])]
        cv = [[inst, "1", str(i + 1)] for i, inst in enumerate(BOUNDARY_INSTS)]
        return {"features": features, "runs": runs, "cv": cv}

    def outcomes(self, tmp_path, description, tables):
        root = write_aslib(tmp_path, description,
                           Table("f", ["instance_id", "repetition", "f0", "f1", "f2"],
                                 tables["features"]),
                           Table("r", ["instance_id", "repetition", "algorithm", "runtime",
                                       "runstatus"], tables["runs"]),
                           Table("c", ["instance_id", "repetition", "fold"], tables["cv"]))
        return same_outcome_in_blocks(root)

    @pytest.mark.parametrize("table, edit, inserts, error", [
        ("features", _insert(["i1", "2", "oops", "inf", ""]), True, None),
        ("features", _put(3, "oops"), False, ParseError),
        ("runs", _insert(["i1", "2", "a1", "99", "ok"]), True, None),
        ("runs", _insert(["i1", "2", "a1", "oops", "ok"]), True, None),
        ("runs", _put(3, "oops"), False, ParseError),
        ("runs", _insert(["ghost", "1", "zz", "oops", "ok"]), True, ConsistencyError),
        ("runs", _put(2, "zz"), False, ParseError),
        ("cv", _insert(["ghost", "1", "99"]), True, ConsistencyError),
        ("cv", _put(2, "11"), False, ParseError),
    ], ids=["repeated-instance", "bad-feature", "later-run",
            "bad-later-run", "bad-runtime", "unknown-instance", "unknown-algorithm",
            "unknown-cv-instance", "bad-fold"])
    def test_row_at_every_position(self, tmp_path, table, edit, inserts, error):
        description = "algorithm_cutoff_time: 50\nalgorithms_deterministic: a0,a1\n"
        kinds = set()
        for r in range(len(self.tables()[table]) + inserts):
            tables = self.tables()
            edit(tables[table], r)
            outcome = self.outcomes(tmp_path / str(r), description, tables)
            kinds.add(outcome[0] if isinstance(outcome[0], type) else None)
        # an inserted repetition or later run is read only where it comes first
        assert error in kinds and len(kinds) <= 1 + (error is None)

    @pytest.mark.parametrize("second", [False, True], ids=["one-algorithm", "second-at-end"])
    def test_bad_runtime_before_the_second_algorithm_name(self, tmp_path, second):
        # without an algorithm list the names come from the runs file, block
        # by block; a bad runtime is reported only once a second name is seen
        runs = [[inst, "1", "a0", "1.0", "ok"] for inst in BOUNDARY_INSTS]
        runs += [["i0", "1", "a1", "2.0", "ok"]] if second else []
        for r in range(len(BOUNDARY_INSTS)):
            tables = {**self.tables(), "runs": [list(row) for row in runs]}
            tables["runs"][r][3] = "oops"
            outcome = self.outcomes(tmp_path / str(r), "algorithm_cutoff_time: 50\n", tables)
            message = (f"algorithm_runs.arff:{9 + r}: not a number: 'oops'" if second
                       else "algorithm_runs.arff: need at least two algorithms")
            assert outcome == (ParseError, message)

    @pytest.mark.parametrize("table, first, then, message", [
        ("runs", _put(3, "oops"), _put(3, "oops"), "not a number: 'oops'"),
        ("runs", _put(3, "oops"), _put(2, "zz"), "not a number: 'oops'"),
        ("runs", _put(2, "zz"), _put(3, "oops"), "unknown algorithm 'zz'"),
        ("features", _put(3, "-inf"), _put(2, "oops"), "infinite feature value: '-inf'"),
        ("features", _put(3, "oops"), _put(2, "-inf"), "not a number: 'oops'"),
    ], ids=["two-bad-runtimes", "unknown-algorithm-after", "unknown-algorithm-before",
            "bad-feature-after-infinite", "infinite-after-bad-feature"])
    def test_first_bad_row_in_file_order(self, tmp_path, table, first, then, message):
        # two bad rows at every pair of neighbouring positions, so that they
        # share a block for every bound in BOUNDS but 1 somewhere; the runs
        # come in falling (instance, algorithm) key order, so the later of
        # two bad runtimes has the smaller key
        description = "algorithm_cutoff_time: 50\nalgorithms_deterministic: a0,a1\n"
        fname = {"features": "feature_values.arff", "runs": "algorithm_runs.arff"}[table]
        for r in range(len(self.tables()[table]) - 1):
            tables = self.tables()
            tables["runs"].sort(key=lambda row: (row[2], row[0]), reverse=True)
            first(tables[table], r)
            then(tables[table], r + 1)
            outcome = self.outcomes(tmp_path / str(r), description, tables)
            assert outcome == (ParseError, f"{fname}:{9 + r}: {message}")


class TestBlockShape:
    @settings(deadline=None, max_examples=150)
    @given(plain_files(broken=False), st.integers(1, 12))
    def test_blocks_hold_whole_rows_and_line_numbers_run_on(self, drawn, bound):
        attributes, lines, ends, last_end = drawn
        assume("" not in lines)  # a row of one empty cell is a blank line: not plain
        width = len(attributes)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.arff"
            path.write_text(arff_text(attributes, lines, ends, last_end), encoding="utf-8",
                            newline="")
            with mock.patch.object(scenario, "BLOCK_FIELDS", bound):
                names, blocks = _read_arff(path)
                blocks = list(blocks)
            expected = reference_read(path)
        rows = len(lines)
        per_block = max(1, bound // width)  # one row when a row holds more fields
        assert [len(linenos) for linenos, _ in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1][0]) <= per_block
        for linenos, cells in blocks:
            assert len(cells) == width * len(linenos)
            assert len(cells) <= bound or len(linenos) == 1
        first = len(attributes) + 3  # after @relation, the attributes and @data
        assert [n for linenos, _ in blocks for n in linenos] == list(range(first, first + rows))
        assert (names, [n for linenos, _ in blocks for n in linenos],
                [c for _, cells in blocks for c in cells]) == expected
