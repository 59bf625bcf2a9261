import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from aslib_writer import Table, write_aslib
from harris.errors import ConsistencyError, DomainError, EmptyScenarioError, ParseError
from harris.losses import rank_vector
from harris.scenario import (ScaleParams, Scenario, _read_arff, column_medians,
                             filter_unsolved, impute_features, par10, par10_matrix,
                             parse_scenario, scale_performances)

runtimes = st.floats(min_value=0, max_value=5000, allow_nan=False)

# conftest's demo feature file; its last row is line 9
DEMO_FEATURES = (
    "@relation demo_features\n@attribute instance_id string\n"
    "@attribute repetition numeric\n@attribute width numeric\n@attribute height numeric\n"
    "@data\ninst1,1,1.0,10.0\ninst2,1,2.0,?\ninst3,1,3.0,30.0\n"
)


class TestPar10:
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
        assert impute_features(col).ravel().tolist() == [1.0, 2.0, 3.0]

    def test_no_missing_is_identity(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert impute_features(X).tolist() == X.tolist()

    def test_fully_missing_column_is_zero(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        assert impute_features(X)[:, 0].tolist() == [0.0, 0.0]

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

    def test_transform_applies_train_params_to_test(self):
        params = ScaleParams.fit(np.array([0.0, 10.0]))
        assert params.transform(np.array([20.0])).tolist() == [2.0]

    @given(st.integers(0, 10**6))
    def test_preserves_argmin_and_ranking(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0, 1000, size=(rng.integers(1, 6), rng.integers(2, 5)))
        scaled, _ = scale_performances(costs)
        for before, after in zip(costs, scaled):
            assert np.argmin(before) == np.argmin(after)
            assert rank_vector(before).tolist() == rank_vector(after).tolist()


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


class TestReadArff:
    def test_quoted_attribute_names_keep_their_spaces(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute 'my feat' numeric\n"
                        "@attribute \"other feat\" numeric\n@attribute plain numeric\n"
                        "@data\n1,2,3\n")
        names, _ = _read_arff(path)
        assert names == ["my feat", "other feat", "plain"]

    def test_quoted_fields_keep_their_commas(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "'a,b',1\n\"c,d\",2\nplain,3\n\"c,d\",'a,b'\n")
        _, rows = _read_arff(path)
        assert rows == [(5, ["a,b", "1"]), (6, ["c,d", "2"]), (7, ["plain", "3"]),
                        (8, ["c,d", "a,b"])]

    def test_overlong_double_quoted_field_names_its_line(self, tmp_path):
        path = tmp_path / "x.arff"
        path.write_text("@relation x\n@attribute id string\n@attribute v numeric\n@data\n"
                        "plain,1\n\"" + "a" * 140_000 + "\",2\n")
        with pytest.raises(ParseError, match=r"^x\.arff:6: "):
            _read_arff(path)


# --- parser equivalence --------------------------------------------------------

PADS = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0", " \t"])
QUOTES = st.sampled_from(["", "", "", "'", '"'])
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3000).map(str),
    st.sampled_from(["?", "", "nan", "-0.0", "+2.5", "1e3", "1_0", " 7 "]),
)
# cells the parser never converts: later repetitions, rows of unknown instances
UNREAD_CELLS = st.one_of(NUMBER_CELLS, st.sampled_from(["oops", "inf", "-inf", "1e999"]))
NAMES = ["i0", "i1", "inst 2", "x_3", "i4", "I5", "n6"]


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
def scenario_dirs(draw, broken: bool):
    """Text of an ASLib directory: repeated instances in all three files,
    missing and repeated runs, shuffled rows and run columns. With `broken`,
    the draw may also add a non-numeric cell, a wrong field count, an unknown
    algorithm, or rows of unknown instances."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    p = draw(st.integers(1, 3))
    insts = NAMES[:n]
    algos = [f"a{j}" for j in range(k)]

    frows = draw(st.permutations([[inst, str(rep + 1)] for inst in insts
                                  for rep in range(draw(st.integers(1, 2)))]))
    seen = set()
    for row in frows:  # the first row of an instance in file order is the one read
        cells = UNREAD_CELLS if row[0] in seen else NUMBER_CELLS
        seen.add(row[0])
        row += [draw(cells) for _ in range(p)]
    fattrs = ["instance_id", "repetition"] + [f"f{c}" for c in range(p)]

    run_cols = draw(st.permutations(["instance_id", "repetition", "algorithm", "runtime",
                                     "runstatus"]))
    status = st.sampled_from(["ok", "ok", "OK", " ok", "Ok\t", "timeout", "memout", "crash"])
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
                "runtime": draw(UNREAD_CELLS if (inst, algo) in seen else NUMBER_CELLS),
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
                rows, col = draw(st.sampled_from([(frows, 2 + draw(st.integers(0, p - 1))),
                                                  (rrows, run_cols.index("runtime"))]))
                draw(st.sampled_from(rows))[col] = draw(st.sampled_from(["oops", "1.2.3", "--1"]))
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
                draw(st.sampled_from(crows))[2] = draw(st.sampled_from(["0", "11", "x"]))

    return (description,
            draw(decorated("features", fattrs, frows)),
            draw(decorated("runs", run_cols, rrows)),
            draw(decorated("cv", cv_cols, crows)))


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


class TestParserEquivalence:
    """parse_scenario against the per-row reference parser of tests/oracles.py."""

    def check(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            root = write_aslib(Path(tmp) / "scn", *texts)
            ours = parse_outcome(parse_scenario, root)
            assert ours == parse_outcome(oracles.reference_parse_scenario, root)
        return ours

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=False))
    def test_same_scenario_on_valid_directories(self, texts):
        outcome = self.check(texts)
        assert not isinstance(outcome[0], type), outcome

    @settings(deadline=None, max_examples=100)
    @given(scenario_dirs(broken=True))
    def test_same_error_on_broken_directories(self, texts):
        self.check(texts)
