import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harris.errors import ConsistencyError, DomainError, EmptyScenarioError, ParseError
from harris.losses import rank_vector
from harris.scenario import (ScaleParams, Scenario, _read_arff, column_medians,
                             filter_unsolved, impute_features, par10, par10_matrix,
                             parse_scenario, scale_performances)

runtimes = st.floats(min_value=0, max_value=5000, allow_nan=False)


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
