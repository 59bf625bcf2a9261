import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from harris.errors import DomainError, UndefinedMetric
from harris.losses import kendall_tau_b, rank_vector
from oracles import mse_loss, node_loss, spearman_loss

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)

cost_vectors = st.lists(finite_floats, min_size=2, max_size=8).map(np.array)

# tied vectors: values drawn from a tiny alphabet so ties are frequent
tied_vectors = st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=k, max_size=k)
).map(np.array)

# n x k lists of rows drawn from the same tiny alphabet
tied_matrices = st.tuples(st.integers(1, 6), st.integers(2, 8)).flatmap(
    lambda nk: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=nk[1], max_size=nk[1]),
        min_size=nk[0], max_size=nk[0]))


class TestRankVector:
    def test_strictly_sorted(self):
        assert rank_vector([0.1, 0.5, 0.9]).tolist() == [1, 2, 3]

    def test_tie_averaging(self):
        assert rank_vector([0.5, 0.5, 0.9]).tolist() == [1.5, 1.5, 3]

    def test_mixed_ties(self):
        assert rank_vector([3, 1, 2, 1]).tolist() == [4, 1.5, 3, 1.5]

    @given(cost_vectors)
    def test_matches_counting_definition(self, costs):
        assert rank_vector(costs).tolist() == oracles.counting_ranks(costs)

    @given(tied_matrices)
    def test_ranks_each_row_of_a_matrix(self, rows):
        assert rank_vector(np.array(rows)).tolist() == [oracles.counting_ranks(r) for r in rows]

    @pytest.mark.parametrize("costs", [
        [[0.5], [2.0], [-1.0]],
        [[np.inf, -np.inf, 0.0, np.inf, -np.inf, 1e308]],
        [[-0.0, 0.0, 1.0, -0.0], [0.0, -0.0, -0.0, 0.0]],
    ], ids=["k-of-one", "infinities", "signed-zeros"])
    def test_edge_values_match_counting_definition(self, costs):
        assert rank_vector(np.array(costs)).tolist() == [oracles.counting_ranks(r) for r in costs]

    @pytest.mark.parametrize("k", [128, 300])
    def test_wide_all_tied_rows(self, k):
        # 1 + 2 #smaller + #equal reaches 2k + 1: 257 at k = 128, past 8 bits
        rows = np.stack([np.zeros(k), np.arange(k)[::-1] % 7, np.arange(k, dtype=float)])
        assert rank_vector(rows).tolist() == [oracles.counting_ranks(r) for r in rows]

    @given(tied_matrices)
    def test_ranks_along_the_last_axis_of_any_shape(self, rows):
        a = np.array(rows)
        expected = [oracles.counting_ranks(r) for r in rows]
        assert rank_vector(a[0]).tolist() == expected[0]
        stacked = np.stack([a, a[::-1]])  # 2 x n x k, from a reversed view too
        ranked = rank_vector(stacked)
        assert ranked.shape == stacked.shape and ranked.flags.c_contiguous
        assert ranked.tolist() == [expected, expected[::-1]]

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            rank_vector([0.5, np.nan, 0.1])

    @given(cost_vectors)
    def test_rank_sum_invariant(self, costs):
        k = len(costs)
        assert rank_vector(costs).sum() == pytest.approx(k * (k + 1) / 2)


class TestSpearmanLoss:
    def test_identical(self):
        assert spearman_loss([1, 2, 3], [1, 2, 3]) == 0.0

    def test_reversed(self):
        assert spearman_loss([1, 2, 3], [3, 2, 1]) == 1.0

    def test_one_swap(self):
        # rho = 1 - 6*2/24 = 0.5 -> loss 0.25
        assert spearman_loss([1, 2, 3], [2, 1, 3]) == pytest.approx(0.25, abs=1e-15)

    def test_constant_ranking_is_neutral(self):
        assert spearman_loss([2, 2, 2], [1, 2, 3]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            spearman_loss([1, 2], [1, 2, 3])

    def test_single_entry(self):
        with pytest.raises(DomainError):
            spearman_loss([1], [1])

    def test_exhaustive_permutations_against_d2_formula(self):
        for k in range(2, 7):
            identity = list(range(1, k + 1))
            for perm in itertools.permutations(identity):
                expected = oracles.spearman_loss_strict(perm, identity)
                assert spearman_loss(np.array(perm, float), np.array(identity, float)) \
                    == pytest.approx(expected, abs=1e-12)

    @given(tied_vectors, st.randoms(use_true_random=False))
    def test_tied_vectors_against_counting_oracle(self, costs, rnd):
        other = np.array([rnd.choice([0.0, 1.0, 2.0]) for _ in costs])
        got = spearman_loss(rank_vector(costs), rank_vector(other))
        assert got == pytest.approx(oracles.spearman_loss_counting(costs, other), abs=1e-12)

    @given(cost_vectors, cost_vectors)
    def test_symmetry_and_range(self, c1, c2):
        if len(c1) != len(c2):
            c2 = np.resize(c2, len(c1))
        r1, r2 = rank_vector(c1), rank_vector(c2)
        loss = spearman_loss(r1, r2)
        assert 0.0 <= loss <= 1.0
        assert loss == pytest.approx(spearman_loss(r2, r1), abs=1e-15)

    # quarter-integer costs keep the affine map collision-free in floats
    @given(st.lists(st.integers(-40, 40).map(lambda v: v / 4), min_size=2, max_size=8))
    def test_invariant_under_monotone_transform(self, costs):
        costs = np.array(costs)
        ref = rank_vector(np.arange(len(costs), dtype=float))
        transformed = 3.0 * costs + 11.0
        assert spearman_loss(rank_vector(costs), ref) \
            == pytest.approx(spearman_loss(rank_vector(transformed), ref), abs=1e-12)


class TestMseLoss:
    def test_identity(self):
        assert mse_loss([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_unit_swap(self):
        assert mse_loss([0, 1], [1, 0]) == 1.0

    def test_hand_value(self):
        assert mse_loss([0.2, 0.8, 0.5], [0.0, 1.0, 0.5]) == pytest.approx(0.08 / 3, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            mse_loss([1, 2], [1, 2, 3])


class TestNodeLoss:
    def test_identical_strict_labels_vanish(self):
        Y = np.array([[0.1, 0.2, 0.9]] * 4)
        ranking = rank_vector(Y[0])
        for lam in (0.0, 0.3, 1.0):
            assert node_loss(Y, Y[0], ranking, lam) == 0.0

    def test_lambda_zero_is_pure_mse(self):
        Y = np.array([[0.0, 1.0], [0.4, 0.2]])
        reg = np.array([0.2, 0.6])
        expected = np.mean([mse_loss(y, reg) for y in Y])
        assert node_loss(Y, reg, np.array([1.0, 2.0]), 0.0) == expected

    def test_lambda_one_hand_value(self):
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert node_loss(Y, Y.mean(axis=0), np.array([1.0, 2.0]), 1.0) == 0.5

    def test_empty_dataset(self):
        with pytest.raises(DomainError):
            node_loss(np.empty((0, 3)), np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.5)

    def test_invalid_lambda(self):
        with pytest.raises(DomainError):
            node_loss([[0.0, 1.0]], np.zeros(2), np.array([1.0, 2.0]), 1.5)

    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_affine_in_lambda(self, state):
        rng = np.random.default_rng(state)
        Y = rng.uniform(size=(rng.integers(1, 8), rng.integers(2, 6)))
        reg = rng.uniform(size=Y.shape[1])
        ranking = rank_vector(rng.uniform(size=Y.shape[1]))
        at_zero = node_loss(Y, reg, ranking, 0.0)
        at_one = node_loss(Y, reg, ranking, 1.0)
        for lam in (0.0, 0.5, 1.0):
            expected = lam * at_one + (1.0 - lam) * at_zero
            assert node_loss(Y, reg, ranking, lam) == pytest.approx(expected, abs=1e-12)


class TestKendallTauB:
    def test_identical(self):
        assert kendall_tau_b([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        assert kendall_tau_b([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_one_discordant_pair(self):
        assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=1e-12)

    def test_all_tied_is_undefined(self):
        with pytest.raises(UndefinedMetric):
            kendall_tau_b([2, 2, 2], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            kendall_tau_b([1, 2], [1, 2, 3])

    def test_exhaustive_permutations_against_pair_counts(self):
        for k in range(2, 7):
            identity = np.arange(1.0, k + 1)
            for perm in itertools.permutations(identity):
                expected = oracles.kendall_tau_b_pairs(perm, identity)
                assert kendall_tau_b(np.array(perm), identity) \
                    == pytest.approx(expected, abs=1e-12)

    @given(tied_vectors, st.randoms(use_true_random=False))
    def test_tied_vectors_against_pair_counts(self, costs, rnd):
        other = np.array([rnd.choice([0.0, 1.0, 2.0]) for _ in costs])
        r1, r2 = rank_vector(costs), rank_vector(other)
        expected = oracles.kendall_tau_b_pairs(r1, r2)
        if expected is None:
            with pytest.raises(UndefinedMetric):
                kendall_tau_b(r1, r2)
        else:
            assert kendall_tau_b(r1, r2) == pytest.approx(expected, abs=1e-12)

    @given(cost_vectors, cost_vectors)
    def test_symmetry(self, c1, c2):
        if len(c1) != len(c2):
            c2 = np.resize(c2, len(c1))
        r1, r2 = rank_vector(c1), rank_vector(c2)
        try:
            assert kendall_tau_b(r1, r2) == pytest.approx(kendall_tau_b(r2, r1), abs=1e-15)
        except UndefinedMetric:
            pass
