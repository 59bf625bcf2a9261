import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from harris.errors import DomainError
from harris.losses import rank_vector
from oracles import borda_consensus, mean_label, node_labels

label_matrices = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10**6),
).map(lambda args: np.random.default_rng(args[2]).uniform(size=(args[0], args[1])))


class TestMeanLabel:
    def test_two_rows(self):
        assert mean_label([[0, 1], [1, 0]]).tolist() == [0.5, 0.5]

    def test_singleton_identity(self):
        y = np.array([0.3, 0.7, 0.1])
        assert mean_label([y]).tolist() == y.tolist()

    def test_hand_value(self):
        got = mean_label([[0.2, 0.4, 0.9], [0.4, 0.2, 0.3]])
        assert got == pytest.approx([0.3, 0.3, 0.6])

    def test_empty(self):
        with pytest.raises(DomainError):
            mean_label(np.empty((0, 2)))


class TestBordaConsensus:
    def test_single_instance_is_its_ranking(self):
        y = np.array([0.9, 0.1, 0.5])
        assert borda_consensus([y]).tolist() == rank_vector(y).tolist()

    def test_three_voters(self):
        # rankings [1,2,3], [1,3,2], [2,1,3] -> rank sums 4, 6, 8
        labels = np.array([[1, 2, 3], [1, 3, 2], [2, 1, 3]], dtype=float)
        assert borda_consensus(labels).tolist() == [1, 2, 3]

    def test_opposed_pair_ties(self):
        labels = np.array([[1, 2], [2, 1]], dtype=float)
        assert borda_consensus(labels).tolist() == [1.5, 1.5]

    def test_empty(self):
        with pytest.raises(DomainError):
            borda_consensus(np.empty((0, 2)))

    @given(label_matrices)
    def test_matches_rank_sum_oracle(self, Y):
        assert borda_consensus(Y).tolist() == oracles.borda_by_rank_sums(Y)

    @given(label_matrices)
    def test_valid_ranking(self, Y):
        consensus = borda_consensus(Y)
        k = Y.shape[1]
        assert consensus.sum() == pytest.approx(k * (k + 1) / 2)

    @given(label_matrices)
    def test_unanimity(self, Y):
        stacked = np.tile(Y[0], (3, 1))
        expected = rank_vector(Y[0])
        assert borda_consensus(stacked).tolist() == expected.tolist()

    @given(label_matrices, st.integers(min_value=0, max_value=10**6))
    def test_permutation_equivariance(self, Y, perm_seed):
        perm = np.random.default_rng(perm_seed).permutation(Y.shape[1])
        regression, ranking = node_labels(Y)
        permuted_regression, permuted_ranking = node_labels(Y[:, perm])
        assert permuted_regression.tolist() == regression[perm].tolist()
        assert permuted_ranking.tolist() == ranking[perm].tolist()
