from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbrank.core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    gain_from_spec,
    gain_spec,
    linear_gain,
    log2_gain,
    ranking_from_scores,
    sigmoid_gain,
    weighted_average_scores,
)

from lbrank import linear, nested
from lbrank.io import DataError, Dataset, write_letor
from lbrank.lovasz import lb_bound, lb_divergence
from lbrank.metrics import borda_points, format_table, ndcg_at_k, ndcg_table
from lbrank.nested import NestedModel, hidden_preactivation

import oracles


class TestRankingFromScores:
    def test_plain_sort(self):
        assert tuple(ranking_from_scores([3.0, 1.0, 2.0]).tolist()) == (0, 2, 1)

    def test_tie_broken_by_lower_index(self):
        assert tuple(ranking_from_scores([5.0, 5.0, 1.0]).tolist()) == (0, 1, 2)

    def test_close_decimal_scores(self):
        assert tuple(ranking_from_scores([0.3591, 0.3696, 0.3764]).tolist()) == (2, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty ground set"):
            ranking_from_scores([])

    def test_matches_reference_sort(self, rng):
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 9)).tolist()
            assert tuple(ranking_from_scores(x).tolist()) == oracles.sorted_order(x)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
           st.integers(-10**5, 10**5), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_shift_and_scale_invariance(self, scores, shift, scale):
        # integer-valued scores keep the shift exact; scaling distinct values
        # spaced >= 1 by a positive factor cannot collapse them either
        base = ranking_from_scores([float(s) for s in scores])
        shifted = ranking_from_scores([float(s + shift) for s in scores])
        scaled = ranking_from_scores([s * scale for s in scores])
        assert np.array_equal(shifted, base)
        assert np.array_equal(scaled, base)

    def test_each_list_of_a_stack_is_ranked_on_its_own(self, rng):
        stack = np.round(rng.normal(size=(3, 4, 6)), 1)  # one decimal: ties within lists
        orders = ranking_from_scores(stack)
        assert orders.shape == stack.shape
        for index in np.ndindex(stack.shape[:-1]):
            assert tuple(orders[index].tolist()) == oracles.sorted_order(stack[index].tolist())

    def test_sorting_sorted_scores_is_idempotent(self, rng):
        # scores that already realize a ranking's order sort back to it
        for _ in range(25):
            n = int(rng.integers(1, 9))
            sigma = rng.permutation(n)
            scores = np.empty(n)
            scores[sigma] = np.arange(n, 0, -1, dtype=float)
            assert np.array_equal(ranking_from_scores(scores), sigma)


class TestRanking:
    # a ranking: an int64 order array, checked by every function that reads one
    ORDER_FUNCTIONS = (lambda o: lb_divergence([3.0, 1.0, 2.0], o, ConcaveGain([1.0, 0.5, 0.25])),
                       lambda o: ndcg_at_k(o, [1.0, 0.0, 2.0], 3, ConcaveGain([1.0, 0.5, 0.25])))

    def test_rejects_duplicates(self):
        for fn in self.ORDER_FUNCTIONS:
            with pytest.raises(ValueError, match="permutation"):
                fn([0, 0, 1])

    def test_rejects_out_of_range(self):
        for fn in self.ORDER_FUNCTIONS:
            with pytest.raises(ValueError, match="permutation"):
                fn([1, 2, 3])

    def test_rejects_empty(self):
        for fn in self.ORDER_FUNCTIONS:
            with pytest.raises(ValueError):
                fn([])


class TestScoreList:
    # one ranker's scores: a flat float array, checked by every function
    # that takes one and stored read-only as a row of the query matrix
    SCORE_FUNCTIONS = (ranking_from_scores,
                       lambda x: lb_divergence(x, [0], ConcaveGain([1.0])),
                       lambda x: lb_bound(x, ConcaveGain([1.0])))

    def test_rejects_nan_and_inf(self):
        for fn in self.SCORE_FUNCTIONS:
            with pytest.raises(ValueError, match="finite"):
                fn([float("nan")])
            with pytest.raises(ValueError, match="finite"):
                fn([float("inf")])

    def test_rejects_empty(self):
        for fn in self.SCORE_FUNCTIONS:
            with pytest.raises(ValueError, match="empty ground set"):
                fn([])

    def test_immutable(self):
        q = QueryInstance("q", [[1.0, 2.0]])
        with pytest.raises(ValueError):
            q.matrix[0][0] = 9.0


class TestConcaveGain:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConcaveGain([1.0, 0.0])

    def test_rejects_increasing_increments(self):
        with pytest.raises(ValueError, match="non-increasing"):
            ConcaveGain([0.5, 1.0])

    def test_rejects_a_total_past_the_double_range(self):
        with pytest.raises(ValueError, match=r"g\(3\) overflows"):
            ConcaveGain([1e308, 1e308, 1e308])
        assert ConcaveGain([1e308, 1e-300]).capacity == 2

    @pytest.mark.parametrize("builder", [sigmoid_gain, log2_gain, linear_gain])
    def test_builders_produce_valid_gains(self, builder):
        gain = builder(12)
        assert gain.capacity == 12
        assert np.all(gain.increments > 0)
        assert np.all(np.diff(gain.increments) <= 0)

    def test_sigmoid_increments(self):
        gain = sigmoid_gain(3)
        expected = [1 / (1 + np.exp(0)), 1 / (1 + np.exp(1)), 1 / (1 + np.exp(2))]
        np.testing.assert_allclose(gain.increments, expected, rtol=1e-15, atol=0)

    def test_sigmoid_gain_survives_large_capacity(self):
        # deep positions floor at a positive increment instead of underflowing
        gain = sigmoid_gain(4000)
        assert gain.capacity == 4000
        assert np.all(gain.increments > 0)
        assert np.all(np.diff(gain.increments) <= 0)

    def test_spec_round_trip_named(self):
        gain = gain_from_spec("log2:7")
        assert gain.kind == "log2"
        again = gain_from_spec(gain_spec(gain))
        np.testing.assert_array_equal(gain.increments, again.increments)

    def test_spec_round_trip_custom(self):
        gain = ConcaveGain([0.7310585786300049, 0.2689414213699951])
        again = gain_from_spec(gain_spec(gain))
        np.testing.assert_array_equal(gain.increments, again.increments)

    def test_spec_requires_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            gain_from_spec("sigmoid")
        assert gain_from_spec("sigmoid", capacity=5).capacity == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gain kind"):
            gain_from_spec("cosine:4")


class TestSimplexWeights:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SimplexWeights([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimplexWeights([1.5, -0.5])

    def test_uniform(self):
        w = SimplexWeights.uniform(4)
        np.testing.assert_array_equal(w.w, np.full(4, 0.25))


class TestQueryInstance:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            QueryInstance("q", [[1.0, 2.0], [1.0]])

    def test_needs_a_list(self):
        with pytest.raises(ValueError, match="at least one"):
            QueryInstance("q", np.empty((0, 2)))

    def test_relevance_validated(self):
        with pytest.raises(ValueError, match="length"):
            QueryInstance("q", [[1.0, 2.0]], relevance=[1.0])
        with pytest.raises(ValueError, match="non-negative"):
            QueryInstance("q", [[1.0, 2.0]], relevance=[1.0, -1.0])

    def test_matrix_layout(self, two_list_query):
        np.testing.assert_array_equal(
            two_list_query.matrix, [[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
        assert two_list_query.k == 2
        assert two_list_query.n == 3


class TestWeightedAverageScores:
    def test_uniform_mean(self, two_list_query):
        out = weighted_average_scores(two_list_query.matrix, SimplexWeights.uniform(2).w)
        np.testing.assert_array_equal(out, [2.0, 2.0, 2.0])

    def test_length_checked(self, two_list_query):
        with pytest.raises(ValueError, match="weight length"):
            weighted_average_scores(two_list_query.matrix, np.array([1.0, 0.0, 0.0]))


_TWO = [[1.0, 2.0], [2.0, 1.0]]  # a 2 x 2 score matrix; [[0.5, 0.5]] is a 1 x 2 W1
_FLAT = np.array([1.0, 2.0, 3.0])  # one score list, where a K x N matrix or a stack belongs


@pytest.mark.parametrize("make, error, match", [
    (lambda: ConcaveGain([]), ValueError, "at least one increment"),
    (lambda: ConcaveGain([1.0, np.inf]), ValueError, "must be finite"),
    (lambda: ConcaveGain([1.0, np.nan]), ValueError, "must be finite"),
    (lambda: gain_from_spec("custom:"), ValueError, "requires increment values"),
    (lambda: gain_from_spec("sigmoid:0"), ValueError, "capacity must be >= 1"),
    (lambda: SimplexWeights([]), ValueError, "non-empty sequence"),
    (lambda: SimplexWeights([np.nan, 1.0]), ValueError, "weights must be finite"),
    # a 2-D array is a stack of score lists, each ranked on its own; a scalar is none
    (lambda: ranking_from_scores(1.0), ValueError, "flat sequence or a stack of them"),
    (lambda: SimplexWeights.uniform(0), ValueError, "at least one ranker"),
    (lambda: QueryInstance("q", [1.0, 2.0]), ValueError, "must be 2-D"),
    (lambda: weighted_average_scores(_FLAT, np.array([1.0])), ValueError,
     "score matrices must be K x N"),
    (lambda: linear.aggregate_scores(
        linear.LinearModel(SimplexWeights([1.0]), ConcaveGain([1.0])), _FLAT),
     ValueError, "score matrices must be K x N"),
    (lambda: nested.aggregate_scores(
        NestedModel(np.ones((1, 1)), SimplexWeights([1.0]), ConcaveGain([1.0])), _FLAT),
     ValueError, "score matrices must be K x N"),
    (lambda: borda_points(_FLAT), ValueError, "score matrices must be K x N"),
    (lambda: QueryInstance("q", np.zeros((2, 0))), ValueError, "empty ground set"),
    (lambda: linear.multiplicative_simplex_update(np.full(2, 0.5), np.zeros(3), 0.1),
     ValueError, "gradient shape"),
    (lambda: linear.train([QueryInstance("a", _TWO), QueryInstance("b", [[1.0, 2.0]])]),
     ValueError, "same ranker count K"),
    (lambda: NestedModel(np.full(2, 0.5), SimplexWeights([1.0]), ConcaveGain([1.0])),
     ValueError, "K2 x K1 matrix"),
    (lambda: NestedModel(np.full((2, 2), 0.5), SimplexWeights([1.0]), ConcaveGain([1.0])),
     ValueError, "W2 length"),
    (lambda: hidden_preactivation(np.full((1, 2), 0.5), np.zeros((2, 2))),
     ValueError, "does not match W1"),
    (lambda: ndcg_table(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]), 0, ConcaveGain([1.0])),
     ValueError, "topk must be >= 1"),
    (lambda: format_table(["Top-1"], ["a"], [[1.0], [0.5]]), ValueError, "one value row"),
    (lambda: write_letor(Dataset((QueryInstance("q", _TWO),)), "never-written.letor"),
     DataError, "requires relevance"),
], ids=["gain-empty", "gain-inf", "gain-nan", "custom-without-values", "capacity-0",
        "weights-empty", "weights-nan", "scores-0d", "uniform-0", "matrix-1d",
        "weighted-average-1d", "linear-scores-1d", "nested-scores-1d", "borda-1d", "matrix-k-by-0",
        "update-gradient-shape", "train-mixed-k", "nested-w1-1d", "nested-w2-short", "hidden-table-shape", "topk-0",
        "table-label-short", "letor-without-relevance"])
def test_library_refuses_malformed_arguments(make, error, match):
    with pytest.raises(error, match=match):
        make()
