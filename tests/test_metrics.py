from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbrank.core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    log2_gain,
    ranking_from_scores,
    sigmoid_gain,
)
from lbrank.io import DataError, Dataset
from lbrank.linear import LinearHyper, LinearModel
from lbrank.linear import infer as linear_infer
from lbrank.lovasz import lb_bound, lb_divergence
from lbrank.metrics import (
    baseline_average,
    baseline_borda,
    borda_points,
    format_table,
    ndcg_at_k,
    ndcg_table,
    write_metric_csv,
)

import oracles
from conftest import make_query
from oracles import error_rate, ndcg_loss, ndcg_loss_from_divergence


class TestRelevanceJudgments:
    # relevance grades: a float array, checked where they enter
    def test_validation(self, small_gain):
        grade_functions = (lambda r: ndcg_at_k([0, 1], r, 1, small_gain),
                           lambda r: QueryInstance("q", [[1.0, 2.0]], relevance=r))
        for fn in grade_functions:
            with pytest.raises(ValueError, match="non-negative"):
                fn([-1.0, 2.0])
            with pytest.raises(ValueError):
                fn([])

    def test_ideal_order(self):
        assert tuple(ranking_from_scores([1.0, 3.0, 2.0]).tolist()) == (1, 2, 0)


# one-decimal grades whose perfect rankings score below 1 when the DCG and
# its ideal are summed by kernels that round differently
ONE_DECIMAL_GRADES = [([2.2, 3.7, 3.3, 0.1, 3.4], sigmoid_gain(5)), ([2.5, 4.0], log2_gain(2))]


class TestNdcg:
    def test_perfect_ranking_scores_one_at_every_k(self, small_gain, rng):
        cases = [(rng.integers(0, 4, size=3).astype(float), small_gain) for _ in range(10)]
        for r, discount in cases + ONE_DECIMAL_GRADES:
            r = np.asarray(r)
            if not np.any(r > 0):
                continue
            sigma = ranking_from_scores(r)
            for k in range(1, r.size + 1):
                assert ndcg_at_k(sigma, r, k, discount) == 1.0

    def test_single_swap_value(self):
        discount = ConcaveGain([0.8, 0.3])
        got = ndcg_at_k([1, 0], [1.0, 0.0], 2, discount)
        assert got == pytest.approx(0.3 / 0.8, abs=1e-15)

    def test_all_equal_relevance_is_one_for_any_ranking(self, small_gain):
        cases = [([2.0] * 3, small_gain)] + [([grade] * len(grades), discount)
                                             for grades, discount in ONE_DECIMAL_GRADES
                                             for grade in grades]
        for rel, discount in cases:
            for order in oracles.all_orders(len(rel)):
                for k in range(1, len(rel) + 1):
                    assert ndcg_at_k(order, rel, k, discount) == 1.0

    def test_no_relevant_candidates(self, small_gain):
        with pytest.raises(ValueError, match="no relevant candidates"):
            ndcg_at_k([0, 1, 2], [0.0, 0.0, 0.0],
                      2, small_gain)

    def test_k_bounds_checked(self, small_gain):
        rel = [1.0, 0.0, 2.0]
        with pytest.raises(ValueError, match="k="):
            ndcg_at_k([0, 1, 2], rel, 4, small_gain)

    def test_matches_oracle(self, gain6, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            r = rng.integers(0, 5, size=n).astype(float)
            if not np.any(r > 0):
                continue
            order = tuple(rng.permutation(n).tolist())
            k = int(rng.integers(1, n + 1))
            got = ndcg_at_k(order, r, k, gain6)
            want = oracles.ndcg(order, r.tolist(), gain6.increments[:n].tolist(), k)
            assert got == pytest.approx(want, abs=1e-12)

    def test_relabeling_candidates_leaves_ndcg_unchanged(self, gain6, rng):
        for _ in range(15):
            n = int(rng.integers(2, 7))
            r = rng.integers(0, 5, size=n).astype(float) + 0.5
            sigma = rng.permutation(n)
            relabel = rng.permutation(n)
            # candidate c becomes relabel[c]; the ranking follows suit
            r2 = np.empty(n)
            r2[relabel] = r
            sigma2 = relabel[sigma]
            a = ndcg_at_k(sigma, r, n, gain6)
            b = ndcg_at_k(sigma2, r2, n, gain6)
            assert a == pytest.approx(b, abs=1e-12)

    def test_loss_is_complement(self, small_gain):
        rel = [1.0, 0.0]
        discount = ConcaveGain([0.8, 0.3])
        assert ndcg_loss([0, 1], rel, discount) == pytest.approx(0.0)
        assert ndcg_loss([1, 0], rel, discount) == pytest.approx(1 - 0.3 / 0.8)


class TestNdcgTable:
    @staticmethod
    def grouped(scores, rel, topk, discount):
        """ndcg_table of ragged queries, one call per block of a hand-built dataset."""
        dataset = Dataset(tuple(QueryInstance(f"q{i}", [x], r)
                                for i, (x, r) in enumerate(zip(scores, rel))))
        table = np.empty((len(dataset.queries), topk))
        for block in dataset.blocks:
            # each query's one score list is its item of a (Q_N, N) block
            table[block.index] = ndcg_table(block.scores[:, 0], block.relevance, topk, discount)
        return table

    @staticmethod
    def per_query(scores, rel, topk, discount):
        rows = []
        for x, r in zip(scores, rel):
            order = ranking_from_scores(x)
            rows.append([ndcg_at_k(order, r, min(k, x.size), discount)
                         if np.any(r > 0.0) else 0.0
                         for k in range(1, topk + 1)])
        return np.array(rows)

    def test_matches_per_query_ndcg_bit_for_bit(self, rng):
        # ragged N on both sides of topk, ties in scores and grades, and
        # queries without any relevant candidate
        sizes = [1, 2, 3, 7, 12, 40, 5, 9]
        scores = [np.round(rng.normal(size=n), 1) for n in sizes]
        rel = [rng.integers(0, 4, size=n).astype(float) for n in sizes]
        rel[2] = np.zeros(3)
        rel[6] = np.zeros(5)
        discount = sigmoid_gain(max(sizes))
        for topk in (1, 4, 10, 45):
            got = self.grouped(scores, rel, topk, discount)
            want = self.per_query(scores, rel, topk, discount)
            assert got.shape == (len(sizes), topk)
            np.testing.assert_array_equal(got, want)
            assert not np.any(got[[2, 6]])

    @pytest.mark.parametrize("discount", [sigmoid_gain(12), log2_gain(12)],
                             ids=["sigmoid", "log2"])
    def test_perfect_rankings_score_exactly_one(self, discount):
        # ragged queries of one-decimal grades, each ranked by its own grades
        rng = np.random.default_rng(5)
        rel = [rng.integers(1, 41, size=n) / 10.0 for n in rng.integers(1, 13, size=500)]
        for grades, _ in ONE_DECIMAL_GRADES:
            rel.append(np.array(grades))
        for topk in (1, 5, 12):
            assert np.all(self.grouped(rel, rel, topk, discount) == 1.0)

    @given(st.lists(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                             min_size=1, max_size=15), min_size=1, max_size=6),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_query_ndcg_on_random_queries(self, queries, topk):
        scores = [np.array([s for s, _ in q], dtype=float) for q in queries]
        rel = [np.array([r for _, r in q], dtype=float) for q in queries]
        discount = sigmoid_gain(15)
        np.testing.assert_array_equal(self.grouped(scores, rel, topk, discount),
                                      self.per_query(scores, rel, topk, discount))

    def test_rejects_bad_inputs(self, small_gain):
        x = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="equal length"):
            ndcg_table(x, np.array([[1.0, 0.0]]), 2, small_gain)
        with pytest.raises(ValueError, match="equal length"):
            ndcg_table(x[0], np.ones(3), 2, small_gain)  # one query is a block of one
        with pytest.raises(ValueError, match="non-negative"):
            ndcg_table(x, np.array([[1.0, -1.0, 0.0]]), 2, small_gain)
        with pytest.raises(ValueError, match="finite"):
            ndcg_table(np.array([[1.0, np.nan, 0.0]]), np.ones((1, 3)), 2, small_gain)
        with pytest.raises(ValueError, match="discount covers"):
            ndcg_table(np.arange(5.0)[np.newaxis], np.ones((1, 5)), 4, small_gain)


class TestDivergenceLinkage:
    def test_scaled_divergence_equals_ndcg_loss(self, gain6, rng):
        # relevance := scores and discount := gain increments make the
        # normalized divergence the exact NDCG loss
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.0, 3.0, size=n)
            if not np.any(x > 0):
                continue
            sigma = rng.permutation(n)
            d = lb_divergence(x, sigma, gain6)
            loss_a = ndcg_loss_from_divergence(d, x, gain6)
            loss_b = ndcg_loss(sigma, x, gain6)
            assert loss_a == pytest.approx(loss_b, abs=1e-10)

    def test_loss_bounded_by_scaled_bound(self, gain6, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.0, 3.0, size=n)
            if not np.any(x > 0):
                continue
            sigma = rng.permutation(n)
            loss = ndcg_loss(sigma, x, gain6)
            bound = ndcg_loss_from_divergence(lb_bound(x, gain6), x, gain6)
            assert loss <= bound + 1e-12


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 2, 3], [3, 1, 2]) == 1.0

    def test_three_of_hundred(self):
        truth = list(range(100))
        predicted = list(range(100))
        for i in (5, 50, 99):
            predicted[i] = (predicted[i] + 1) % 100
        assert error_rate(predicted, truth) == pytest.approx(0.03)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            error_rate([1], [1, 2])


class TestBaselines:
    def test_average_single_list(self, rng):
        q = make_query(rng.normal(size=(1, 5)))
        assert np.array_equal(baseline_average(q), ranking_from_scores(q.matrix[0]))

    def test_average_opposite_lists_tie_to_index_order(self):
        q = make_query([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert tuple(baseline_average(q).tolist()) == (0, 1, 2)

    def test_average_agrees_with_uniform_inference(self, gain6, rng):
        for i in range(20):
            k = int(rng.integers(1, 6))
            q = make_query(rng.normal(size=(k, 6)), query_id=f"q{i}")
            model = LinearModel(SimplexWeights.uniform(k), gain6, LinearHyper())
            assert np.array_equal(baseline_average(q), linear_infer(model, q))

    def test_borda_single_list(self, rng):
        q = make_query(rng.normal(size=(1, 5)))
        assert np.array_equal(baseline_borda(q), ranking_from_scores(q.matrix[0]))

    def test_borda_reversed_pair_ties_to_index_order(self):
        q = make_query([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
        assert tuple(baseline_borda(q).tolist()) == (0, 1, 2)

    def test_borda_matches_point_recount(self, rng):
        for i in range(30):
            # odd rounds use small integers, so lists tie within themselves
            matrix = rng.integers(0, 3, size=(3, 6)) if i % 2 else rng.normal(size=(3, 6))
            q = make_query(matrix)
            points = oracles.borda_points(q.matrix.tolist())
            np.testing.assert_array_equal(borda_points(q.matrix), points)
            assert np.array_equal(baseline_borda(q), ranking_from_scores(points))


class TestReports:
    def test_csv_report_appends_mean_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        tables = [np.array([[1.0, 0.5], [0.0, 0.5]]), np.array([[1.0, 1.0], [0.5, 0.0]])]
        write_metric_csv(path, ["Top-1", "Top-2"], ["averaging", "borda"], ["q1", "q2"], tables)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,query_id,Top-1,Top-2"
        assert len(lines) == 1 + 4 + 2
        assert "averaging,MEAN,0.5,0.5" in lines
        assert "borda,MEAN,0.75,0.5" in lines

    def test_query_named_mean_is_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "report.csv"
        tables = [np.array([[1.0], [0.0]])]
        with pytest.raises(DataError, match="query 'MEAN': the report names each method's "
                                            "mean row MEAN; rename the query"):
            write_metric_csv(path, ["Top-1"], ["averaging"], ["q1", "MEAN"], tables)
        assert not path.exists()

    def test_text_table_is_aligned(self):
        table = format_table(["Top-1", "Top-2"], ["averaging", "borda"],
                             [[0.3591, 0.3696], [0.25, 0.5]])
        lines = table.splitlines()
        assert lines[0].startswith("Method")
        assert "0.3591" in lines[2]
        assert all(len(line) <= len(lines[0]) + 20 for line in lines)
