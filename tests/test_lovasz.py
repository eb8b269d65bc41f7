from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbrank.core import ConcaveGain, QueryInstance, ranking_from_scores, sigmoid_gain
from lbrank.lovasz import lb_bound, lb_divergence
from lbrank.sampler import EnergyContext, _exact_law

import oracles
from oracles import ndcg_loss_from_divergence


def exact_h_vector(order, gain: ConcaveGain) -> np.ndarray:
    """h-vector of ``order`` as the exact backend builds it for every ranking."""
    n = len(order)
    ctx = EnergyContext.from_query(QueryInstance("h", np.zeros((1, n))), [1.0], gain)
    orders, h, _ = _exact_law(ctx)
    return h[orders.tolist().index(list(order))]


class TestHVector:
    def test_identity_permutation(self, small_gain):
        hv = exact_h_vector([0, 1, 2], small_gain)
        np.testing.assert_array_equal(hv, [1.0, 0.5, 0.25])

    def test_permuted_positions(self, small_gain):
        hv = exact_h_vector([2, 0, 1], small_gain)
        np.testing.assert_array_equal(hv, [0.5, 0.25, 1.0])
        oracle = oracles.h_vector_chain((2, 0, 1), [1.0, 0.5, 0.25])
        np.testing.assert_allclose(hv, oracle, atol=1e-15)

    def test_single_element(self, small_gain):
        hv = exact_h_vector([0], small_gain)
        np.testing.assert_array_equal(hv, [1.0])

    def test_gain_too_short(self, small_gain):
        with pytest.raises(ValueError, match="gain covers"):
            exact_h_vector([0, 1, 2, 3], small_gain)

    def test_values_are_increment_multiset(self, gain6, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            hv = exact_h_vector(rng.permutation(n).tolist(), gain6)
            assert np.all(hv > 0)
            np.testing.assert_array_equal(np.sort(hv), np.sort(gain6.increments[:n]))

    def test_chain_hook_matches_fast_path(self, gain6, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            sigma = rng.permutation(n)
            fast = exact_h_vector(tuple(sigma.tolist()), gain6)
            slow = oracles.h_vector_chain(tuple(sigma.tolist()), gain6.increments.tolist())
            np.testing.assert_allclose(slow, fast, atol=1e-12)


class TestLbDivergence:
    def test_zero_at_own_sort(self, small_gain):
        assert lb_divergence([3, 1, 2], [0, 2, 1], small_gain) == 0.0

    def test_hand_computed_value(self, small_gain):
        # sorted mass 3*1 + 2*0.5 + 1*0.25 = 4.25; (0,1,2) mass 4.0
        d = lb_divergence([3, 1, 2], [0, 1, 2], small_gain)
        assert d == pytest.approx(0.25, abs=1e-12)
        values = sorted(
            oracles.divergence([3, 1, 2], order, [1.0, 0.5, 0.25])
            for order in oracles.all_orders(3)
        )
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert any(abs(v - 0.25) < 1e-12 for v in values)

    def test_constant_scores_zero_everywhere(self, small_gain):
        for order in oracles.all_orders(3):
            assert lb_divergence([7.0, 7.0, 7.0], order, small_gain) == 0.0

    def test_length_mismatch(self, small_gain):
        with pytest.raises(ValueError, match="entries"):
            lb_divergence([1.0, 2.0], [0, 1, 2], small_gain)

    def test_matches_oracle_everywhere(self, gain6, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=n)
            for order in oracles.all_orders(n)[:: max(1, n)]:
                got = lb_divergence(x, order, gain6)
                want = oracles.divergence(x.tolist(), order, gain6.increments[:n].tolist())
                assert got == pytest.approx(want, abs=1e-10)

    def test_nonnegative_and_minimized_by_sort(self, gain6, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=n)
            best = ranking_from_scores(x)
            assert lb_divergence(x, best, gain6) == 0.0
            for order in oracles.all_orders(n):
                assert lb_divergence(x, order, gain6) >= 0.0

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
           st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, scores, shift):
        gain = sigmoid_gain(len(scores))
        sigma = np.roll(np.arange(len(scores)), 1)
        base = lb_divergence(scores, sigma, gain)
        shifted = lb_divergence([s + shift for s in scores], sigma, gain)
        assert shifted == pytest.approx(base, abs=1e-10)


class TestLbBound:
    def test_constant_scores(self, small_gain):
        assert lb_bound([2.0, 2.0, 2.0], small_gain) == 0.0

    def test_hand_computed_value(self, small_gain):
        # eps=2, N=3: 2 * 3 * (1.0 - 1.75 + 1.5) = 4.5
        assert lb_bound([3, 1, 2], small_gain) == pytest.approx(4.5, abs=1e-12)
        for order in oracles.all_orders(3):
            assert lb_divergence([3, 1, 2], order, small_gain) <= 4.5

    def test_single_candidate(self, small_gain):
        assert lb_bound([5.0], small_gain) == 0.0

    def test_dominates_divergence(self, gain6, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=n) * rng.uniform(0.1, 10)
            bound = lb_bound(x, gain6)
            order = rng.permutation(n)
            assert lb_divergence(x, order, gain6) <= bound + 1e-12


class TestNdcgLossFromDivergence:
    def test_zero_divergence(self, small_gain):
        assert ndcg_loss_from_divergence(0.0, [3, 1, 2], small_gain) == 0.0

    def test_hand_computed_value(self, small_gain):
        got = ndcg_loss_from_divergence(0.25, [3, 1, 2], small_gain)
        assert got == pytest.approx(0.25 / 4.25, abs=1e-12)

    def test_degenerate_normalizer(self, small_gain):
        with pytest.raises(ValueError, match="degenerate normalizer"):
            ndcg_loss_from_divergence(0.0, [0.0, 0.0, 0.0], small_gain)

    def test_bounded_by_scaled_bound(self, small_gain):
        bound = lb_bound([3, 1, 2], small_gain)
        loss = ndcg_loss_from_divergence(bound, [3, 1, 2], small_gain)
        assert loss <= bound / 4.25 + 1e-12


class TestChainIdentity:
    def test_lovasz_sum_equals_chain_differences(self, rng):
        # The sorted-scores discounted sum must agree with the same sum
        # computed through explicit prefix-set differences of g(|S|).
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = rng.normal(size=n) * rng.uniform(0.5, 5)
            gain = sigmoid_gain(n)
            order = ranking_from_scores(x)
            fast = float(gain.increments[:n] @ np.sort(x)[::-1])
            chain = oracles.h_vector_chain(tuple(order.tolist()), gain.increments.tolist())
            slow = float(np.asarray(chain) @ x)
            assert fast == pytest.approx(slow, abs=1e-12)
