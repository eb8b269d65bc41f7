from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbrank.core import (
    ConcaveGain,
    QueryInstance,
    Ranking,
    SimplexWeights,
    log2_gain,
    sigmoid_gain,
)
from lbrank.sampler import (
    ACCEPTANCE_RULES,
    ChainConfig,
    EnergyContext,
    chain_seed,
    exact_distribution,
    exact_expectation,
    expected_divergences,
    fnv1a64,
    query_config,
    sample_expectation,
    sample_orders,
)

import oracles
from conftest import make_query
from oracles import acceptance_ratio, energy


def context(matrix, weights, increments) -> EnergyContext:
    q = make_query(matrix)
    return EnergyContext.from_query(q, weights, ConcaveGain(increments))


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(num_samples=0)
        with pytest.raises(ValueError):
            ChainConfig(thinning=0)
        with pytest.raises(ValueError):
            ChainConfig(burn_in=-1)
        with pytest.raises(ValueError):
            ChainConfig(acceptance_rule="sometimes")

    def test_defaults(self):
        cfg = ChainConfig()
        assert cfg.num_samples == 50
        assert cfg.burn_in == 100
        assert cfg.acceptance_rule == "standard_metropolis"


class TestEnergyContext:
    def test_weight_length_checked(self, small_gain):
        with pytest.raises(ValueError, match="weights"):
            context([[1.0, 2.0, 3.0]], [0.5, 0.5], [1.0, 0.5, 0.25])

    def test_weights_must_be_simplex(self, small_gain):
        with pytest.raises(ValueError, match="sum to 1"):
            context([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], [0.9, 0.9], [1.0, 0.5, 0.25])

    def test_gain_capacity_checked(self):
        with pytest.raises(ValueError, match="gain covers"):
            context([[1.0, 2.0, 3.0]], [1.0], [1.0])


class TestEnergy:
    def test_zero_when_mass_on_sorting_list(self):
        ctx = context([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [1.0, 0.0],
                      [1.0, 0.5, 0.25])
        assert energy(ctx, Ranking([0, 2, 1])) == 0.0

    def test_weighted_mix_matches_oracle(self):
        ctx = context([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [0.5, 0.5],
                      [1.0, 0.5, 0.25])
        pi = Ranking([0, 2, 1])
        want = oracles.weighted_divergence(
            [[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [0.5, 0.5], (0, 2, 1),
            [1.0, 0.5, 0.25])
        assert energy(ctx, pi) == pytest.approx(want, abs=1e-12)
        # half the divergence of the second list alone
        assert energy(ctx, pi) == pytest.approx(0.75, abs=1e-12)

    def test_constant_lists_zero_for_every_ranking(self):
        ctx = context([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]], [0.5, 0.5],
                      [1.0, 0.5, 0.25])
        for order in oracles.all_orders(3):
            assert energy(ctx, Ranking(order)) == 0.0

    def test_dimension_mismatch(self):
        ctx = context([[3.0, 1.0, 2.0]], [1.0], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="positions"):
            energy(ctx, Ranking([0, 1]))


class TestAcceptanceRatio:
    def test_identical_states(self):
        ctx = context([[3.0, 1.0, 2.0]], [1.0], [1.0, 0.5, 0.25])
        pi = Ranking([2, 1, 0])
        assert acceptance_ratio(ctx, pi, pi) == 1.0

    def test_downhill_and_uphill(self):
        # single list, delta (1, 0.5): d((0,1)) = 0, d((1,0)) = 0.5
        ctx = context([[2.0, 1.0]], [1.0], [1.0, 0.5])
        better = Ranking([0, 1])
        worse = Ranking([1, 0])
        assert acceptance_ratio(ctx, worse, better) == pytest.approx(math.exp(0.5))
        assert acceptance_ratio(ctx, better, worse) == pytest.approx(math.exp(-0.5))


class TestChain:
    def test_states_are_permutations(self):
        ctx = context([[3.0, 1.0, 2.0, 0.0], [1.0, 3.0, 2.0, 0.5]], [0.5, 0.5],
                      [1.0, 0.5, 0.25, 0.125])
        orders = sample_orders(ctx, ChainConfig(num_samples=500, burn_in=13, rng_seed=5))
        assert orders.shape == (500, 4)
        for row in orders[::50]:
            Ranking(row)  # validates the permutation invariant

    def test_deterministic_given_seed(self):
        ctx = context([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [0.5, 0.5],
                      [1.0, 0.5, 0.25])
        cfg = ChainConfig(num_samples=300, burn_in=40, rng_seed=123)
        np.testing.assert_array_equal(sample_orders(ctx, cfg), sample_orders(ctx, cfg))
        np.testing.assert_array_equal(sample_expectation(ctx, cfg),
                                      sample_expectation(ctx, cfg))

    def test_single_candidate(self):
        ctx = context([[4.0]], [1.0], [1.0])
        v = sample_expectation(ctx, ChainConfig(num_samples=10, rng_seed=1))
        np.testing.assert_array_equal(v, [0.0])

    def test_constant_list_expectation_is_exact_zero(self):
        ctx = context([[5.0, 5.0, 5.0]], [1.0], [1.0, 0.5, 0.25])
        v = sample_expectation(ctx, ChainConfig(num_samples=200, rng_seed=2))
        np.testing.assert_array_equal(v, [0.0])

    def test_paper_literal_rule_produces_valid_states(self):
        ctx = context([[3.0, 1.0, 2.0]], [1.0], [1.0, 0.5, 0.25])
        cfg = ChainConfig(num_samples=200, burn_in=20, rng_seed=9,
                          acceptance_rule="paper_literal")
        orders = sample_orders(ctx, cfg)
        for row in orders[::20]:
            Ranking(row)

    def test_empirical_distribution_close_to_exact(self):
        # quick total-variation smoke at N=3; the acceptance suite runs N=4
        ctx = context([[0.9, 0.2, 0.5], [0.7, 0.4, 0.1]], [0.5, 0.5],
                      [1.0, 0.5, 0.25])
        orders, probs = exact_distribution(ctx)
        chain = sample_orders(ctx, ChainConfig(num_samples=30000, burn_in=500, rng_seed=11))
        keys = [tuple(row) for row in orders.tolist()]
        counts = dict.fromkeys(keys, 0)
        for row in chain.tolist():
            counts[tuple(row)] += 1
        empirical = np.array([counts[k] for k in keys], dtype=float) / len(chain)
        tv = 0.5 * float(np.abs(empirical - probs).sum())
        assert tv <= 0.1


@st.composite
def score_cases(draw):
    """K in 1..4 lists over N in 1..8 candidates, often tied, sometimes constant."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    value = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(-10.0, 10.0, allow_nan=False))
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(k)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))] = [draw(value)] * n
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return rows, [r / math.fsum(raw) for r in raw]


class TestMeanHVector:
    @given(score_cases(), st.integers(0, 2**32), st.sampled_from(ACCEPTANCE_RULES))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_list_mean_over_the_same_states(self, case, seed, rule):
        rows, weights = case
        increments = sigmoid_gain(8).increments.tolist()
        ctx = context(rows, weights, increments)
        cfg = ChainConfig(num_samples=40, burn_in=7, acceptance_rule=rule, rng_seed=seed)
        got = sample_expectation(ctx, cfg)
        want = oracles.per_list_expectation(rows, sample_orders(ctx, cfg).tolist(),
                                            increments)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        for value, row in zip(got, rows):
            if len(set(row)) == 1:
                assert value == 0.0

    @pytest.mark.parametrize("rule", ACCEPTANCE_RULES)
    def test_chain_states_match_scalar_stepper(self, rule):
        # burn-in plus M * thinning = 9300 steps spans two draw blocks of 8192;
        # after the first chain, each one replays the query's memoised stream
        matrix = [[0.9, 0.2, 0.5, 0.5, 0.1, 0.7, 0.3],
                  [0.7, 0.4, 0.1, 0.8, 0.8, 0.0, 0.6],
                  [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
        increments = sigmoid_gain(7).increments.tolist()
        q = make_query(matrix)
        gain = ConcaveGain(increments)
        cfg = ChainConfig(num_samples=2100, burn_in=3000, thinning=3,
                          acceptance_rule=rule, rng_seed=chain_seed(5, "pin"))
        for weights in ([0.5, 0.3, 0.2], [0.1, 0.7, 0.2], [0.5, 0.3, 0.2]):
            ctx = EnergyContext.from_query(q, weights, gain)
            ybar = (np.asarray(weights) @ np.asarray(matrix)).tolist()
            want = oracles.chain_orders(ybar, increments, cfg.num_samples, cfg.burn_in,
                                        cfg.thinning, rule, cfg.rng_seed)
            np.testing.assert_array_equal(sample_orders(ctx, cfg), want)


class TestQueryMemo:
    def test_configs_and_gains_never_share_an_entry(self):
        matrix = [[0.9, 0.2, 0.5, 0.4, 0.1, 0.7], [0.7, 0.4, 0.1, 0.8, 0.3, 0.0]]
        weights = [0.6, 0.4]
        ybar = (np.asarray(weights) @ np.asarray(matrix)).tolist()
        q = make_query(matrix)
        base = ChainConfig(num_samples=30, burn_in=20, rng_seed=7)
        configs = [base, replace(base, rng_seed=8), replace(base, burn_in=21),
                   replace(base, num_samples=31), replace(base, thinning=3),
                   replace(base, acceptance_rule="paper_literal")]
        gains = [sigmoid_gain(6), log2_gain(6)]
        for _ in range(2):  # the second round replays every entry of the first
            for gain in gains:
                for cfg in configs:
                    ctx = EnergyContext.from_query(q, weights, gain)
                    want = oracles.chain_orders(ybar, gain.increments.tolist(),
                                                cfg.num_samples, cfg.burn_in, cfg.thinning,
                                                cfg.acceptance_rule, cfg.rng_seed)
                    np.testing.assert_array_equal(sample_orders(ctx, cfg), want)
                    fresh = EnergyContext.from_query(make_query(matrix), weights, gain)
                    np.testing.assert_array_equal(sample_expectation(ctx, cfg),
                                                  sample_expectation(fresh, cfg))

    def test_query_config_is_memoised_with_unchanged_seeds(self):
        q = make_query([[1.0, 2.0]], query_id="q9")
        cfg = ChainConfig(rng_seed=12345)
        derived = query_config(q, cfg)
        assert derived == replace(cfg, rng_seed=chain_seed(12345, "q9"))
        assert query_config(q, cfg) is derived
        assert query_config(q, replace(cfg, burn_in=5)).rng_seed == derived.rng_seed
        assert query_config(q, cfg, 3) == replace(cfg, rng_seed=chain_seed(12345, "q9|unit-3"))
        assert query_config(q, replace(cfg, rng_seed=1)).rng_seed == chain_seed(1, "q9")


class TestExactBackend:
    def test_distribution_normalizes(self):
        ctx = context([[0.9, 0.2, 0.5]], [1.0], [1.0, 0.5, 0.25])
        orders, probs = exact_distribution(ctx)
        assert orders.shape == (6, 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_enumeration(self):
        matrix = [[0.9, 0.2, 0.5, 0.1], [0.7, 0.4, 0.1, 0.8]]
        ctx = context(matrix, [0.3, 0.7], [1.0, 0.5, 0.25, 0.125])
        got = exact_expectation(ctx)
        want = oracles.exact_expectations(matrix, [0.3, 0.7],
                                          [1.0, 0.5, 0.25, 0.125])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lower_energy_rankings_weigh_more(self):
        ctx = context([[0.9, 0.2, 0.5, 0.1]], [1.0], [1.0, 0.5, 0.25, 0.125])
        orders, probs = exact_distribution(ctx)
        energies = np.array([energy(ctx, Ranking(o)) for o in orders])
        by_energy = np.argsort(energies, kind="stable")
        sorted_probs = probs[by_energy]
        assert np.all(np.diff(sorted_probs) <= 1e-15)

    def test_peaked_list_expectation_near_zero(self):
        # large score gaps concentrate the law on the list's own sort
        matrix = [[300.0, 200.0, 100.0, 0.0], [0.4, 0.5, 0.3, 0.6]]
        ctx = context(matrix, [0.99, 0.01], [1.0, 0.5, 0.25, 0.125])
        v = exact_expectation(ctx)
        assert v[0] < 0.01

    def test_enumeration_guard(self):
        matrix = [list(range(9))]
        ctx = context(matrix, [1.0], [1.0 / (i + 1) for i in range(9)])
        with pytest.raises(ValueError, match="enumeration"):
            exact_expectation(ctx)

    def test_dispatcher(self):
        ctx = context([[0.9, 0.2, 0.5]], [1.0], [1.0, 0.5, 0.25])
        cfg = ChainConfig(num_samples=10, rng_seed=0)
        assert expected_divergences(ctx, cfg, "exact").shape == (1,)
        assert expected_divergences(ctx, cfg, "mh").shape == (1,)
        with pytest.raises(ValueError, match="backend"):
            expected_divergences(ctx, cfg, "guess")


class TestMhAgainstEnumeration:
    def test_expectation_within_five_percent(self):
        matrix = [[0.9, 0.2, 0.5, 0.1], [0.7, 0.4, 0.1, 0.8], [0.3, 0.6, 0.2, 0.5]]
        ctx = context(matrix, [0.4, 0.3, 0.3], [1.0, 0.5, 0.25, 0.125])
        exact = exact_expectation(ctx)
        cfg = ChainConfig(num_samples=5000, burn_in=500, rng_seed=17)
        estimate = sample_expectation(ctx, cfg)
        np.testing.assert_allclose(estimate, exact, rtol=0.05)


class TestSeeds:
    def test_fnv1a64_known_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_chain_seed_mixes_query_id(self):
        assert chain_seed(0, "q1") == fnv1a64("q1")
        assert chain_seed(12345, "q1") != chain_seed(12345, "q2")
        assert chain_seed(12345, "q1") == chain_seed(12345, "q1")
