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
    log2_gain,
    sigmoid_gain,
)
from lbrank import linear, sampler
from lbrank.io import normalize_minmax, synth_planted
from lbrank.sampler import (
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
    _ReplayPlan,
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

    def test_defaults(self):
        cfg = ChainConfig()
        assert cfg.num_samples == 50
        assert cfg.burn_in == 100


class TestEnergyContext:
    def test_weight_length_checked(self, small_gain):
        with pytest.raises(ValueError, match="weights"):
            context([[1.0, 2.0, 3.0]], [0.5, 0.5], [1.0, 0.5, 0.25])

    def test_gain_capacity_checked(self):
        with pytest.raises(ValueError, match="gain covers"):
            context([[1.0, 2.0, 3.0]], [1.0], [1.0])


class TestEnergy:
    def test_zero_when_mass_on_sorting_list(self):
        ctx = context([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [1.0, 0.0],
                      [1.0, 0.5, 0.25])
        assert energy(ctx, [0, 2, 1]) == 0.0

    def test_weighted_mix_matches_oracle(self):
        ctx = context([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], [0.5, 0.5],
                      [1.0, 0.5, 0.25])
        pi = [0, 2, 1]
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
            assert energy(ctx, order) == 0.0

    def test_dimension_mismatch(self):
        ctx = context([[3.0, 1.0, 2.0]], [1.0], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="positions"):
            energy(ctx, [0, 1])


class TestAcceptanceRatio:
    def test_identical_states(self):
        ctx = context([[3.0, 1.0, 2.0]], [1.0], [1.0, 0.5, 0.25])
        pi = [2, 1, 0]
        assert acceptance_ratio(ctx, pi, pi) == 1.0

    def test_downhill_and_uphill(self):
        # single list, delta (1, 0.5): d((0,1)) = 0, d((1,0)) = 0.5
        ctx = context([[2.0, 1.0]], [1.0], [1.0, 0.5])
        better = [0, 1]
        worse = [1, 0]
        assert acceptance_ratio(ctx, worse, better) == pytest.approx(math.exp(0.5))
        assert acceptance_ratio(ctx, better, worse) == pytest.approx(math.exp(-0.5))


class TestChain:
    def test_states_are_permutations(self):
        ctx = context([[3.0, 1.0, 2.0, 0.0], [1.0, 3.0, 2.0, 0.5]], [0.5, 0.5],
                      [1.0, 0.5, 0.25, 0.125])
        orders = sample_orders(ctx, ChainConfig(num_samples=500, burn_in=13, rng_seed=5))
        assert orders.shape == (500, 4)
        for row in orders[::50]:
            assert np.array_equal(np.sort(row), np.arange(row.size))

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
    @given(score_cases(), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_list_mean_over_the_same_states(self, case, seed):
        rows, weights = case
        increments = sigmoid_gain(8).increments.tolist()
        ctx = context(rows, weights, increments)
        cfg = ChainConfig(num_samples=40, burn_in=7, rng_seed=seed)
        got = sample_expectation(ctx, cfg)
        want = oracles.per_list_expectation(rows, sample_orders(ctx, cfg).tolist(),
                                            increments)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        for value, row in zip(got, rows):
            if len(set(row)) == 1:
                assert value == 0.0

    def test_chain_states_match_scalar_stepper(self):
        # burn-in plus M * thinning = 9300 steps spans two draw blocks of 8192;
        # after the first chain, each one replays the query's memoised stream.
        # The second matrix is unnormalised, with a span of 2,000: under the
        # Metropolis rule about 90% of proposals are rejected, and on about 15%
        # exp(log_alpha) underflows to 0.
        matrices = ([[0.9, 0.2, 0.5, 0.5, 0.1, 0.7, 0.3],
                     [0.7, 0.4, 0.1, 0.8, 0.8, 0.0, 0.6],
                     [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]],
                    [[1990.0, -10.0, 730.0, 725.0, 40.0, 1210.0, 95.0],
                     [1960.0, 15.0, -5.0, 1985.0, 20.0, 0.0, 455.0],
                     [1975.0, 3.0, 610.0, 880.0, 2.0, 340.0, 1.0]])
        increments = sigmoid_gain(7).increments.tolist()
        gain = ConcaveGain(increments)
        cfg = ChainConfig(num_samples=2100, burn_in=3000, thinning=3,
                          rng_seed=chain_seed(5, "pin"))
        for matrix in matrices:
            q = make_query(matrix)
            for weights in ([0.5, 0.3, 0.2], [0.1, 0.7, 0.2], [0.5, 0.3, 0.2]):
                ctx = EnergyContext.from_query(q, weights, gain)
                ybar = (np.asarray(weights) @ np.asarray(matrix)).tolist()
                want = oracles.chain_orders(ybar, increments, cfg.num_samples, cfg.burn_in,
                                            cfg.thinning, cfg.rng_seed)
                np.testing.assert_array_equal(sample_orders(ctx, cfg), want)


class TestQueryMemo:
    def test_configs_and_gains_never_share_an_entry(self):
        matrix = [[0.9, 0.2, 0.5, 0.4, 0.1, 0.7], [0.7, 0.4, 0.1, 0.8, 0.3, 0.0]]
        weights = [0.6, 0.4]
        ybar = (np.asarray(weights) @ np.asarray(matrix)).tolist()
        q = make_query(matrix)
        base = ChainConfig(num_samples=30, burn_in=20, rng_seed=7)
        configs = [base, replace(base, rng_seed=8), replace(base, burn_in=21),
                   replace(base, num_samples=31), replace(base, thinning=3)]
        gains = [sigmoid_gain(6), log2_gain(6)]
        for _ in range(2):  # the second round replays every entry of the first
            for gain in gains:
                for cfg in configs:
                    ctx = EnergyContext.from_query(q, weights, gain)
                    want = oracles.chain_orders(ybar, gain.increments.tolist(),
                                                cfg.num_samples, cfg.burn_in, cfg.thinning,
                                                cfg.rng_seed)
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
        assert query_config(q, replace(cfg, rng_seed=1)).rng_seed == chain_seed(1, "q9")


GAINS = {"sigmoid": sigmoid_gain, "log2": log2_gain,
         "constant": lambda n: ConcaveGain([1.0] * n)}  # a zero gap at every step


@st.composite
def chain_cases(draw, min_n=2):
    """K in 1..3 lists over N in ``min_n``..12 candidates at a span in 1e-3..1e4, often tied.

    Returns the matrix, two weight vectors, a gain and a chain budget.
    """
    n = draw(st.integers(min_n, 12))
    k = draw(st.integers(1, 3))
    span = draw(st.floats(1e-3, 1e4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = rng.uniform(0.0, span, size=(k, n))
    if draw(st.booleans()):
        rows = np.round(rows * (3.0 / span)) * (span / 3.0)
    weight_sets = rng.dirichlet(np.ones(k), size=2)
    gain = GAINS[draw(st.sampled_from(sorted(GAINS)))](n)
    cfg = ChainConfig(num_samples=draw(st.integers(1, 30)), burn_in=draw(st.integers(0, 20)),
                      thinning=draw(st.integers(1, 3)), rng_seed=draw(st.integers(0, 2**64 - 1)))
    return rows, weight_sets, gain, cfg


class TestReplayPlan:
    @given(chain_cases())
    @settings(deadline=None)
    def test_matches_the_scalar_chain(self, case):
        rows, weight_sets, gain, cfg = case
        q = make_query(rows)
        centred = q.matrix - q.matrix.min(axis=1, keepdims=True)  # the chain's input
        for weights in weight_sets:  # the second chain replays the query's plan
            ctx = EnergyContext.from_query(q, weights, gain)
            ybar = (weights @ centred).tolist()
            want = oracles.chain_orders(ybar, gain.increments.tolist(), cfg.num_samples,
                                        cfg.burn_in, cfg.thinning, cfg.rng_seed)
            got = sample_orders(ctx, cfg)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @given(chain_cases())
    @settings(deadline=None)
    def test_every_skipped_step_accepts_every_pair(self, case):
        rows, weight_sets, gain, cfg = case
        q = make_query(rows)
        plan = _ReplayPlan.build(cfg, gain.increments, q.n)
        for weights in weight_sets:
            y = weights @ q.matrix
            tested = plan.may_reject(float(y.max() - y.min()))
            diffs = y[None, :] - y[:, None]  # y_b - y_a at row a, column b
            for j in np.setdiff1d(np.arange(len(plan.gap)), tested).tolist():
                assert (plan.gap[j] * diffs > plan.cut[j]).all()

    @given(chain_cases(min_n=1))
    @settings(deadline=None)
    def test_expectation_matches_the_gathered_formula(self, case):
        rows, weight_sets, gain, cfg = case
        q = make_query(rows)
        for weights in weight_sets:  # the second chain replays the query's plan
            ctx = EnergyContext.from_query(q, weights, gain)
            got = sample_expectation(ctx, cfg)
            assert got.tobytes() == oracles.gathered_expectation(ctx, cfg).tobytes()

    @pytest.mark.parametrize("matrix, burn_in, seed, rejects, rejects_late", [
        ([[0.13, 0.05, 0.01, 0.0, 0.16, 0.18], [0.12, 0.15, 0.11, 0.19, 0.16, 0.0]],
         20, 0, False, False),
        ([[0.51, 0.95, 0.14, 0.95, 0.31, 0.42], [0.83, 0.41, 0.55, 0.03, 0.75, 0.54]],
         20, 1, True, False),
        # burn-in 0 makes every rejection late
        ([[0.64, 0.27, 0.04, 0.02, 0.81, 0.91], [0.61, 0.73, 0.54, 0.94, 0.82, 0.0]],
         0, 0, True, True),
    ], ids=["no-rejection", "burn-in-rejections-only", "late-rejection"])
    def test_expectation_on_each_kind_of_chain(self, matrix, burn_in, seed, rejects,
                                               rejects_late):
        gain = sigmoid_gain(6)
        cfg = ChainConfig(num_samples=30, burn_in=burn_in, rng_seed=seed)
        ctx = EnergyContext.from_query(make_query(matrix), [0.5, 0.5], gain)
        plan, _, rejected = sampler._walk(ctx, cfg)
        assert plan.may_reject(float(np.ptp(ctx._ybar))).size > 0
        steps = oracles.stream_rejections(ctx._ybar.tolist(),
                                          sampler._proposal_stream(cfg, gain.increments, 6))
        late = [j for j in steps if j >= plan.first]
        assert (bool(steps), bool(late)) == (rejects, rejects_late)
        assert rejected.tolist() == late
        got = sample_expectation(ctx, cfg)
        assert got.tobytes() == oracles.gathered_expectation(ctx, cfg).tobytes()

    def test_zero_uniforms_accept_through_a_patched_stream(self, monkeypatch):
        # u = 0 gives cut = -inf: every finite log ratio exceeds it, also one
        # whose exp underflows, which the span of 2,000 gives on many steps
        matrix = [[1990.0, -10.0, 730.0, 725.0, 40.0, 1210.0, 95.0],
                  [1960.0, 15.0, -5.0, 1985.0, 20.0, 0.0, 455.0]]
        gain = sigmoid_gain(7)
        cfg = ChainConfig(num_samples=200, burn_in=50, rng_seed=17)
        draw = sampler._proposal_stream
        streams = []

        def zero_every_third_uniform(*args):
            pos_a, pos_b, gap, cut, keep = draw(*args)
            cut = cut.copy()
            cut[::3] = -np.inf
            streams.append((pos_a, pos_b, gap, cut, keep))
            return streams[-1]

        unpatched = sample_orders(EnergyContext.from_query(make_query(matrix), [0.5, 0.5],
                                                           gain), cfg)
        monkeypatch.setattr(sampler, "_proposal_stream", zero_every_third_uniform)
        q = make_query(matrix)
        for weights in ([0.5, 0.5], [0.9, 0.1]):
            got = sample_orders(EnergyContext.from_query(q, weights, gain), cfg)
            want = oracles.stream_orders((np.asarray(weights) @ q.matrix).tolist(), streams[0])
            np.testing.assert_array_equal(got, want)
            if weights == [0.5, 0.5]:
                assert not np.array_equal(want, unpatched)
        assert len(streams) == 1

    @pytest.mark.parametrize("matrix, weights, gain", [
        ([[0.9, 0.2, 0.5, 0.4, 0.1]], [1.0], GAINS["constant"](5)),
        ([[0.25, 0.75, 0.5, 1.0, 0.0], [0.75, 0.25, 0.5, 0.0, 1.0]], [0.5, 0.5],
         sigmoid_gain(5)),
    ], ids=["zero-gaps", "equal-mean-scores"])
    def test_no_step_can_reject(self, matrix, weights, gain):
        # |gap| * span is 0 at every step, so none is tested and the start
        # order is read through every retained slot map
        cfg = ChainConfig(num_samples=40, burn_in=10, thinning=2, rng_seed=21)
        ctx = EnergyContext.from_query(make_query(matrix), weights, gain)
        ybar = ctx._ybar.tolist()
        plan = _ReplayPlan.build(cfg, gain.increments, 5)
        assert plan.may_reject(max(ybar) - min(ybar)).size == 0
        want = oracles.chain_orders(ybar, gain.increments.tolist(), cfg.num_samples,
                                    cfg.burn_in, cfg.thinning, cfg.rng_seed)
        np.testing.assert_array_equal(sample_orders(ctx, cfg), want)

    def test_a_step_on_the_skip_boundary_is_tested(self):
        # with K = 1 the mean scores are the list itself, so the span is exact
        gain = sigmoid_gain(5)
        cfg = ChainConfig(num_samples=60, burn_in=10, rng_seed=3)
        plan = _ReplayPlan.build(cfg, gain.increments, 5)
        for j in np.flatnonzero(plan.gap != 0.0).tolist():
            reach, floor = abs(plan.gap[j]), -plan.cut[j]
            guess = floor / reach
            spans = [s for s in (guess, np.nextafter(guess, 0.0), np.nextafter(guess, np.inf))
                     if reach * s == floor]
            if spans:
                span = float(spans[0])
                break
        else:
            pytest.fail("no step lands exactly on the skip boundary")
        assert not -(reach * span) > plan.cut[j]
        assert j in plan.may_reject(span)
        matrix = [[span, 0.0, span / 2, span / 4, span / 8]]
        ctx = EnergyContext.from_query(make_query(matrix), [1.0], gain)
        want = oracles.chain_orders(matrix[0], gain.increments.tolist(), cfg.num_samples,
                                    cfg.burn_in, cfg.thinning, cfg.rng_seed)
        np.testing.assert_array_equal(sample_orders(ctx, cfg), want)

    @pytest.mark.parametrize("finite", [0, 1], ids=["nan-span", "inf-span"])
    @pytest.mark.parametrize("gain_name", ["sigmoid", "constant"])
    def test_non_finite_mean_scores_test_every_step(self, finite, gain_name):
        # weights that sum to 1 + 1e-9 take a mean of the largest double past
        # it; for a NaN span each list's minimum is its negation, in a column
        # of its own, so every column of the lists minus their minima holds an
        # infinity, and every mean is infinite
        big = np.finfo(np.float64).max
        matrix = np.full((2, 4), big)
        matrix[:, :finite] = 1.0
        if not finite:
            matrix[[0, 1], [0, 1]] = -big
        gain = GAINS[gain_name](4)
        cfg = ChainConfig(num_samples=30, burn_in=5, rng_seed=8)
        with np.errstate(over="ignore"):
            ctx = EnergyContext.from_query(make_query(matrix), [0.5, 0.500000001], gain)
        ybar = ctx._ybar.tolist()
        assert ybar[-1] == math.inf
        plan = _ReplayPlan.build(cfg, gain.increments, 4)
        np.testing.assert_array_equal(plan.may_reject(max(ybar) - min(ybar)),
                                      np.arange(cfg.burn_in + cfg.num_samples))
        want = oracles.chain_orders(ybar, gain.increments.tolist(), cfg.num_samples,
                                    cfg.burn_in, cfg.thinning, cfg.rng_seed)
        np.testing.assert_array_equal(sample_orders(ctx, cfg), want)


class TestExpectationPaths:
    def test_plan_and_gather_counts_on_train_shaped_data(self, monkeypatch):
        # planted min-max data at the train workload's N = 30 and K = 8 under
        # the default chain: the chains that reject nothing from their first
        # retained step on read the mean h-vector off the plan, the rest gather
        data = synth_planted(10, 30, 8, np.linspace(0.5, 3.0, 8), seed=11)
        queries = [normalize_minmax(q) for q in data.queries]
        walk = sampler._walk
        late = []

        def counted(ctx, cfg):
            plan, states, rejected = walk(ctx, cfg)
            late.append(bool(rejected))
            return plan, states, rejected

        monkeypatch.setattr(sampler, "_walk", counted)
        linear.train(queries, linear.LinearHyper(epochs=3), ChainConfig())
        assert (late.count(False), late.count(True)) == (42, 18)


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
        energies = np.array([energy(ctx, o) for o in orders])
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


class TestSampledGradientError:
    # the centred relative error |c(v) - c(exact)| / |c(exact)|, c(x) = x - mean(x),
    # of the chain's K-vector v of expected divergences, as a median over queries;
    # centred because the multiplicative weight update ignores a constant shift.
    # Planted data at N = 8, the largest N the exact backend enumerates.
    @staticmethod
    def median_errors(queries, budgets):
        weights = np.random.default_rng(1).dirichlet(np.ones(8))
        gain = sigmoid_gain(8)
        errors = []
        for q in queries:
            ctx = EnergyContext.from_query(q, weights, gain)
            exact = exact_expectation(ctx)
            exact = exact - exact.mean()
            chains = [expected_divergences(ctx, query_config(q, cfg), "mh") for cfg in budgets]
            errors.append([np.linalg.norm(v - v.mean() - exact) / np.linalg.norm(exact)
                           for v in chains])
        return np.median(errors, axis=0)

    @pytest.mark.parametrize("normalize, default_bound", [(True, 1.2), (False, 0.6)],
                             ids=["minmax", "raw"])
    def test_default_budget_error_and_its_fall_with_sixteen_times_the_steps(
            self, normalize, default_bound):
        data = synth_planted(20, 8, 8, np.linspace(0.5, 3.0, 8), seed=1)
        queries = [normalize_minmax(q) if normalize else q for q in data.queries]
        default, long = self.median_errors(queries, [
            ChainConfig(rng_seed=3), ChainConfig(num_samples=800, burn_in=1600, rng_seed=3)])
        # measured 0.933 (min-max) and 0.414 (raw) at the default budget, and
        # 0.217 and 0.109 at 16x; 1/sqrt(steps) predicts a quarter
        assert default <= default_bound
        assert long <= default / 2


class TestSeeds:
    def test_fnv1a64_known_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_chain_seed_mixes_query_id(self):
        assert chain_seed(0, "q1") == fnv1a64("q1")
        assert chain_seed(12345, "q1") != chain_seed(12345, "q2")
        assert chain_seed(12345, "q1") == chain_seed(12345, "q1")
