from __future__ import annotations

import math

import numpy as np
import pytest

from lbrank.core import (
    QueryInstance,
    Ranking,
    SimplexWeights,
    ranking_from_scores,
    sigmoid_gain,
)
from lbrank.linear import (
    LinearHyper,
    LinearModel,
    infer,
    load_linear,
    multiplicative_simplex_update,
    objective,
    save_linear,
    sgd_gradient,
    train,
    update_weights,
)
from lbrank.metrics import baseline_average, ndcg_at_k, RelevanceJudgments
from lbrank.sampler import ChainConfig
from lbrank.io import synth_planted

import oracles
from conftest import make_query


def model_with(w, gain, **hyper) -> LinearModel:
    return LinearModel(SimplexWeights(w), gain, LinearHyper(**hyper))


class TestHyper:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearHyper(mu=0.0)
        with pytest.raises(ValueError):
            LinearHyper(lam=-0.1)
        with pytest.raises(ValueError):
            LinearHyper(epochs=0)

    def test_defaults(self):
        hyper = LinearHyper()
        assert hyper.mu == 0.1
        assert hyper.lam == 0.01
        assert hyper.epochs == 20


class TestMultiplicativeUpdate:
    def test_constant_gradient_is_a_no_op(self):
        w = np.array([0.2, 0.3, 0.5])
        out = multiplicative_simplex_update(w, np.array([3.0, 3.0, 3.0]), mu=0.1)
        np.testing.assert_array_equal(out, w)

    def test_closed_form_two_coordinates(self):
        out = multiplicative_simplex_update(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), mu=0.1)
        e = math.exp(-0.1)
        np.testing.assert_allclose(out, [e / (1 + e), 1 / (1 + e)], atol=1e-15)

    def test_zero_mass_is_absorbing(self):
        out = multiplicative_simplex_update(
            np.array([1.0, 0.0]), np.array([5.0, -5.0]), mu=0.1)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_extreme_gradients_stay_on_simplex(self, rng):
        w = np.full(6, 1.0 / 6.0)
        for _ in range(200):
            grad = rng.normal(scale=rng.choice([1.0, 1e3, 1e6]), size=6)
            w = multiplicative_simplex_update(w, grad, mu=0.1)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0.0)

    def test_rejects_nonfinite_gradient(self):
        with pytest.raises(ValueError, match="finite"):
            multiplicative_simplex_update(np.array([0.5, 0.5]),
                                          np.array([np.nan, 0.0]), mu=0.1)

    def test_update_weights_wraps_model(self, small_gain):
        model = model_with([0.5, 0.5], small_gain)
        out = update_weights(model, np.array([1.0, 0.0]))
        assert out.weights.w[1] > out.weights.w[0]


class TestGradientAndObjective:
    def test_zero_gradient_for_constant_lists(self, small_gain):
        q = make_query([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
        model = model_with([0.5, 0.5], small_gain, lam=0.0)
        grad = sgd_gradient(model, q, ChainConfig(rng_seed=0), backend="exact")
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_gradient_is_expectation_plus_ridge(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 4)))
        model = model_with([0.25, 0.25, 0.5], gain6, lam=0.01)
        cfg = ChainConfig(rng_seed=3)
        grad = sgd_gradient(model, q, cfg, backend="exact")
        expectations = oracles.exact_expectations(
            q.matrix.tolist(), [0.25, 0.25, 0.5], gain6.increments[:4].tolist())
        want = np.asarray(expectations) + 0.01 * model.weights.w
        np.testing.assert_allclose(grad, want, atol=1e-12)

    def test_gradient_on_a_warm_query_equals_a_fresh_query(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 6)), query_id="warm")
        cfg = ChainConfig(rng_seed=5)
        for w in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1]):
            sgd_gradient(model_with(w, gain6), q, cfg)  # fills the query's memo
        model = model_with([0.5, 0.25, 0.25], gain6)
        fresh = QueryInstance(q.query_id, q.matrix)
        np.testing.assert_array_equal(sgd_gradient(model, q, cfg),
                                      sgd_gradient(model, fresh, cfg))

    def test_objective_zero_for_constant_lists(self, small_gain):
        q = make_query([[2.0, 2.0, 2.0]])
        model = model_with([1.0], small_gain, lam=0.0)
        assert objective(model, [q], ChainConfig(rng_seed=0), backend="exact") == 0.0

    def test_regularizer_contribution(self, small_gain):
        # constant lists leave only the ridge term: 0.01/2 * 4 * (1/16)
        q = make_query([[1.0, 1.0, 1.0]] * 4)
        model = model_with([0.25] * 4, small_gain, lam=0.01)
        got = objective(model, [q], ChainConfig(rng_seed=0), backend="exact")
        assert got == pytest.approx(0.00125, abs=1e-15)

    def test_single_query_matches_hand_expansion(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(2, 4)))
        w = [0.3, 0.7]
        model = model_with(w, gain6, lam=0.01)
        got = objective(model, [q], ChainConfig(rng_seed=0), backend="exact")
        expectations = oracles.exact_expectations(
            q.matrix.tolist(), w, gain6.increments[:4].tolist())
        want = math.fsum(wi * vi for wi, vi in zip(w, expectations))
        want += 0.5 * 0.01 * math.fsum(wi * wi for wi in w)
        assert got == pytest.approx(want, abs=1e-10)

    def test_gradient_matches_finite_differences(self, gain6, rng):
        # frozen expectations: the sampled objective is quadratic in w
        for _ in range(5):
            k = int(rng.integers(2, 5))
            q = make_query(rng.uniform(0, 1, size=(k, 4)))
            w = rng.dirichlet(np.ones(k))
            lam = 0.01
            model = model_with(w, gain6, lam=lam)
            grad = sgd_gradient(model, q, ChainConfig(rng_seed=5), backend="exact")
            frozen = oracles.exact_expectations(
                q.matrix.tolist(), w.tolist(), gain6.increments[:4].tolist())

            def frozen_objective(wvec):
                lin = math.fsum(wi * vi for wi, vi in zip(wvec, frozen))
                return lin + 0.5 * lam * math.fsum(wi * wi for wi in wvec)

            for i in range(k):
                fd = oracles.central_difference(frozen_objective, w.tolist(), i)
                assert abs(fd - grad[i]) / max(abs(grad[i]), 1e-12) < 1e-4


class TestTrain:
    def test_single_ranker_stays_at_one(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(1, 4)), query_id=f"q{i}")
                   for i in range(3)]
        model, _ = train(queries, LinearHyper(epochs=3), ChainConfig(rng_seed=1))
        np.testing.assert_array_equal(model.weights.w, [1.0])

    def test_planted_ranker_wins(self):
        data = synth_planted(50, 6, 3, [0.0, 0.8, 1.6], seed=5)
        model, _ = train(data, LinearHyper(epochs=5), ChainConfig(rng_seed=3))
        assert int(np.argmax(model.weights.w)) == 0

    def test_identical_rankers_share_weight(self, rng):
        base = rng.uniform(0, 1, size=(3, 5))
        queries = []
        for i in range(8):
            m = rng.uniform(0, 1, size=(3, 5))
            m[1] = m[0]  # rankers 0 and 1 identical
            queries.append(make_query(m, query_id=f"q{i}"))
        model, _ = train(queries, LinearHyper(epochs=4), ChainConfig(rng_seed=11))
        assert abs(model.weights.w[0] - model.weights.w[1]) <= 1e-3

    def test_early_stop_on_constant_data(self):
        queries = [make_query([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], query_id="q0")]
        model, log = train(queries, LinearHyper(epochs=10, lam=0.0),
                           ChainConfig(rng_seed=0))
        assert log.converged
        assert log.epochs_run == 1
        np.testing.assert_array_equal(model.weights.w, [0.5, 0.5])

    def test_objective_non_increasing_with_exact_backend(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(3, 4)), query_id=f"q{i}")
                   for i in range(6)]
        _, log = train(queries, LinearHyper(epochs=8, lam=0.0),
                       ChainConfig(rng_seed=1), backend="exact")
        assert np.all(np.diff(log.objectives) <= 1e-8)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], LinearHyper(epochs=1), ChainConfig())

    def test_simplex_held_after_every_epoch(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(4, 5)), query_id=f"q{i}")
                   for i in range(4)]
        _, log = train(queries, LinearHyper(epochs=5), ChainConfig(rng_seed=2))
        for w in log.snapshots:
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0.0)

    def test_shuffle_is_deterministic(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(3, 4)), query_id=f"q{i}")
                   for i in range(5)]
        m1, _ = train(queries, LinearHyper(epochs=3), ChainConfig(rng_seed=4),
                      shuffle=True)
        m2, _ = train(queries, LinearHyper(epochs=3), ChainConfig(rng_seed=4),
                      shuffle=True)
        np.testing.assert_array_equal(m1.weights.w, m2.weights.w)

    def test_variable_n_across_queries(self, rng):
        # N may differ per query; only K is fixed across a dataset
        queries = [make_query(rng.uniform(0, 1, size=(3, n)), query_id=f"q{n}")
                   for n in (3, 5, 8)]
        model, log = train(queries, LinearHyper(epochs=2), ChainConfig(rng_seed=6))
        assert log.epochs_run >= 1
        for q in queries:
            assert infer(model, q).n == q.n


class TestInfer:
    def test_uniform_weights_equal_averaging_baseline(self, gain6, rng):
        for i in range(20):
            k = int(rng.integers(1, 6))
            q = make_query(rng.normal(size=(k, 6)), query_id=f"q{i}")
            model = model_with(np.full(k, 1.0 / k), gain6)
            assert infer(model, q) == baseline_average(q)

    def test_one_hot_weights_echo_that_list(self, gain6, rng):
        q = make_query(rng.normal(size=(3, 6)))
        model = model_with([1.0, 0.0, 0.0], gain6)
        assert infer(model, q) == ranking_from_scores(q.lists[0])

    def test_attains_brute_force_minimum(self, gain6, rng):
        for _ in range(25):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, 6))
            q = make_query(rng.normal(size=(k, n)))
            w = rng.dirichlet(np.ones(k))
            model = model_with(w, gain6)
            order = infer(model, q)
            inc = gain6.increments[:n].tolist()
            got = oracles.weighted_divergence(q.matrix.tolist(), w.tolist(),
                                              order.as_tuple(), inc)
            best = oracles.min_weighted_divergence(q.matrix.tolist(), w.tolist(), inc)
            assert got <= best + 1e-10

    def test_k_mismatch_rejected(self, gain6):
        q = make_query([[1.0, 2.0]])
        model = model_with([0.5, 0.5], gain6)
        with pytest.raises(ValueError, match="K="):
            infer(model, q)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path, rng):
        w = rng.dirichlet(np.ones(5))
        model = model_with(w, sigmoid_gain(17), mu=0.07, lam=0.003, epochs=9)
        path = tmp_path / "model.txt"
        save_linear(model, path)
        loaded = load_linear(path)
        np.testing.assert_array_equal(loaded.weights.w, model.weights.w)
        np.testing.assert_array_equal(loaded.gain.increments, model.gain.increments)
        assert loaded.gain.kind == "sigmoid"
        assert loaded.hyper == model.hyper

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format: something-else/9\n")
        with pytest.raises(ValueError, match="not a"):
            load_linear(path)
