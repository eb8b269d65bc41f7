from __future__ import annotations

import math

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
from lbrank.metrics import baseline_average, ndcg_at_k
from lbrank.nested import (
    Activation,
    NestedHyper,
    NestedModel,
    init_nested,
    load_nested,
    save_nested,
)
from lbrank.sampler import ChainConfig
from lbrank.io import Dataset, normalize_minmax, synth_planted

import oracles
from conftest import make_query


def model_with(w, gain, **hyper) -> LinearModel:
    return LinearModel(SimplexWeights(w), gain, LinearHyper(**hyper))


def gradient(model: LinearModel, q, cfg, backend="mh"):
    return sgd_gradient(model.weights.w, model.gain, model.hyper.lam, q, cfg, backend)


def model_objective(model: LinearModel, queries, cfg, backend="mh"):
    return objective(model.weights.w, model.gain, model.hyper.lam, queries, cfg, backend)


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


@st.composite
def simplex_cases(draw):
    """A weight vector (K in 1..10) or K2 x K1 matrix, a finite gradient and mu in 1e-3..1e3.

    Each row keeps at least one positive coordinate; the rest are exactly
    0.0, and many rows keep just one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 16))
    w = np.zeros((rows, k))
    for row in w:
        active = 1 if draw(st.booleans()) else int(rng.integers(1, k + 1))
        row[rng.choice(k, size=active, replace=False)] = rng.dirichlet(np.ones(active))
    grad = rng.normal(size=w.shape) * 10.0 ** rng.uniform(-3.0, 6.0, size=w.shape)
    if draw(st.booleans()):
        w, grad = w[0], grad[0]
    return w, grad, 10.0 ** draw(st.floats(-3.0, 3.0))


class TestMultiplicativeUpdate:
    @given(simplex_cases())
    @settings(deadline=None)
    def test_matches_the_wrapper_expression(self, case):
        w, grad, mu = case
        got = multiplicative_simplex_update(w, grad, mu)
        assert got.tobytes() == oracles.wrapped_simplex_update(w, grad, mu).tobytes()

    @pytest.mark.parametrize("w", [np.zeros(3), np.array([[0.5, 0.5], [0.0, 0.0]])],
                             ids=["vector", "matrix-row"])
    def test_a_row_without_positive_weight_raises(self, w):
        with pytest.raises(ValueError, match="no positive coordinate"):
            multiplicative_simplex_update(w, np.zeros_like(w), mu=0.1)

    def test_input_errors_are_unchanged(self):
        w = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="^gradient shape does not match weights$"):
            multiplicative_simplex_update(w, np.zeros(2), mu=0.1)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^gradient must be finite$"):
                multiplicative_simplex_update(w, np.array([[0.0, 0.0], [bad, 0.0]]), mu=0.1)

    def test_finite_gradient_whose_step_overflows_raises(self):
        # -10 * -1e308 is past the float range: the step would be NaN everywhere
        with pytest.raises(ValueError, match=r"^-mu \* gradient overflows a double \(mu=10.0\)$"):
            multiplicative_simplex_update(np.array([0.5, 0.5]), np.array([-1e308, 0.0]), 10.0)
        # every mass-carrying step going to -inf leaves no finite max either
        with pytest.raises(ValueError, match=r"^-mu \* gradient overflows a double"):
            multiplicative_simplex_update(np.array([0.5, 0.5]), np.array([1e308, 1e308]), 10.0)

    @pytest.mark.parametrize("w, grad", [
        ([1.0, 0.0], [0.0, 1e308]),   # +inf or -inf on a zero-weight coordinate
        ([1.0, 0.0], [0.0, -1e308]),
        ([0.5, 0.5], [0.0, 1e308]),   # -inf below the max: that coordinate's mass goes to 0
    ])
    def test_step_overflowing_where_it_moves_no_mass_is_kept(self, w, grad):
        out = multiplicative_simplex_update(np.array(w), np.array(grad), 10.0)
        np.testing.assert_array_equal(out, [1.0, 0.0])

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

    def test_update_weights_moves_mass_to_the_smaller_gradient(self):
        out = update_weights(np.array([0.5, 0.5]), np.array([1.0, 0.0]), mu=0.1)
        assert out[1] > out[0]


class TestGradientAndObjective:
    def test_zero_gradient_for_constant_lists(self, small_gain):
        q = make_query([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
        model = model_with([0.5, 0.5], small_gain, lam=0.0)
        grad = gradient(model, q, ChainConfig(rng_seed=0), backend="exact")
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_gradient_is_expectation_plus_ridge(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 4)))
        model = model_with([0.25, 0.25, 0.5], gain6, lam=0.01)
        cfg = ChainConfig(rng_seed=3)
        grad = gradient(model, q, cfg, backend="exact")
        expectations = oracles.exact_expectations(
            q.matrix.tolist(), [0.25, 0.25, 0.5], gain6.increments[:4].tolist())
        want = np.asarray(expectations) + 0.01 * model.weights.w
        np.testing.assert_allclose(grad, want, atol=1e-12)

    def test_gradient_on_a_warm_query_equals_a_fresh_query(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 6)), query_id="warm")
        cfg = ChainConfig(rng_seed=5)
        for w in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1]):
            gradient(model_with(w, gain6), q, cfg)  # fills the query's memo
        model = model_with([0.5, 0.25, 0.25], gain6)
        fresh = QueryInstance(q.query_id, q.matrix)
        np.testing.assert_array_equal(gradient(model, q, cfg),
                                      gradient(model, fresh, cfg))

    def test_objective_zero_for_constant_lists(self, small_gain):
        q = make_query([[2.0, 2.0, 2.0]])
        model = model_with([1.0], small_gain, lam=0.0)
        assert model_objective(model, [q], ChainConfig(rng_seed=0), backend="exact") == 0.0

    def test_regularizer_contribution(self, small_gain):
        # constant lists leave only the ridge term: 0.01/2 * 4 * (1/16)
        q = make_query([[1.0, 1.0, 1.0]] * 4)
        model = model_with([0.25] * 4, small_gain, lam=0.01)
        got = model_objective(model, [q], ChainConfig(rng_seed=0), backend="exact")
        assert got == pytest.approx(0.00125, abs=1e-15)

    def test_single_query_matches_hand_expansion(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(2, 4)))
        w = [0.3, 0.7]
        model = model_with(w, gain6, lam=0.01)
        got = model_objective(model, [q], ChainConfig(rng_seed=0), backend="exact")
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
            grad = gradient(model, q, ChainConfig(rng_seed=5), backend="exact")
            frozen = oracles.exact_expectations(
                q.matrix.tolist(), w.tolist(), gain6.increments[:4].tolist())

            def frozen_objective(wvec):
                lin = math.fsum(wi * vi for wi, vi in zip(wvec, frozen))
                return lin + 0.5 * lam * math.fsum(wi * wi for wi in wvec)

            for i in range(k):
                fd = oracles.central_difference(frozen_objective, w.tolist(), i)
                assert abs(fd - grad[i]) / max(abs(grad[i]), 1e-12) < 1e-4

    @pytest.mark.parametrize("gain", [sigmoid_gain(6), log2_gain(6)], ids=["sigmoid", "log2"])
    def test_update_direction_is_the_free_energy_gradient(self, gain):
        # E_p[d] is the gradient of the free energy -log Z(w), so the paper's
        # gradient E_p[d] + lam * w is that of -log Z(w) + lam/2 |w|^2
        data = synth_planted(3, 6, 4, [0.5, 1.0, 2.0, 3.0], seed=1)
        increments = gain.increments.tolist()
        lam = 0.01
        for q in data.queries:
            matrix = q.matrix.tolist()
            free_energy = lambda v: -oracles.log_partition(matrix, v, increments)
            for w in np.random.default_rng(1).dirichlet(np.ones(4), size=3):
                grad = sgd_gradient(w, gain, lam, q, ChainConfig(rng_seed=1), backend="exact")
                fd = [oracles.central_difference(free_energy, w.tolist(), i, h=1e-5)
                      for i in range(4)]
                np.testing.assert_allclose(grad - lam * w, fd, rtol=1e-7)


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

    def test_a_query_keeps_one_memo_entry_of_each_kind(self):
        # each run replaces the config, stream and terms the last run left
        data = synth_planted(20, 5, 3, [0.0, 0.5, 1.0], seed=2)
        for seed in (0, 1, 2):
            train(data, LinearHyper(epochs=2), ChainConfig(num_samples=10, burn_in=10,
                                                           rng_seed=seed))
        assert max(len(q._memo) for q in data.queries) <= 3

    def test_variable_n_across_queries(self, rng):
        # N may differ per query; only K is fixed across a dataset
        queries = [make_query(rng.uniform(0, 1, size=(3, n)), query_id=f"q{n}")
                   for n in (3, 5, 8)]
        model, log = train(queries, LinearHyper(epochs=2), ChainConfig(rng_seed=6))
        assert log.epochs_run >= 1
        for q in queries:
            assert infer(model, q).size == q.n


class TestWhatTrainingConvergesTo:
    """Where exact-backend training ends on planted data, against the free energy.

    The free energy Phi(w) = mean_q -log Z_q(w) + lam/2 |w|^2 has the
    Hessian lam * I - Cov_p(d). Where the tangent eigenvalues of Cov_p(d)
    exceed lam, Phi is concave on the simplex and training ends at one
    ranker. Where they straddle lam, Phi is nearly flat and the default
    epochs end inside the simplex; the weights are still drifting then
    (200 epochs reach the vertex of least free energy).
    """

    LAM = LinearHyper().lam
    GAIN = sigmoid_gain(6)

    @classmethod
    def curvature_and_vertex_free_energies(cls, data):
        """Tangent eigenvalues of the mean Cov_p(d) at uniform weights, and Phi(e_i) per i."""
        k = data.k
        tables = [np.array(oracles.divergence_table(q.matrix.tolist(),
                                                    cls.GAIN.increments.tolist()))
                  for q in data.queries]

        def law(table, w):  # the Gibbs law p at w, and -log Z(w)
            energies = table @ w
            weight = np.exp(energies.min() - energies)
            return weight / weight.sum(), energies.min() - np.log(weight.sum())

        cov = np.zeros((k, k))
        for table in tables:
            p, _ = law(table, np.full(k, 1.0 / k))
            mean = p @ table
            cov += ((table * p[:, np.newaxis]).T @ table - np.outer(mean, mean)) / len(tables)
        tangent = np.linalg.svd(np.eye(k) - 1.0 / k)[0][:, :k - 1]  # orthonormal, sums 0
        vertices = [np.mean([law(table, e)[1] for table in tables]) + cls.LAM / 2
                    for e in np.eye(k)]
        return np.linalg.eigvalsh(tangent.T @ cov @ tangent), np.array(vertices)

    @classmethod
    def trained(cls, data):
        model, _ = train(data, LinearHyper(), ChainConfig(rng_seed=11), cls.GAIN,
                         backend="exact")
        return model.weights.w

    @staticmethod
    def planted(seed=11):
        return synth_planted(20, 6, 8, np.linspace(0.5, 3.0, 8), seed=seed)

    def test_raw_data_ends_at_the_vertex_of_least_free_energy(self):
        # measured: eigenvalues 0.064-1.81; Phi(e_0) = -5.524, next -5.461; w[0] = 0.988
        data = self.planted()
        eigenvalues, vertices = self.curvature_and_vertex_free_energies(data)
        assert eigenvalues.min() > 4 * self.LAM
        best, runner_up = np.argsort(vertices)[:2]
        assert best == 0 and vertices[runner_up] - vertices[best] > 0.02
        assert self.trained(data)[0] > 0.95

    def test_minmax_data_is_inside_the_simplex_after_the_default_epochs(self):
        # measured: eigenvalues 0.0042-0.0286; weights 0.049-0.230
        data = Dataset(tuple(normalize_minmax(q) for q in self.planted().queries))
        eigenvalues, _ = self.curvature_and_vertex_free_energies(data)
        assert eigenvalues.min() < 0.75 * self.LAM and eigenvalues.max() > 2 * self.LAM
        w = self.trained(data)
        assert w.min() > 0.02 and w.max() < 0.5

    @pytest.mark.parametrize("seed, raw_ndcg, shrunk_ndcg", [(11, 0.990, 0.871),
                                                             (12, 0.996, 0.841)])
    def test_shrinking_a_ranker_moves_the_weight_to_it(self, seed, raw_ndcg, shrunk_ndcg):
        # A vertex's free energy depends on its ranker's scores alone and falls as
        # they shrink, so on raw data the scale of a list, not its rankings, picks it.
        # measured: w[0] = 0.988 (seed 11) and 0.997 (seed 12); w[7] >= 0.999 once shrunk
        data = self.planted(seed)
        scale = np.array([1.0] * 7 + [0.3])[:, np.newaxis]  # ranker 7 is the noisiest
        shrunk = Dataset(tuple(QueryInstance(q.query_id, q.matrix * scale, q.relevance)
                               for q in data.queries))
        for q, s in zip(data.queries, shrunk.queries):
            assert np.array_equal(ranking_from_scores(q.matrix), ranking_from_scores(s.matrix))
        for d, pick, least, ndcg5 in ((data, 0, 0.95, raw_ndcg), (shrunk, 7, 0.999, shrunk_ndcg)):
            model, _ = train(d, LinearHyper(), ChainConfig(rng_seed=11), self.GAIN,
                             backend="exact")
            assert np.argmax(model.weights.w) == pick and model.weights.w[pick] >= least
            got = np.mean([ndcg_at_k(infer(model, q), q.relevance, 5, log2_gain(6))
                           for q in d.queries])
            assert got == pytest.approx(ndcg5, abs=1e-3)

    @pytest.mark.parametrize("gain", [sigmoid_gain(7), log2_gain(7)], ids=["sigmoid", "log2"])
    def test_a_vertex_expectation_depends_only_on_the_values_of_its_list(self, gain):
        # At e_i the law is exp(-d(x_i || pi)) / Z(x_i), and relabelling the
        # candidates permutes the orders: so a permutation of x_i's values,
        # as another list under its own vertex, has the same expected divergence.
        rng = np.random.default_rng(7)
        for n in range(2, 8):
            x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            q = make_query([x, rng.permutation(x), rng.standard_normal(n)], query_id=f"n{n}")
            own = [sgd_gradient(e, gain, 0.0, q, ChainConfig(rng_seed=3), backend="exact")[i]
                   for i, e in enumerate(np.eye(3)[:2])]
            np.testing.assert_allclose(own[1], own[0], rtol=1e-12)


class TestInfer:
    def test_uniform_weights_equal_averaging_baseline(self, gain6, rng):
        for i in range(20):
            k = int(rng.integers(1, 6))
            q = make_query(rng.normal(size=(k, 6)), query_id=f"q{i}")
            model = model_with(np.full(k, 1.0 / k), gain6)
            assert np.array_equal(infer(model, q), baseline_average(q))

    def test_one_hot_weights_echo_that_list(self, gain6, rng):
        q = make_query(rng.normal(size=(3, 6)))
        model = model_with([1.0, 0.0, 0.0], gain6)
        assert np.array_equal(infer(model, q), ranking_from_scores(q.matrix[0]))

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
                                              tuple(order.tolist()), inc)
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

    def test_numpy_scalar_hyperparameters_round_trip(self, tmp_path):
        # a numpy scalar is written as the number it holds, not as its repr
        model = model_with([0.5, 0.5], sigmoid_gain(4), mu=np.float64(0.05),
                           lam=np.float64(0.003), epochs=np.int64(9))
        save_linear(model, tmp_path / "linear.txt")
        assert load_linear(tmp_path / "linear.txt").hyper == LinearHyper(0.05, 0.003, 9)
        hyper = NestedHyper(mu=np.float64(0.05), lam1=np.float64(0.001),
                            lam2=np.float64(0.02), epochs=np.int64(7), k2=2,
                            init_jitter=np.float64(0.25))
        save_nested(init_nested(3, hyper, sigmoid_gain(4)), tmp_path / "nested.txt")
        assert load_nested(tmp_path / "nested.txt").hyper == NestedHyper(
            mu=0.05, lam1=0.001, lam2=0.02, epochs=7, k2=2, init_jitter=0.25)

    def test_file_bytes_are_pinned(self, tmp_path):
        # the text perfbench and other readers parse; dyadic weights print exactly
        save_linear(model_with([0.5, 0.25, 0.125, 0.125], sigmoid_gain(4)),
                    tmp_path / "linear.txt")
        assert (tmp_path / "linear.txt").read_bytes() == (
            b"format: lbrank-linear/1\nk: 4\ngain: sigmoid:4\nmu: 0.1\nlam: 0.01\n"
            b"epochs: 20\nw: 0.5 0.25 0.125 0.125\n")
        nested = NestedModel(np.array([[0.5, 0.25, 0.25], [0.0, 0.375, 0.625]]),
                             SimplexWeights([0.75, 0.25]), ConcaveGain([1.0, 0.5, 0.25]),
                             Activation("logistic"), Activation("identity"),
                             NestedHyper(mu=0.25, lam1=0.0, lam2=0.125, epochs=3, k2=2,
                                         init_jitter=0.0, sampling="per_unit"))
        save_nested(nested, tmp_path / "nested.txt")
        assert (tmp_path / "nested.txt").read_bytes() == (
            b"format: lbrank-nested/1\nk1: 3\nk2: 2\ngain: custom:1.0,0.5,0.25\n"
            b"phi1: logistic\nphi2: identity\nmu: 0.25\nlam1: 0.0\nlam2: 0.125\n"
            b"epochs: 3\ninit_jitter: 0.0\nsampling: per_unit\nw2: 0.75 0.25\n"
            b"w1[0]: 0.5 0.25 0.25\nw1[1]: 0.0 0.375 0.625\n")
