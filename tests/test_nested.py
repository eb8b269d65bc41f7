from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from lbrank.core import QueryInstance, SimplexWeights, ranking_from_scores, sigmoid_gain
from lbrank.linear import LinearHyper, multiplicative_simplex_update
from lbrank.linear import train as train_linear
from lbrank.metrics import baseline_average
from lbrank.nested import (
    Activation,
    NestedHyper,
    NestedModel,
    aggregate_scores,
    aggregate_weights,
    bottom_gradient,
    default_hidden_units,
    hidden_preactivation,
    infer,
    init_nested,
    load_nested,
    output_preactivation,
    per_list_expectation,
    save_nested,
    top_gradient,
    train,
    update_w1,
    update_w2,
)
from lbrank.sampler import ChainConfig, EnergyContext, exact_expectation

import oracles
from conftest import make_query


def simple_model(w1, w2, gain, phi1="identity", phi2="identity", **hyper) -> NestedModel:
    return NestedModel(np.asarray(w1, float), SimplexWeights(w2), gain,
                       Activation(phi1), Activation(phi2), NestedHyper(**hyper))


class TestActivations:
    def test_registry(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Activation("relu")

    def test_identity(self):
        phi = Activation("identity")
        assert phi(1.5) == 1.5
        assert phi.deriv(1.5) == 1.0

    def test_shifted_logistic_zero_at_zero(self):
        phi = Activation("shifted_logistic")
        assert phi(0.0) == 0.0
        assert phi.deriv(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["logistic", "shifted_logistic", "identity"])
    def test_derivative_matches_finite_differences(self, name):
        phi = Activation(name)
        for t in np.linspace(0.0, 4.0, 9):
            fd = (float(phi(t + 1e-6)) - float(phi(t - 1e-6))) / 2e-6
            assert float(phi.deriv(t)) == pytest.approx(fd, abs=1e-6)

    def test_logistic_matches_reference_within_4_ulp(self):
        # the shifted logistic is compared on the logistic scale, (1 + phi) / 2,
        # where its absolute error is measured against the same ulp
        grid = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-8, 1e-3, 700.0]])
        want = np.array([oracles.logistic(t) for t in grid])
        ulp = np.spacing(want)
        logistic = np.asarray(Activation("logistic")(grid))
        shifted = np.asarray(Activation("shifted_logistic")(grid))
        assert np.max(np.abs(logistic - want) / ulp) <= 4.0
        assert np.max(np.abs(0.5 + 0.5 * shifted - want) / ulp) <= 4.0

    def test_derivatives_match_reference(self):
        # 1 - tanh^2 cancels for large t, so the error is bounded in absolute
        # terms: 4 ulp of the slope's maximum (1/4 and 1/2)
        grid = np.linspace(0.0, 40.0, 4001)
        slope = np.array([oracles.logistic_slope(t) for t in grid])
        for name, scale in (("logistic", 1.0), ("shifted_logistic", 2.0)):
            got = np.asarray(Activation(name).deriv(grid))
            bound = 4.0 * np.spacing(0.25 * scale)
            assert np.max(np.abs(got - scale * slope)) <= bound

    @pytest.mark.parametrize("name", ["logistic", "shifted_logistic"])
    def test_saturates_without_warnings(self, name):
        phi = Activation(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.asarray(phi(np.array([-800.0, 800.0])))
            slopes = np.asarray(phi.deriv(np.array([-800.0, 800.0])))
        low = 0.0 if name == "logistic" else -1.0
        np.testing.assert_array_equal(values, [low, 1.0])
        np.testing.assert_array_equal(slopes, [0.0, 0.0])

    @pytest.mark.parametrize("name", ["logistic", "shifted_logistic"])
    def test_increasing_and_concave_on_nonnegatives(self, name):
        phi = Activation(name)
        grid = np.linspace(0.0, 8.0, 200)
        values = np.asarray(phi(grid))
        assert np.all(np.diff(values) > 0)
        assert np.all(np.diff(values, 2) < 1e-12)


class TestConfiguration:
    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            NestedHyper(mu=0.0)
        with pytest.raises(ValueError):
            NestedHyper(lam1=-1.0)
        with pytest.raises(ValueError):
            NestedHyper(k2=0)
        with pytest.raises(ValueError):
            NestedHyper(sampling="both")

    def test_default_hidden_units(self):
        assert default_hidden_units(3) == 10
        assert default_hidden_units(8) == 16
        assert default_hidden_units(40) == 64

    def test_init_jitter_breaks_symmetry(self, gain6):
        model = init_nested(4, NestedHyper(k2=3, init_jitter=0.01), gain6, seed=1)
        assert not np.allclose(model.w1[0], model.w1[1])
        np.testing.assert_allclose(model.w1.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_jitter_is_exactly_uniform(self, gain6):
        model = init_nested(4, NestedHyper(k2=2, init_jitter=0.0), gain6, seed=1)
        np.testing.assert_array_equal(model.w1, np.full((2, 4), 0.25))
        np.testing.assert_array_equal(model.w2.w, [0.5, 0.5])

    def test_model_validates_rows(self, gain6):
        with pytest.raises(ValueError, match="row"):
            NestedModel(np.array([[0.7, 0.7]]), SimplexWeights([1.0]), gain6)


class TestForwardPieces:
    def test_hidden_preactivation_constant_lists_is_zero(self, gain6):
        q = make_query([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        model = simple_model([[0.5, 0.5], [0.2, 0.8]], [0.5, 0.5], gain6, k2=2)
        table = per_list_expectation(model, q, ChainConfig(rng_seed=0), backend="exact")
        np.testing.assert_array_equal(hidden_preactivation(model, table), [0.0, 0.0])

    def test_one_hot_row_reduces_to_sampler_output(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(2, 4)))
        model = simple_model([[1.0, 0.0]], [1.0], gain6, k2=1)
        table = per_list_expectation(model, q, ChainConfig(rng_seed=0), backend="exact")
        delta1 = hidden_preactivation(model, table)
        ctx = EnergyContext.from_query(q, aggregate_weights(model), gain6)
        np.testing.assert_allclose(delta1, [exact_expectation(ctx)[0]], atol=1e-14)

    def test_sampled_preactivation_close_to_enumeration(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 4)))
        w1 = rng.dirichlet(np.ones(3), size=2)
        model = simple_model(w1, [0.5, 0.5], gain6, k2=2)
        cfg = ChainConfig(num_samples=20_000, burn_in=1000, rng_seed=3)
        sampled = hidden_preactivation(
            model, per_list_expectation(model, q, cfg, backend="mh"))
        exact = hidden_preactivation(
            model, per_list_expectation(model, q, cfg, backend="exact"))
        np.testing.assert_allclose(sampled, exact, rtol=0.02)

    def test_bottom_gradient_arithmetic(self, gain6):
        # logistic slope at 0 is 1/4: 0.25 * 0.5 + 0.01 * 0.5 = 0.13
        model = simple_model([[0.5, 0.5]], [1.0], gain6,
                             phi1="logistic", lam1=0.01, k2=1)
        grad = bottom_gradient(model, np.array([[0.5, 0.5]]), np.array([0.0]))
        np.testing.assert_allclose(grad, [[0.13, 0.13]], atol=1e-15)

    def test_bottom_gradient_zero_case(self, gain6):
        model = simple_model([[0.5, 0.5]], [1.0], gain6, lam1=0.0, k2=1)
        grad = bottom_gradient(model, np.zeros((1, 2)), np.array([0.0]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])

    def test_update_w1_row_behaviour(self, gain6):
        model = simple_model([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5], gain6, k2=2)
        grad = np.array([[1.0, 0.0], [9.0, -9.0]])
        out = update_w1(model, grad)
        e = math.exp(-0.1)
        np.testing.assert_allclose(out.w1[0], [e / (1 + e), 1 / (1 + e)], atol=1e-15)
        np.testing.assert_array_equal(out.w1[1], [1.0, 0.0])  # one-hot stays

    def test_update_w1_equals_row_by_row_update(self, gain6, rng):
        w1 = [[0.2, 0.3, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0],
              [0.25, 0.25, 0.25, 0.25], [0.1, 0.0, 0.6, 0.3]]
        model = simple_model(w1, [0.25] * 4, gain6, k2=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-3, 1.0, 1e3, 1e6, 1e300):
                grad = rng.normal(size=(4, 4)) * scale
                got = update_w1(model, grad).w1
                rows = [multiplicative_simplex_update(model.w1[i], grad[i], model.hyper.mu)
                        for i in range(4)]
                np.testing.assert_array_equal(got, np.stack(rows))
                np.testing.assert_array_equal(got, np.stack([
                    oracles.simplex_update_row(model.w1[i], grad[i], model.hyper.mu)
                    for i in range(4)]))
        grad[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            update_w1(model, grad)

    def test_constant_grad_keeps_rows(self, gain6):
        model = simple_model([[0.25, 0.75]], [1.0], gain6, k2=1)
        out = update_w1(model, np.array([[2.0, 2.0]]))
        np.testing.assert_array_equal(out.w1, model.w1)

    def test_output_preactivation_one_hot(self, gain6):
        model = simple_model([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], gain6,
                             phi1="shifted_logistic", k2=2)
        delta1 = np.array([0.3, 0.9])
        got = output_preactivation(model, delta1)
        assert got == pytest.approx(float(model.phi1(0.9)), abs=1e-15)

    def test_output_preactivation_constant_hidden(self, gain6):
        model = simple_model([[0.5, 0.5]] * 3, [0.2, 0.3, 0.5], gain6,
                             phi1="shifted_logistic", k2=3)
        got = output_preactivation(model, np.array([0.4, 0.4, 0.4]))
        assert got == pytest.approx(float(model.phi1(0.4)), abs=1e-15)

    def test_output_preactivation_golden_value(self):
        model = simple_model([[0.6, 0.4], [0.2, 0.8]], [0.3, 0.7], sigmoid_gain(4),
                             phi1="shifted_logistic", k2=2)
        got = output_preactivation(model, np.array([0.2, 0.5]))
        assert got == pytest.approx(0.2013434620700832, abs=1e-15)

    def test_top_gradient_zero_case(self, gain6):
        # zero hidden preactivations and lam2 = 0 give a zero gradient
        model = simple_model([[0.5, 0.5]] * 2, [0.5, 0.5], gain6,
                             phi1="shifted_logistic", phi2="shifted_logistic",
                             lam2=0.0, k2=2)
        grad = top_gradient(model, 0.0, np.zeros(2))
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_top_gradient_arithmetic(self, gain6):
        # phi2 logistic slope at 0 is 1/4; identity phi1 passes delta1 through
        model = simple_model([[1.0]] * 2, [0.5, 0.5], gain6,
                             phi1="identity", phi2="logistic", lam2=0.01, k2=2)
        grad = top_gradient(model, 0.0, np.array([0.4, 0.8]))
        np.testing.assert_allclose(grad, [0.25 * 0.4 + 0.005, 0.25 * 0.8 + 0.005],
                                   atol=1e-15)

    def test_update_w2(self, gain6):
        model = simple_model([[1.0]] * 2, [0.5, 0.5], gain6, k2=2)
        out = update_w2(model, np.array([1.0, 0.0]))
        e = math.exp(-0.1)
        np.testing.assert_allclose(out.w2.w, [e / (1 + e), 1 / (1 + e)], atol=1e-15)
        assert out.w1 is model.w1


class TestGradientFidelity:
    def test_bottom_and_top_match_finite_differences(self, gain6, rng):
        for _ in range(6):
            k1 = int(rng.integers(2, 4))
            k2 = int(rng.integers(1, 4))
            q = make_query(rng.uniform(0, 1, size=(k1, 4)))
            w1 = rng.dirichlet(np.ones(k1), size=k2)
            w2 = rng.dirichlet(np.ones(k2))
            model = simple_model(w1, w2, gain6, phi1="shifted_logistic",
                                 phi2="shifted_logistic", lam1=0.01, lam2=0.01,
                                 k2=k2)
            table = per_list_expectation(model, q, ChainConfig(rng_seed=2),
                                         backend="exact")
            delta1 = hidden_preactivation(model, table)
            grad1 = bottom_gradient(model, table, delta1)
            phi1 = model.phi1

            # the hidden-layer update target: phi1 of the unit preactivation
            # plus that row's share of the Frobenius penalty
            for i in range(k2):
                for j in range(k1):
                    def row_term(row):
                        pre = math.fsum(r * v for r, v in zip(row, table[i]))
                        reg = 0.5 * 0.01 * math.fsum(r * r for r in row)
                        return float(phi1(pre)) + reg

                    fd = oracles.central_difference(row_term, w1[i].tolist(), j)
                    rel = abs(fd - grad1[i, j]) / max(abs(grad1[i, j]), 1e-12)
                    assert rel < 1e-4

            delta1_next = hidden_preactivation(model, table)
            delta2 = output_preactivation(model, delta1_next)
            grad2 = top_gradient(model, delta2, delta1_next)
            phi2 = model.phi2
            activated = np.asarray(phi1(delta1_next))

            def outer_term(w2vec):
                pre = math.fsum(a * b for a, b in zip(w2vec, activated))
                reg = 0.5 * 0.01 * math.fsum(a * a for a in w2vec)
                return float(phi2(pre)) + reg

            for i in range(k2):
                fd = oracles.central_difference(outer_term, w2.tolist(), i)
                rel = abs(fd - grad2[i]) / max(abs(grad2[i]), 1e-12)
                assert rel < 1e-4


class TestTrain:
    def test_reduces_to_linear_with_one_hidden_unit(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(4, 4)), query_id=f"q{i}")
                   for i in range(5)]
        gain = sigmoid_gain(4)
        cfg = ChainConfig(rng_seed=99)
        ident = Activation("identity")
        _, linear_log = train_linear(queries, LinearHyper(epochs=6), cfg, gain,
                                     backend="exact")
        _, nested_log = train(queries,
                              NestedHyper(epochs=6, k2=1, init_jitter=0.0),
                              cfg, gain, ident, ident, backend="exact")
        for lw, (nw1, nw2) in zip(linear_log.snapshots, nested_log.snapshots):
            np.testing.assert_allclose(nw1[0], lw, atol=1e-12)
            np.testing.assert_array_equal(nw2, [1.0])

    def test_single_input_ranker_rows_stay_one(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(1, 4)), query_id=f"q{i}")
                   for i in range(3)]
        model, _ = train(queries, NestedHyper(epochs=3, k2=4), ChainConfig(rng_seed=0))
        np.testing.assert_array_equal(model.w1, np.ones((4, 1)))

    def test_planted_best_ranker_gets_most_column_mass(self):
        from lbrank.io import synth_planted
        data = synth_planted(40, 6, 3, [0.0, 1.0, 2.0], seed=9)
        model, _ = train(data, NestedHyper(epochs=5, k2=4), ChainConfig(rng_seed=21))
        column_mass = aggregate_weights(model)
        assert int(np.argmax(column_mass)) == 0

    def test_simplex_invariants_after_training(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(3, 5)), query_id=f"q{i}")
                   for i in range(4)]
        model, _ = train(queries, NestedHyper(epochs=4, k2=3), ChainConfig(rng_seed=2))
        np.testing.assert_allclose(model.w1.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.w1 >= 0)
        assert abs(model.w2.w.sum() - 1.0) <= 1e-9

    def test_per_unit_table_on_a_warm_query_equals_a_fresh_query(self, gain6, rng):
        q = make_query(rng.uniform(0, 1, size=(3, 5)), query_id="warm")
        model = init_nested(3, NestedHyper(k2=3, sampling="per_unit", init_jitter=0.5),
                            gain6, seed=2)
        cfg = ChainConfig(rng_seed=4, num_samples=30)
        per_list_expectation(model, q, cfg)  # one stream per hidden unit
        model = update_w1(model, np.full((3, 3), 0.5) + np.eye(3))
        fresh = make_query(q.matrix, query_id="warm")
        np.testing.assert_array_equal(per_list_expectation(model, q, cfg),
                                      per_list_expectation(model, fresh, cfg))

    def test_per_unit_sampling_mode_runs(self, rng):
        queries = [make_query(rng.uniform(0, 1, size=(3, 4)), query_id=f"q{i}")
                   for i in range(2)]
        hyper = NestedHyper(epochs=2, k2=2, sampling="per_unit")
        model, log = train(queries, hyper, ChainConfig(rng_seed=6, num_samples=20))
        assert log.epochs_run >= 1
        np.testing.assert_allclose(model.w1.sum(axis=1), 1.0, atol=1e-9)


class TestInfer:
    def test_one_hot_rows_echo_that_list(self, gain6, rng):
        q = make_query(rng.normal(size=(3, 6)))
        model = simple_model([[0.0, 1.0, 0.0]] * 4, [0.25] * 4, gain6,
                             phi1="shifted_logistic", phi2="shifted_logistic", k2=4)
        assert infer(model, q) == ranking_from_scores(q.lists[1])

    def test_uniform_everything_matches_averaging(self, gain6, rng):
        q = make_query(rng.normal(size=(4, 6)))
        model = simple_model([[0.25] * 4] * 3, [1 / 3] * 3, gain6,
                             phi1="shifted_logistic", phi2="shifted_logistic", k2=3)
        assert infer(model, q) == baseline_average(q)

    def test_outer_activation_never_changes_the_ranking(self, gain6, rng):
        for _ in range(20):
            k1, k2, n = (int(rng.integers(2, 5)) for _ in range(3))
            n += 3
            q = make_query(rng.normal(size=(k1, n)))
            w1 = rng.dirichlet(np.ones(k1), size=k2)
            w2 = rng.dirichlet(np.ones(k2))
            with_phi2 = simple_model(w1, w2, gain6, phi1="shifted_logistic",
                                     phi2="shifted_logistic", k2=k2)
            without = simple_model(w1, w2, gain6, phi1="shifted_logistic",
                                   phi2="identity", k2=k2)
            assert infer(with_phi2, q) == infer(without, q)

    def test_k_mismatch_rejected(self, gain6):
        model = simple_model([[0.5, 0.5]], [1.0], gain6, k2=1)
        with pytest.raises(ValueError, match="K1"):
            infer(model, make_query([[1.0, 2.0]]))


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path, rng):
        w1 = rng.dirichlet(np.ones(3), size=4)
        w2 = rng.dirichlet(np.ones(4))
        model = simple_model(w1, w2, sigmoid_gain(9),
                             phi1="logistic", phi2="shifted_logistic",
                             mu=0.2, lam1=0.001, lam2=0.02, epochs=7, k2=4)
        path = tmp_path / "nested.txt"
        save_nested(model, path)
        loaded = load_nested(path)
        np.testing.assert_array_equal(loaded.w1, model.w1)
        np.testing.assert_array_equal(loaded.w2.w, model.w2.w)
        np.testing.assert_array_equal(loaded.gain.increments, model.gain.increments)
        assert loaded.phi1.name == "logistic"
        assert loaded.phi2.name == "shifted_logistic"
        assert loaded.hyper == model.hyper

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format: lbrank-linear/1\n")
        with pytest.raises(ValueError, match="not a"):
            load_nested(path)
