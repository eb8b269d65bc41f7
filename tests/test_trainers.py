"""The shared epoch loop of the linear and nested trainers.

Checked three ways: bit for bit against the written-out reference trainers
in ``oracles``; by the number of validated objects one ``train`` call
builds; and through the per-layer tracer of the benchmark, whose counts
must match the loop's structure.
"""

from __future__ import annotations

import collections
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lbrank import cli, linear, nested
from lbrank.core import QueryInstance, SimplexWeights, sigmoid_gain
from lbrank.io import synth_planted, write_scores_csv
from lbrank.linear import LinearHyper, LinearModel
from lbrank.nested import Activation, NestedHyper, NestedModel, init_nested
from lbrank.sampler import ChainConfig

import oracles

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def queries(kind: str, n_queries: int = 5) -> list[QueryInstance]:
    """Fresh queries (no warm memo): planted scores, or constant lists that converge."""
    if kind == "constant":
        return [QueryInstance(f"c{i}", [[1.0] * 5, [2.0] * 5, [0.5] * 5])
                for i in range(n_queries)]
    return list(synth_planted(n_queries, 5, 3, [0.0, 0.7, 1.4], seed=8).queries)


def assert_logs_equal(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, tuple):
            for part_a, part_b in zip(a, b, strict=True):
                np.testing.assert_array_equal(part_a, part_b)
        else:
            np.testing.assert_array_equal(a, b)


CHAIN = ChainConfig(num_samples=20, burn_in=30, rng_seed=7)


@pytest.mark.parametrize("kind", ["planted", "constant"])
@pytest.mark.parametrize("backend", ["mh", "exact"])
def test_linear_train_equals_reference(backend, kind):
    hyper = LinearHyper(epochs=4, lam=0.0 if kind == "constant" else 0.01)
    gain = sigmoid_gain(5)
    model, log = linear.train(queries(kind), hyper, CHAIN, gain, backend)
    w, objectives, snapshots = oracles.train_linear(queries(kind), hyper, CHAIN, gain, backend)
    np.testing.assert_array_equal(model.weights.w, w)
    np.testing.assert_array_equal(log.objectives, objectives)
    assert_logs_equal(log.snapshots, snapshots)
    assert log.epochs_run == len(snapshots)
    assert log.converged == (kind == "constant")


@pytest.mark.parametrize("kind", ["planted", "constant"])
@pytest.mark.parametrize("backend", ["mh", "exact"])
def test_nested_train_equals_reference(backend, kind):
    lam = 0.0 if kind == "constant" else 0.01
    hyper = NestedHyper(epochs=3, k2=3, lam1=lam, lam2=lam, init_jitter=0.3)
    gain = sigmoid_gain(5)
    phi1, phi2 = Activation("shifted_logistic"), Activation("logistic")
    model, log = nested.train(queries(kind), hyper, CHAIN, gain, phi1, phi2, backend)
    start = init_nested(3, hyper, gain, phi1, phi2, seed=CHAIN.rng_seed)
    w1, w2, objectives, snapshots = oracles.train_nested(queries(kind), start, CHAIN, backend)
    np.testing.assert_array_equal(model.w1, w1)
    np.testing.assert_array_equal(model.w2.w, w2)
    np.testing.assert_array_equal(log.objectives, objectives)
    assert_logs_equal(log.snapshots, snapshots)
    assert log.epochs_run == len(snapshots)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of SimplexWeights, LinearModel and NestedModel objects built."""
    counts = collections.Counter()
    for cls in (SimplexWeights, LinearModel, NestedModel):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_models_are_built_once_at_init_and_once_at_the_end(constructions):
    built = {}
    for n_queries in (3, 12):
        data = queries("planted", n_queries)
        constructions.clear()
        linear.train(data, LinearHyper(epochs=2), CHAIN)
        built["linear", n_queries] = dict(constructions)
        constructions.clear()
        nested.train(data, NestedHyper(epochs=2, k2=3), CHAIN)
        built["nested", n_queries] = dict(constructions)
    # linear: the uniform start and the final weights; nested: init_nested's
    # model and the final one, each with its W2
    assert built["linear", 3] == built["linear", 12] == {"SimplexWeights": 2,
                                                         "LinearModel": 1}
    assert built["nested", 3] == built["nested", 12] == {"SimplexWeights": 2,
                                                         "NestedModel": 2}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists(tracing):
    for module_name, attr, _ in tracing.PATCH_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"


@pytest.mark.parametrize("model, per_query", [
    ("linear", {"linear.sgd_gradient": 1, "linear.update_weights": 1,
                "sampler.expected_divergences": 2, "sampler.context_build": 2}),
    # per_list_expectation runs once per step and once per query in the objective pass
    ("nested", {"nested.per_list_expectation": 2, "nested.update_w1": 1,
                "nested.update_w2": 1, "sampler.expected_divergences": 2,
                "sampler.context_build": 2}),
])
def test_traced_train_counts_follow_the_loop(tracing, tmp_path, model, per_query):
    n_queries, epochs = 6, 2
    data = tmp_path / "planted.csv"
    write_scores_csv(synth_planted(n_queries, 5, 3, [0.0, 0.7, 1.4], seed=3), data)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["train", "--model", model, "--epochs", str(epochs), "--k2", "3",
                         "--data", str(data), "--out", str(tmp_path / "m.txt")]) == 0
    calls = collections.Counter(name for name, *_ in tracer.spans)
    for name, times in per_query.items():
        assert calls[name] == times * n_queries * epochs, name
    assert calls[f"{model}.objective"] == epochs
    assert calls[f"{model}.train"] == 1
