"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints one CRITERION nn PASS/FAIL line (visible with ``pytest -s``
or in the captured output). Criterion 10 is conditional on real MQ2008 data
supplied through the LBRANK_MQ2008 environment variable and is skipped
otherwise.
"""

from __future__ import annotations

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lbrank import cli
from lbrank import linear as linear_module
from lbrank import nested as nested_module
from lbrank.core import (
    ConcaveGain,
    QueryInstance,
    Ranking,
    SimplexWeights,
    ranking_from_scores,
    sigmoid_gain,
)
from lbrank.io import synth_planted
from lbrank.linear import (
    LinearHyper,
    LinearModel,
    infer as linear_infer,
    multiplicative_simplex_update,
    sgd_gradient,
    train as train_linear,
)
from lbrank.lovasz import lb_bound, lb_divergence
from lbrank.metrics import RelevanceJudgments, baseline_average, ndcg_at_k
from lbrank.nested import (
    Activation,
    NestedHyper,
    NestedModel,
    bottom_gradient,
    hidden_preactivation,
    infer as nested_infer,
    output_preactivation,
    per_list_expectation,
    top_gradient,
    train as train_nested,
    update_w1,
    update_w2,
)
from lbrank.sampler import (
    ChainConfig,
    EnergyContext,
    exact_distribution,
    exact_expectation,
    sample_expectation,
    sample_orders,
)

import oracles


def criterion(num: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"CRITERION {num:02d} SKIP  {title}")
                raise
            except BaseException:
                print(f"CRITERION {num:02d} FAIL  {title}")
                raise
            print(f"CRITERION {num:02d} PASS  {title}")
        return run
    return wrap


def random_gain(rng: np.random.Generator, n: int) -> ConcaveGain:
    increments = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    return ConcaveGain(increments)


@criterion(1, "closed-form inference attains the brute-force minimum")
def test_criterion_01_closed_form_inference_optimality():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, 6))
        matrix = rng.normal(size=(k, n)) * rng.uniform(0.2, 5.0)
        w = rng.dirichlet(np.ones(k))
        gain = random_gain(rng, n)
        q = QueryInstance.from_matrix("q", matrix)
        model = LinearModel(SimplexWeights(w), gain, LinearHyper())
        order = linear_infer(model, q)
        inc = gain.increments.tolist()
        achieved = oracles.weighted_divergence(matrix.tolist(), w.tolist(),
                                               order.as_tuple(), inc)
        best = oracles.min_weighted_divergence(matrix.tolist(), w.tolist(), inc)
        assert achieved <= best + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


@criterion(2, "divergence axioms: non-negative, zero at sort, shift-invariant, bounded")
def test_criterion_02_divergence_axioms():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        x = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        gain = random_gain(rng, n)
        sigma = Ranking(rng.permutation(n))
        d = lb_divergence(x, sigma, gain)
        assert d >= 0.0
        assert lb_divergence(x, ranking_from_scores(x), gain) == 0.0
        shift = float(rng.normal() * 100.0)
        d_shifted = lb_divergence(x + shift, sigma, gain)
        assert abs(d_shifted - d) <= 1e-10
        assert d <= lb_bound(x, gain) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


@criterion(3, "h-vector sums equal explicit chain-difference evaluation")
def test_criterion_03_chain_identity():
    rng = np.random.default_rng(1003)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=n) * rng.uniform(0.2, 8.0)
        gain = random_gain(rng, n)
        fast = float(gain.increments[:n] @ np.sort(x)[::-1])
        order = ranking_from_scores(x)
        chain = oracles.h_vector_chain(order.as_tuple(), gain.increments.tolist())
        slow = math.fsum(v * h for v, h in zip(x[np.asarray(order.order)],
                                               np.asarray(chain)[order.order]))
        assert abs(fast - slow) <= 1e-12


@criterion(4, "chain matches the exact law (TV <= 0.05) and 2% expectations")
def test_criterion_04_sampler_correctness():
    start = time.perf_counter()
    matrix = np.array([[0.9, 0.2, 0.5, 0.1],
                       [0.7, 0.4, 0.1, 0.8],
                       [0.3, 0.6, 0.2, 0.5]])
    q = QueryInstance.from_matrix("tv", matrix)
    gain = sigmoid_gain(4)
    ctx = EnergyContext.from_query(q, [0.4, 0.3, 0.3], gain)

    orders, probs = exact_distribution(ctx)
    chain = sample_orders(ctx, ChainConfig(num_samples=200_000, burn_in=1000,
                                           rng_seed=41))
    keys = [tuple(row) for row in orders.tolist()]
    counts = dict.fromkeys(keys, 0)
    for row in chain.tolist():
        counts[tuple(row)] += 1
    empirical = np.array([counts[k] for k in keys], dtype=float) / len(chain)
    tv = 0.5 * float(np.abs(empirical - probs).sum())
    assert tv <= 0.05, f"total variation {tv:.4f} > 0.05"

    estimate = sample_expectation(ctx, ChainConfig(num_samples=20_000,
                                                   burn_in=1000, rng_seed=42))
    exact = exact_expectation(ctx)
    rel = np.abs(estimate - exact) / np.abs(exact)
    assert np.all(rel <= 0.02), f"relative errors {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


@criterion(5, "analytic gradients match central finite differences to 1e-4")
def test_criterion_05_gradient_fidelity():
    rng = np.random.default_rng(1005)
    cfg = ChainConfig(rng_seed=7)

    for _ in range(25):  # linear-layer gradient configurations
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        q = QueryInstance.from_matrix("q", rng.uniform(0, 1, size=(k, n)))
        gain = random_gain(rng, n)
        w = rng.dirichlet(np.ones(k))
        lam = float(rng.uniform(0.0, 0.05))
        model = LinearModel(SimplexWeights(w), gain, LinearHyper(lam=lam))
        grad = sgd_gradient(model, q, cfg, backend="exact")
        frozen = oracles.exact_expectations(q.matrix.tolist(), w.tolist(),
                                            gain.increments[:n].tolist())

        def sampled_objective(wvec):
            lin = math.fsum(wi * vi for wi, vi in zip(wvec, frozen))
            return lin + 0.5 * lam * math.fsum(wi * wi for wi in wvec)

        for i in range(k):
            fd = oracles.central_difference(sampled_objective, w.tolist(), i)
            assert abs(fd - grad[i]) / max(abs(grad[i]), 1e-12) <= 1e-4

    for _ in range(25):  # nested-layer gradient configurations
        k1 = int(rng.integers(2, 4))
        k2 = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        q = QueryInstance.from_matrix("q", rng.uniform(0, 1, size=(k1, n)))
        gain = random_gain(rng, n)
        lam1 = float(rng.uniform(0.0, 0.05))
        lam2 = float(rng.uniform(0.0, 0.05))
        model = NestedModel(rng.dirichlet(np.ones(k1), size=k2),
                            SimplexWeights(rng.dirichlet(np.ones(k2))), gain,
                            Activation("shifted_logistic"),
                            Activation("shifted_logistic"),
                            NestedHyper(lam1=lam1, lam2=lam2, k2=k2))
        table = per_list_expectation(model, q, cfg, backend="exact")
        delta1 = hidden_preactivation(model, table)
        grad1 = bottom_gradient(model, table, delta1)
        phi1, phi2 = model.phi1, model.phi2

        for i in range(k2):
            def hidden_term(row, i=i):
                pre = math.fsum(r * v for r, v in zip(row, table[i]))
                return float(phi1(pre)) + 0.5 * lam1 * math.fsum(r * r for r in row)

            for j in range(k1):
                fd = oracles.central_difference(hidden_term, model.w1[i].tolist(), j)
                assert abs(fd - grad1[i, j]) / max(abs(grad1[i, j]), 1e-12) <= 1e-4

        delta2 = output_preactivation(model, delta1)
        grad2 = top_gradient(model, delta2, delta1)
        activated = np.asarray(phi1(delta1))

        def output_term(w2vec):
            pre = math.fsum(a * b for a, b in zip(w2vec, activated))
            return float(phi2(pre)) + 0.5 * lam2 * math.fsum(a * a for a in w2vec)

        for i in range(k2):
            fd = oracles.central_difference(output_term, model.w2.w.tolist(), i)
            assert abs(fd - grad2[i]) / max(abs(grad2[i]), 1e-12) <= 1e-4


@criterion(6, "simplex preserved through 10,000 random multiplicative updates")
def test_criterion_06_simplex_preservation():
    rng = np.random.default_rng(1006)

    def check(vec):
        assert abs(float(vec.sum()) - 1.0) <= 1e-9
        assert np.all(vec >= 0.0)

    w = np.full(7, 1.0 / 7.0)
    for _ in range(4000):  # single weight vector updates
        grad = rng.normal(scale=rng.choice([0.5, 10.0, 1e3, 1e6]), size=7)
        w = multiplicative_simplex_update(w, grad, mu=0.1)
        check(w)

    gain = sigmoid_gain(4)
    model = NestedModel(np.full((3, 5), 0.2), SimplexWeights.uniform(3), gain,
                        hyper=NestedHyper(k2=3))
    for _ in range(3000):  # hidden-layer row updates
        grad1 = rng.normal(scale=rng.choice([0.5, 10.0, 1e3]), size=(3, 5))
        model = update_w1(model, grad1)
        for row in model.w1:
            check(row)

    for _ in range(3000):  # output-layer updates
        grad2 = rng.normal(scale=rng.choice([0.5, 10.0, 1e3]), size=3)
        model = update_w2(model, grad2)
        check(model.w2.w)


@criterion(7, "one-hidden-unit nested training reproduces the linear trajectory")
def test_criterion_07_nested_to_linear_reduction():
    rng = np.random.default_rng(1007)
    queries = [QueryInstance.from_matrix(f"q{i}", rng.uniform(0, 1, size=(4, 4)))
               for i in range(5)]
    gain = sigmoid_gain(4)
    ident = Activation("identity")
    for backend, cfg in (("exact", ChainConfig(rng_seed=99)),
                         ("mh", ChainConfig(num_samples=20, burn_in=50, rng_seed=99))):
        _, linear_log = train_linear(queries, LinearHyper(epochs=6), cfg, gain,
                                     backend=backend)
        _, nested_log = train_nested(queries,
                                     NestedHyper(epochs=6, k2=1, init_jitter=0.0),
                                     cfg, gain, ident, ident, backend=backend)
        assert len(linear_log.snapshots) == len(nested_log.snapshots)
        for lw, (nw1, nw2) in zip(linear_log.snapshots, nested_log.snapshots):
            assert float(np.max(np.abs(nw1[0] - lw))) <= 1e-12
            np.testing.assert_array_equal(nw2, [1.0])


@criterion(8, "planted zero-noise ranker recovered with no NDCG@5 loss")
def test_criterion_08_planted_recovery():
    start = time.perf_counter()
    data = synth_planted(500, 10, 5, [0.0, 0.5, 1.0, 1.5, 2.0], seed=424242)
    model, _ = train_linear(data, LinearHyper(epochs=20), ChainConfig(rng_seed=31337))
    assert int(np.argmax(model.weights.w)) == 0

    gain = sigmoid_gain(10)

    def mean_ndcg5(rank_fn):
        return float(np.mean([
            ndcg_at_k(rank_fn(q), RelevanceJudgments(q.relevance), 5, gain)
            for q in data.queries
        ]))

    aggregated = mean_ndcg5(lambda q: linear_infer(model, q))
    best_single = max(
        mean_ndcg5(lambda q, i=i: ranking_from_scores(q.lists[i]))
        for i in range(5)
    )
    assert aggregated >= best_single - 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


@criterion(9, "uniform weights equal averaging; outer activation never reorders")
def test_criterion_09_baseline_equivalences():
    rng = np.random.default_rng(1009)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 8))
        q = QueryInstance.from_matrix("q", rng.normal(size=(k, n)))
        model = LinearModel(SimplexWeights.uniform(k), sigmoid_gain(n), LinearHyper())
        assert linear_infer(model, q) == baseline_average(q)

    for _ in range(100):
        k1 = int(rng.integers(2, 5))
        k2 = int(rng.integers(1, 5))
        n = int(rng.integers(2, 8))
        q = QueryInstance.from_matrix("q", rng.normal(size=(k1, n)))
        w1 = rng.dirichlet(np.ones(k1), size=k2)
        w2 = rng.dirichlet(np.ones(k2))
        gain = sigmoid_gain(n)
        rankings = set()
        for phi2 in ("shifted_logistic", "logistic", "identity"):
            model = NestedModel(w1, SimplexWeights(w2), gain,
                                Activation("shifted_logistic"), Activation(phi2),
                                NestedHyper(k2=k2))
            rankings.add(nested_infer(model, q))
        assert len(rankings) == 1
        inner = w2 @ np.asarray(Activation("shifted_logistic")(w1 @ q.matrix))
        assert rankings.pop() == ranking_from_scores(inner)


@criterion(10, "MQ2008 pipeline lands NDCG@1 in the sanity corridor (conditional)")
def test_criterion_10_mq2008_pipeline(tmp_path):
    location = os.environ.get("LBRANK_MQ2008")
    if not location:
        pytest.skip("MQ2008 data not supplied (set LBRANK_MQ2008 to a LETOR file "
                    "or a directory containing one)")
    path = Path(location)
    if path.is_dir():
        for name in ("train.txt", "vali.txt", "test.txt"):
            if (path / name).exists():
                path = path / name
                break
        else:
            candidates = sorted(path.glob("*.txt"))
            assert candidates, f"no .txt LETOR files under {path}"
            path = candidates[0]

    model_path = tmp_path / "mq2008-linear.txt"
    report_path = tmp_path / "mq2008-report.csv"
    assert cli.main(["train", "--data", str(path), "--out", str(model_path),
                     "--epochs", "10", "--seed", "2008"]) == 0
    assert cli.main(["eval", "--data", str(path), "--model-file", str(model_path),
                     "--out", str(report_path), "--topk", "7",
                     "--seed", "2008"]) == 0

    lines = report_path.read_text().strip().splitlines()
    assert lines[0] == "method,query_id,Top-1,Top-2,Top-3,Top-4,Top-5,Top-6,Top-7"
    mean_by_method = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "MEAN":
            mean_by_method[cells[0]] = [float(v) for v in cells[2:]]
    label = model_path.stem
    assert label in mean_by_method
    ndcg1 = mean_by_method[label][0]
    assert 0.25 <= ndcg1 <= 0.45, f"NDCG@1 {ndcg1:.4f} outside [0.25, 0.45]"


@criterion(11, "per-epoch cost grows at most x2.5 per doubling of N, K, K1*K2")
def test_criterion_11_complexity_smoke(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--out", str(out), "--bench-doublings", "3",
                     "--bench-queries", "8", "--bench-base-n", "32",
                     "--bench-base-k", "4", "--bench-repeats", "3",
                     "--samples", "50", "--burn-in", "100",
                     "--seed", "1011"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "axis,size,seconds_per_epoch,ratio,flag"
    ratios = []
    for line in lines[1:]:
        axis, size, seconds, ratio, flag = line.split(",")
        assert flag == "", f"bench flagged super-linear growth: {line}"
        if ratio:
            ratios.append(float(ratio))
    assert len(ratios) == 9  # three doublings per axis
    assert all(r <= 2.5 for r in ratios), f"ratios {ratios}"


@criterion(11, "chains and chain steps per bench epoch do not grow with N, K, K1*K2")
def test_criterion_11_chain_work_per_epoch(tmp_path, monkeypatch):
    # deterministic complement of the wall-clock gate above: count the work
    counts = {"calls": 0, "steps": 0}

    def counting(expected_divergences):
        def wrapper(ctx, cfg, backend="mh"):
            counts["calls"] += 1
            counts["steps"] += cfg.burn_in + cfg.num_samples * cfg.thinning
            return expected_divergences(ctx, cfg, backend)
        return wrapper

    for module in (linear_module, nested_module):
        monkeypatch.setattr(module, "expected_divergences",
                            counting(module.expected_divergences))
    epochs = []
    time_epoch = cli._time_epoch

    def counted_epoch(*args):
        before = dict(counts)
        seconds = time_epoch(*args)
        epochs.append((counts["calls"] - before["calls"], counts["steps"] - before["steps"]))
        return seconds

    monkeypatch.setattr(cli, "_time_epoch", counted_epoch)
    queries, samples, burn_in = 8, 50, 100
    assert cli.main(["bench", "--out", str(tmp_path / "bench.csv"), "--bench-doublings", "3",
                     "--bench-queries", str(queries), "--bench-base-n", "32",
                     "--bench-base-k", "4", "--bench-repeats", "1",
                     "--samples", str(samples), "--burn-in", str(burn_in),
                     "--seed", "1011"]) == 0
    assert len(epochs) == 12  # three axes, base size plus three doublings each
    # one gradient and one objective chain per query, each of a fixed length
    assert set(epochs) == {(2 * queries, 2 * queries * (burn_in + samples))}
