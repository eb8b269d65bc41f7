"""Block-at-a-time scoring, ranking and NDCG against the one-query formulas.

``infer`` and ``eval`` score, rank, Borda-count and NDCG-score the queries
of a parsed dataset one candidate-count block at a time. Each block item
is the K x N matrix a query alone would hand numpy, so every result must
equal, byte for byte, the one-query form kept in ``tests/oracles.py``.
The files are written with ragged N from 1, K from 1, tied scores,
constant lists, and the lines of different queries interleaved.
"""

from __future__ import annotations

import contextlib
import io
import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lbrank import linear, metrics, nested
from lbrank.cli import main
from lbrank.core import SimplexWeights, ranking_from_scores, sigmoid_gain, weighted_average_scores
from lbrank.io import parse_letor, parse_scores_csv
from lbrank.linear import LinearModel, save_linear
from lbrank.nested import ACTIVATION_NAMES, Activation, NestedHyper, init_nested, save_nested

import oracles

N_MAX = 7
_VALUE = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _data(draw):
    """(K, queries, line order, linear weights, seed): each query is (matrix, grades)."""
    k = draw(st.integers(1, 4))
    queries = []
    for n in draw(st.lists(st.integers(1, N_MAX), min_size=1, max_size=6)):
        rows = [[draw(_VALUE)] * n if draw(st.booleans())  # a constant list
                else draw(st.lists(_VALUE, min_size=n, max_size=n)) for _ in range(k)]
        queries.append((rows, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    lines = [(i, c) for i, (_, grades) in enumerate(queries) for c in range(len(grades))]
    order = draw(st.permutations(range(len(lines))))
    # shuffled lines, each query's own lines kept in candidate order
    slots = sorted(range(len(lines)), key=lambda s: (lines[order[s]][0], s))
    placed = [None] * len(lines)
    for slot, line in zip(slots, lines):
        placed[slot] = line
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return k, queries, placed, weights, draw(st.integers(0, 2 ** 32 - 1))


def _write(path, fmt: str, k: int, queries, lines) -> None:
    text = []
    for i, c in lines:
        rows, grades = queries[i]
        values = [rows[r][c] for r in range(k)]
        if fmt == "csv":
            text.append(f"q{i},{c},{','.join(map(repr, values))},{grades[c]}\n")
        else:
            features = " ".join(f"{r + 1}:{v!r}" for r, v in enumerate(values))
            text.append(f"{grades[c]} qid:q{i} {features}\n")
    header = ("query_id,candidate_id," + ",".join(f"ranker_{r}" for r in range(k))
              + ",relevance\n") if fmt == "csv" else ""
    path.write_text(header + "".join(text), encoding="utf-8")


def _parsed(tmp_path, data):
    """(file, dataset) of both formats of the drawn queries.

    Each dataset is checked to hold the drawn queries in first-seen order,
    and its blocks to hold each query once, by ascending N and in file
    order within a block, as the array its query's matrix and grades view.
    """
    k, queries, lines, _, _ = data
    datasets = []
    for fmt, parse in (("csv", parse_scores_csv), ("letor", parse_letor)):
        path = tmp_path / f"data.{fmt}"
        _write(path, fmt, k, queries, lines)
        dataset = parse(path)
        first_seen = list(dict.fromkeys(f"q{i}" for i, _ in lines))
        assert [q.query_id for q in dataset.queries] == first_seen
        for q in dataset.queries:
            rows, grades = queries[int(q.query_id[1:])]
            assert q.matrix.tobytes() == np.array(rows, dtype=np.float64).tobytes()
            assert q.relevance.tobytes() == np.array(grades, dtype=np.float64).tobytes()
        index = np.concatenate([block.index for block in dataset.blocks])
        assert sorted(index.tolist()) == list(range(len(dataset.queries)))
        sizes = [block.scores.shape[-1] for block in dataset.blocks]
        assert sizes == sorted(set(sizes))
        for block in dataset.blocks:
            assert np.all(np.diff(block.index) > 0)
            for j, i in enumerate(block.index.tolist()):
                q = dataset.queries[i]
                assert q.matrix.base is block.scores and q.relevance.base is block.relevance
                assert q.matrix.tobytes() == block.scores[j].tobytes()
        datasets.append((path, dataset))
    return datasets


def _nested_models(k: int, seed: int):
    """A nested model for every (phi1, phi2) pair, all with the same weights."""
    gain = sigmoid_gain(N_MAX)
    return [init_nested(k, NestedHyper(k2=3, init_jitter=0.5), gain, Activation(phi1),
                        Activation(phi2), seed=seed)
            for phi1, phi2 in itertools.product(ACTIVATION_NAMES, repeat=2)]


def _methods(k: int, weights, seed: int):
    """(block scoring, one-query scoring) of averaging, Borda, linear and each nested model."""
    uniform = SimplexWeights.uniform(k).w
    model = LinearModel(SimplexWeights(np.array(weights) / sum(weights)), sigmoid_gain(N_MAX))
    methods = [(lambda x: weighted_average_scores(x, uniform),
                lambda m: oracles.query_scores(uniform, m)),
               (metrics.borda_points, oracles.borda_query_points),
               (lambda x: linear.aggregate_scores(model, x),
                lambda m: oracles.query_scores(model.weights.w, m))]
    for net in _nested_models(k, seed):
        methods.append((lambda x, net=net: nested.aggregate_scores(net, x),
                        lambda m, net=net: oracles.nested_query_scores(
                            net.w1, net.w2.w, net.phi1.name, net.phi2.name, m)))
    return methods


_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBlocksMatchPerQuery:
    @given(data=_data())
    @_SETTINGS
    def test_scores_borda_points_and_rankings(self, tmp_path, data):
        k, _, _, weights, seed = data
        methods = _methods(k, weights, seed)
        for _, dataset in _parsed(tmp_path, data):
            for block in dataset.blocks:
                for block_scores, query_scores in methods:
                    got = block_scores(block.scores)
                    orders = ranking_from_scores(got)
                    assert got.shape == orders.shape == block.scores.shape[::2]
                    for j, i in enumerate(block.index.tolist()):
                        want = query_scores(dataset.queries[i].matrix)
                        assert got[j].tobytes() == want.tobytes()
                        assert orders[j].tobytes() == oracles.query_ranking(want).tobytes()

    @given(data=_data(), topk=st.integers(1, N_MAX + 2))
    @_SETTINGS
    def test_ndcg_table_of_every_method_at_once(self, tmp_path, data, topk):
        k, _, _, weights, seed = data
        methods = _methods(k, weights, seed)
        increments = sigmoid_gain(N_MAX).increments
        for _, dataset in _parsed(tmp_path, data):
            for block in dataset.blocks:
                table = metrics.ndcg_table(np.stack([score(block.scores) for score, _ in methods]),
                                           block.relevance, topk, sigmoid_gain(N_MAX))
                assert table.shape == (len(methods), block.index.size, topk)
                for m, (_, query_scores) in enumerate(methods):
                    for j, i in enumerate(block.index.tolist()):
                        q = dataset.queries[i]
                        want = oracles.ndcg_query_row(query_scores(q.matrix), q.relevance,
                                                      topk, increments)
                        assert table[m, j].tobytes() == want.tobytes()

    @given(data=_data(), topk=st.integers(1, N_MAX + 2))
    @settings(_SETTINGS, max_examples=60)  # each example runs four commands
    def test_infer_and_eval_files(self, tmp_path, data, topk):
        k, queries, lines, weights, seed = data
        model = LinearModel(SimplexWeights(np.array(weights) / sum(weights)), sigmoid_gain(N_MAX))
        net = _nested_models(k, seed)[-1]
        save_linear(model, tmp_path / "lin.txt")
        save_nested(net, tmp_path / "net.txt")
        scorers = {
            "averaging": lambda m: oracles.query_scores(np.full(k, 1.0 / k), m),
            "borda": oracles.borda_query_points,
            "lin": lambda m: oracles.query_scores(model.weights.w, m),
            "net": lambda m: oracles.nested_query_scores(net.w1, net.w2.w, net.phi1.name,
                                                         net.phi2.name, m)}
        for data_path, dataset in _parsed(tmp_path, data):
            ids = [q.query_id for q in dataset.queries]
            increments = sigmoid_gain(dataset.n_max).increments
            tables = [np.array([oracles.ndcg_query_row(score(q.matrix), q.relevance, topk,
                                                       increments) for q in dataset.queries])
                      for score in scorers.values()]
            oracles.write_metric_csv(tmp_path / "want.csv", [f"Top-{t}" for t in
                                                             range(1, topk + 1)],
                                     list(scorers), ids, tables)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["eval", "--data", str(data_path), "--topk", str(topk),
                             "--model-file", str(tmp_path / "lin.txt"),
                             "--model-file", str(tmp_path / "net.txt"),
                             "--out", str(tmp_path / "got.csv")]) == 0
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
            for label in ("lin", "net"):
                oracles.write_rankings_csv(tmp_path / "want.csv", ids,
                                           [scorers[label](q.matrix) for q in dataset.queries])
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["infer", "--data", str(data_path),
                                 "--model-file", str(tmp_path / f"{label}.txt"),
                                 "--out", str(tmp_path / "got.csv")]) == 0
                assert ((tmp_path / "got.csv").read_bytes()
                        == (tmp_path / "want.csv").read_bytes())
