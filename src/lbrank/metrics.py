"""Evaluation stack: NDCG and unsupervised baselines.

Rankings are int64 order arrays (position -> candidate) and relevance
grades are float arrays, checked where they enter by the helpers in
:mod:`lbrank.core`; the baselines return order arrays like inference does.

The NDCG discount defaults to the configured gain increments, which makes
the scaled divergence of a ranking coincide with its NDCG loss when the
relevance grades equal the scores. The classic 1/log2(i+1) discount stays
available for comparability with LETOR conventions.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    _grade_vector,
    _increments,
    _order_vector,
    _score_matrices,
    ranking_from_scores,
    weighted_average_scores,
)
from .io import DataError, _csv_field

__all__ = [
    "ndcg_at_k",
    "ndcg_table",
    "baseline_average",
    "baseline_borda",
    "borda_points",
    "write_metric_csv",
    "format_table",
]


def ndcg_at_k(sigma: Sequence[int] | np.ndarray, rel: Sequence[float] | np.ndarray,
              k: int, discount: ConcaveGain) -> float:
    """NDCG truncated at k with the truncated-ideal normalizer.

    ``sigma`` is an order array over the candidates that ``rel`` grades.
    Both DCGs add grade x discount products left to right in rank order, so
    the value is in [0, 1] and exactly 1 when the top k of ``sigma`` matches
    a relevance-descending order up to ties among equal grades.
    """
    grades = _grade_vector(rel)
    order = _order_vector(sigma, grades.size)
    if not 1 <= k <= grades.size:
        raise ValueError(f"k={k} outside 1..{grades.size}")
    d = _increments(discount, k, "discount")
    ideal = float(np.cumsum(np.sort(grades)[::-1][:k] * d)[-1])
    if ideal == 0.0:
        raise ValueError("no relevant candidates")
    return float(np.cumsum(grades[order[:k]] * d)[-1]) / ideal


def ndcg_table(scores: np.ndarray, relevance: np.ndarray, topk: int,
               discount: ConcaveGain) -> np.ndarray:
    """NDCG@1..topk of a block of queries with one candidate count N.

    ``scores`` is a (..., Q, N) array, whose leading axes stack methods
    that rank the same queries, and ``relevance`` their (Q, N) grades; the
    result is a (..., Q, topk) array. Entry (..., q, k-1) equals, bit for
    bit, ``ndcg_at_k(ranking_from_scores(scores[..., q, :]), relevance[q],
    min(k, N), discount)``; queries without relevant candidates score 0
    (the LETOR tooling convention). The block is ranked by one stable
    argsort, and its ideal DCGs are computed once for every method.
    Queries of other candidate counts go in blocks of their own, as
    ``Dataset.blocks`` groups them.
    """
    if topk < 1:
        raise ValueError("topk must be >= 1")
    rel = np.asarray(relevance, dtype=np.float64)
    if np.ndim(scores) < 2 or np.shape(scores)[-2:] != rel.shape or 0 in rel.shape:
        raise ValueError("need non-empty score vectors, each with relevance of equal length")
    _grade_vector(rel.ravel())
    n = rel.shape[-1]
    d = _increments(discount, min(topk, n), "discount")
    top = ranking_from_scores(scores)[..., :d.size]
    dcg = np.cumsum(rel[np.arange(rel.shape[0])[:, np.newaxis], top] * d, axis=-1)
    ideal = np.cumsum(np.sort(rel, axis=-1)[:, ::-1][:, :d.size] * d, axis=-1)
    ndcg = np.divide(dcg, ideal, out=np.zeros(dcg.shape), where=ideal > 0.0)
    # NDCG@k of a query with N < k candidates is its NDCG@N
    return ndcg[..., np.minimum(np.arange(topk), n - 1)]


def baseline_average(q: QueryInstance) -> np.ndarray:
    """Uniform-mean baseline; agrees exactly with uniform-weight inference."""
    return ranking_from_scores(weighted_average_scores(q.matrix, SimplexWeights.uniform(q.k).w))


def baseline_borda(q: QueryInstance) -> np.ndarray:
    """Borda count: position i in a list is worth N - 1 - i points.

    Every list votes through its own sorted order (ties by lower index);
    candidates are ranked by total points, ties again by lower index.
    """
    return ranking_from_scores(borda_points(q.matrix))


def borda_points(x: np.ndarray) -> np.ndarray:
    """Total Borda points per candidate of a (..., K, N) score array; see :func:`baseline_borda`.

    A (Q, K, N) block gives (Q, N) points, item j those of matrix j alone.
    Points are whole numbers, so every sum is exact.
    """
    x = _score_matrices(x)
    orders = np.argsort(-x, axis=-1, kind="stable")
    points = np.empty(x.shape)
    np.put_along_axis(points, orders, np.arange(x.shape[-1] - 1, -1, -1, dtype=np.float64),
                      axis=-1)
    return points.sum(axis=-2)


def write_metric_csv(path: str | Path, metric_columns: Sequence[str], methods: Sequence[str],
                     query_ids: Sequence[str], tables: Sequence[np.ndarray]) -> np.ndarray:
    """CSV report: header, one row per (method, query), and a MEAN row per method.

    ``tables[m]`` is method m's (Q, len(metric_columns)) array, its rows in
    ``query_ids`` order. Returns the (methods, columns) array of the means
    written, so a summary table shows the same numbers. The bytes are those
    the csv module writes, values as Python reprs. A query id ``MEAN``
    would read as a mean row, so it is refused before the file is opened,
    as are no columns and a table of another shape.
    """
    if not metric_columns:
        raise ValueError("at least one metric column required")
    if any(np.shape(table) != (len(query_ids), len(metric_columns)) for table in tables):
        raise ValueError("each table must hold one row per query and one column per metric")
    if "MEAN" in query_ids:
        raise DataError("query 'MEAN': the report names each method's mean row MEAN; "
                        "rename the query")
    means = np.array([np.mean(table, axis=0) for table in tables])
    ids = [_csv_field(query_id) for query_id in query_ids]
    # a method's rows: its label, a query id, then each value's repr
    rows = [_csv_field(method).replace("%", "%%") + ",%s" + ",%r" * len(metric_columns) + "\n"
            for method in methods]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["method", "query_id", *map(_csv_field, metric_columns)]) + "\n")
        for row, table in zip(rows, tables):
            fh.write((row * len(ids)) % tuple(itertools.chain.from_iterable(
                (query_id, *values) for query_id, values in zip(ids, table.tolist()))))
        fh.write("".join(row % ("MEAN", *values) for row, values in zip(rows, means.tolist())))
    return means


def format_table(col_headers: Sequence[str], row_labels: Sequence[str],
                 values: Sequence[Sequence[float]]) -> str:
    """Aligned plain-text table of values to 4 decimals; rows are methods, columns metrics."""
    if len(row_labels) != len(values):
        raise ValueError("one value row required per label")
    body = [[f"{float(v):.4f}" for v in row] for row in values]
    headers = ["Method", *col_headers]
    table_rows = [[label, *row] for label, row in zip(row_labels, body)]
    widths = [max([len(headers[c])] + [len(r[c]) for r in table_rows])
              for c in range(len(headers))]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in table_rows)
    return "\n".join(lines)
