"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: sorting uses
plain Python tuples, set functions are evaluated through explicit chain
sets, and sums use math.fsum. Slow but trustworthy for small N.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence


def sorted_order(scores: Sequence[float]) -> tuple[int, ...]:
    """Descending sort order with ties broken by the lower index."""
    return tuple(sorted(range(len(scores)), key=lambda j: (-scores[j], j)))


def g_value(increments: Sequence[float], i: int) -> float:
    """Cumulative gain g(i) from the increments, g(0) = 0."""
    return math.fsum(increments[:i])


def h_vector_chain(order: Sequence[int], increments: Sequence[float]) -> list[float]:
    """h-vector via explicit chain sets and f(S) = g(|S|)."""
    n = len(order)
    f = lambda s: g_value(increments, len(s))
    values = [0.0] * n
    prefix: set[int] = set()
    prev = f(prefix)
    for i in range(n):
        prefix = prefix | {order[i]}
        cur = f(prefix)
        values[order[i]] = cur - prev
        prev = cur
    return values


def divergence(scores: Sequence[float], order: Sequence[int],
               increments: Sequence[float]) -> float:
    """LB divergence straight from the inner-product definition."""
    h_x = h_vector_chain(sorted_order(scores), increments)
    h_s = h_vector_chain(order, increments)
    return math.fsum(scores[j] * (h_x[j] - h_s[j]) for j in range(len(scores)))


def weighted_divergence(matrix: Sequence[Sequence[float]], weights: Sequence[float],
                        order: Sequence[int], increments: Sequence[float]) -> float:
    return math.fsum(w * divergence(row, order, increments)
                     for w, row in zip(weights, matrix))


def all_orders(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def min_weighted_divergence(matrix, weights, increments) -> float:
    """Brute-force minimum of the weighted divergence over all rankings."""
    n = len(matrix[0])
    return min(weighted_divergence(matrix, weights, order, increments)
               for order in all_orders(n))


def exact_distribution(matrix, weights, increments):
    """All rankings with their exact Gibbs probabilities and divergences.

    Returns (orders, probs, per_order_divergences) where the divergence
    entry for an order is the list [d(x_1||order), ..., d(x_K||order)].
    """
    orders = all_orders(len(matrix[0]))
    divs = [[divergence(row, order, increments) for row in matrix]
            for order in orders]
    energies = [math.fsum(w * d for w, d in zip(weights, row)) for row in divs]
    low = min(energies)
    raw = [math.exp(-(e - low)) for e in energies]
    total = math.fsum(raw)
    probs = [r / total for r in raw]
    return orders, probs, divs


def exact_expectations(matrix, weights, increments) -> list[float]:
    """E[d(x_i || pi)] under the exact Gibbs distribution, one per list."""
    orders, probs, divs = exact_distribution(matrix, weights, increments)
    k = len(matrix)
    return [math.fsum(p * row[i] for p, row in zip(probs, divs)) for i in range(k)]


def ndcg(order: Sequence[int], relevance: Sequence[float],
         increments: Sequence[float], k: int) -> float:
    """Truncated NDCG with the truncated ideal normalizer."""
    ideal_order = sorted_order(relevance)
    num = math.fsum(relevance[order[i]] * increments[i] for i in range(k))
    den = math.fsum(relevance[ideal_order[i]] * increments[i] for i in range(k))
    return num / den


def borda_points(matrix: Sequence[Sequence[float]]) -> list[float]:
    n = len(matrix[0])
    points = [0.0] * n
    for row in matrix:
        for pos, cand in enumerate(sorted_order(row)):
            points[cand] += n - (pos + 1)
    return points


def central_difference(fn, x0, index: int, h: float = 1e-6) -> float:
    """Central finite difference of fn at x0 along one coordinate."""
    hi = list(x0)
    lo = list(x0)
    hi[index] += h
    lo[index] -= h
    return (fn(hi) - fn(lo)) / (2.0 * h)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ascending ranks; tied values share the mean of their ranks."""
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        tied = sum(1 for u in values if u == v)
        ranks.append(below + (tied + 1) / 2.0)
    return ranks


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC from tie-averaged ranks."""
    ranks = average_ranks(scores)
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    pos_rank_sum = math.fsum(r for r, y in zip(ranks, labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def logistic(t: float) -> float:
    """1 / (1 + exp(-t)), written to avoid overflow for large |t|."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def logistic_slope(t: float) -> float:
    """Derivative exp(-|t|) / (1 + exp(-|t|))^2 of the logistic, without cancellation."""
    e = math.exp(-abs(t))
    return e / ((1.0 + e) * (1.0 + e))
