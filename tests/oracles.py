"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: sorting uses
plain Python tuples, set functions are evaluated through explicit chain
sets, and sums use math.fsum. Slow but trustworthy for small N. The chain
stepper and the row update keep the one-value-at-a-time form of what the
library now computes in bulk, so results can be compared exactly. The
energy functions read only a sampler context's matrix, gain increments and
weights, and sort the lists themselves.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np


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


def per_list_expectation(matrix: Sequence[Sequence[float]],
                         orders: Sequence[Sequence[int]],
                         increments: Sequence[float]) -> list[float]:
    """Mean of d(x_i || order) over the given states, one value per list.

    Each state's divergence is summed position by position from the sorted
    scores, with no h-vectors involved.
    """
    out = []
    for row in matrix:
        top = sorted(row, reverse=True)
        divs = [math.fsum(increments[p] * (top[p] - row[order[p]])
                          for p in range(len(order)))
                for order in orders]
        out.append(math.fsum(divs) / len(divs))
    return out


def per_list_divergences(ctx, pi) -> np.ndarray:
    """d(x_i || pi) of every list of a sampler context (exact zero at each sort)."""
    if pi.n != ctx.n:
        raise ValueError(f"ranking has {pi.n} positions, context has {ctx.n}")
    top = np.sort(ctx.matrix, axis=1)[:, ::-1]
    return (top - ctx.matrix[:, pi.order]) @ ctx._delta


def energy(ctx, pi) -> float:
    """Weighted divergence sum sum_i w_i d(x_i || pi); non-negative."""
    return float(ctx.weights.w @ per_list_divergences(ctx, pi))


def acceptance_ratio(ctx, current, proposed) -> float:
    """Metropolis ratio exp(E(current) - E(proposed)), +inf past a double's range."""
    diff = energy(ctx, current) - energy(ctx, proposed)
    return math.exp(diff) if diff < 709.0 else math.inf


def chain_orders(ybar: Sequence[float], increments: Sequence[float],
                 num_samples: int, burn_in: int, thinning: int,
                 acceptance_rule: str, seed: int) -> list[list[int]]:
    """Retained states of the transposition chain, one scalar step at a time.

    The draw order is the sampler's contract: per block of at most 8192
    steps, ``a`` uniform over N positions, then ``b`` over N - 1 (shifted
    past ``a``), then the uniforms, all from ``default_rng(seed)``. The walk
    starts at the stable descending sort of ``ybar``.
    """
    n = len(ybar)
    if n == 1:
        return [[0]] * num_samples
    rng = np.random.default_rng(seed)
    state = sorted(range(n), key=lambda j: (-ybar[j], j))
    total = burn_in + num_samples * thinning
    kept: list[list[int]] = []
    done = 0
    while done < total:
        size = min(8192, total - done)
        pos_a = rng.integers(0, n, size=size).tolist()
        pos_b = rng.integers(0, n - 1, size=size).tolist()
        uniforms = rng.random(size).tolist()
        for a, b, u in zip(pos_a, pos_b, uniforms):
            if b >= a:
                b += 1
            ca, cb = state[a], state[b]
            log_alpha = (increments[a] - increments[b]) * (ybar[cb] - ybar[ca])
            if acceptance_rule == "paper_literal":
                accept = log_alpha > math.log(0.9) and u < 0.9
            else:
                accept = log_alpha >= 0.0 or u < math.exp(log_alpha)
            if accept:
                state[a], state[b] = cb, ca
            done += 1
            if done > burn_in and (done - burn_in) % thinning == 0:
                kept.append(list(state))
    return kept


def simplex_update_row(w, grad, mu: float):
    """One multiplicative simplex step on a single weight vector."""
    w = np.asarray(w, dtype=np.float64)
    active = w > 0.0
    t = -mu * np.asarray(grad, dtype=np.float64)
    scaled = np.zeros_like(w)
    scaled[active] = w[active] * np.exp(t[active] - t[active].max())
    return scaled / scaled.sum()
