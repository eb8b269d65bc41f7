"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: sorting uses
plain Python tuples, set functions are evaluated through explicit chain
sets, and sums use math.fsum. Slow but trustworthy for small N. The chain
stepper and the row update keep the one-value-at-a-time form of what the
library now computes in bulk, so results can be compared exactly. The
energy functions read only a sampler context's matrix, gain increments and
weights, and sort the lists themselves.

Four groups are the exception. The reference trainers (``train_linear``,
``train_nested``) re-run training one written-out step at a time on the
library's own expectation backend and simplex update, so their results
are comparable bit for bit with the trainers'. ``gathered_expectation``
and ``wrapped_simplex_update`` write the mean h-vector and the simplex
step in plain numpy (one ``np.bincount`` over the gathered states; the
``np.max`` and ``sum`` wrappers), so the library's faster forms can be
compared bit for bit with them. ``csv_field``, ``write_rankings_csv`` and
``write_metric_csv`` keep the csv module's form of a field and the
row-at-a-time f-string writers, so the library's per-query templates can
be compared byte for byte with them. ``query_scores``, ``nested_query_scores``,
``borda_query_points``, ``query_ranking`` and ``ndcg_query_row`` keep the
one-query numpy form of what ``infer`` and ``eval`` now compute a block
of queries at a time, so the block results can be compared bit for bit
with them. The formula-level helpers at the end
(NDCG loss and its divergence form, the top-1 error rate and the pairwise
feature transform) have no caller in the library.
"""

from __future__ import annotations

import csv
import io
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


def divergence_table(matrix, increments) -> list[list[float]]:
    """[d(x_1 || order), ..., d(x_K || order)] for every order of ``all_orders(N)``.

    The values ``divergence`` gives, with the h-vector of each list's sort
    and of each order built once rather than once per pair.
    """
    sorts = [h_vector_chain(sorted_order(row), increments) for row in matrix]
    table = []
    for order in all_orders(len(matrix[0])):
        h_s = h_vector_chain(order, increments)
        table.append([math.fsum(x * (a - b) for x, a, b in zip(row, h_x, h_s))
                      for row, h_x in zip(matrix, sorts)])
    return table


def log_partition(matrix, weights, increments) -> float:
    """log Z(w) = log sum_pi exp(-w . d(pi)) over all N! orders, by log-sum-exp.

    ``-log Z`` is a query's free energy; its gradient in w is E_p[d] under
    the Gibbs law p(pi) = exp(-w . d(pi)) / Z.
    """
    energies = [math.fsum(w * d for w, d in zip(weights, row))
                for row in divergence_table(matrix, increments)]
    low = min(energies)
    return math.log(math.fsum(math.exp(low - e) for e in energies)) - low


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
    order = np.asarray(pi)
    if order.size != ctx.n:
        raise ValueError(f"ranking has {order.size} positions, context has {ctx.n}")
    top = np.sort(ctx.matrix, axis=1)[:, ::-1]
    return (top - ctx.matrix[:, order]) @ ctx._delta


def energy(ctx, pi) -> float:
    """Weighted divergence sum sum_i w_i d(x_i || pi); non-negative."""
    return float(ctx.weights @ per_list_divergences(ctx, pi))


def acceptance_ratio(ctx, current, proposed) -> float:
    """Metropolis ratio exp(E(current) - E(proposed)), +inf past a double's range."""
    diff = energy(ctx, current) - energy(ctx, proposed)
    return math.exp(diff) if diff < 709.0 else math.inf


def chain_orders(ybar: Sequence[float], increments: Sequence[float],
                 num_samples: int, burn_in: int, thinning: int,
                 seed: int) -> list[list[int]]:
    """Retained states of the transposition chain, one scalar step at a time.

    The draw order is the sampler's contract: for all steps at once, ``a``
    uniform over N positions, then ``b`` over N - 1 (shifted past ``a``),
    then the uniforms, all from ``default_rng(seed)``. The walk starts at
    the stable descending sort of ``ybar``.
    """
    n = len(ybar)
    if n == 1:
        return [[0]] * num_samples
    rng = np.random.default_rng(seed)
    state = sorted(range(n), key=lambda j: (-ybar[j], j))
    total = burn_in + num_samples * thinning
    pos_a = rng.integers(0, n, size=total).tolist()
    pos_b = rng.integers(0, n - 1, size=total).tolist()
    uniforms = rng.random(total).tolist()
    kept: list[list[int]] = []
    for done, (a, b, u) in enumerate(zip(pos_a, pos_b, uniforms), start=1):
        if b >= a:
            b += 1
        ca, cb = state[a], state[b]
        log_alpha = (increments[a] - increments[b]) * (ybar[cb] - ybar[ca])
        if log_alpha >= 0.0 or u < math.exp(log_alpha):
            state[a], state[b] = cb, ca
        if done > burn_in and (done - burn_in) % thinning == 0:
            kept.append(list(state))
    return kept


def stream_orders(ybar: Sequence[float], stream) -> list[list[int]]:
    """Retained states of a walk over a given proposal stream, one scalar step at a time.

    ``stream`` holds the sampler's per-step columns: positions a and b, the
    gain gap, the threshold ``log u`` and the retained flag. A step swaps
    when ``gap * (y_b - y_a) > cut``, the sampler's own rule.
    """
    state = list(sorted_order(ybar))
    kept: list[list[int]] = []
    for a, b, gap, cut, retained in zip(*(np.asarray(column).tolist() for column in stream)):
        ca, cb = state[a], state[b]
        if gap * (ybar[cb] - ybar[ca]) > cut:
            state[a], state[b] = cb, ca
        if retained:
            kept.append(list(state))
    return kept


def stream_rejections(ybar: Sequence[float], stream) -> list[int]:
    """The steps at which a walk over a given proposal stream rejects, in step order.

    The walk is ``stream_orders``': it starts at the stable descending sort
    of ``ybar`` and swaps when ``gap * (y_b - y_a) > cut``.
    """
    state = list(sorted_order(ybar))
    steps = []
    for j, (a, b, gap, cut) in enumerate(zip(*(np.asarray(column).tolist()
                                               for column in stream[:4]))):
        ca, cb = state[a], state[b]
        if gap * (ybar[cb] - ybar[ca]) > cut:
            state[a], state[b] = cb, ca
        else:
            steps.append(j)
    return steps


def gathered_expectation(ctx, cfg) -> np.ndarray:
    """E[d(x_i || pi)] from the gathered retained states of ``sample_orders``.

    The states' gains are summed per candidate by one ``np.bincount`` over
    the (M, N) states in row order, divided by M and read through the
    library's ``_from_mean_h``.
    """
    from lbrank.sampler import _from_mean_h, sample_orders

    orders = sample_orders(ctx, cfg)
    m, n = orders.shape
    gains = np.empty((m, n))
    gains[:] = ctx._delta  # row r holds the gain at every position of state r
    hbar = np.bincount(orders.ravel(), weights=gains.ravel(), minlength=n) / m
    return _from_mean_h(ctx, hbar)


def wrapped_simplex_update(w, grad, mu: float):
    """The multiplicative simplex step through numpy's ``np.max``, ``zeros_like`` and ``sum``.

    Every row of a matrix is updated on its own simplex; the input checks
    are left to the library.
    """
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    active = w > 0.0
    t = -mu * grad
    top = np.max(t, axis=-1, keepdims=True, where=active, initial=-np.inf)
    scaled = np.zeros_like(w)
    np.subtract(t, top, out=scaled, where=active)
    np.exp(scaled, out=scaled, where=active)
    scaled *= w
    return scaled / scaled.sum(axis=-1, keepdims=True)


def csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a row."""
    buf = io.StringIO()
    # beside a second field, so a lone empty field is not written as "";
    # a terminator holding both \r and \n quotes a field holding either
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_rankings_csv(path, query_ids: Sequence[str], scores_by_query) -> None:
    """``infer``'s rankings file, one f-string per (query, rank) row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("query_id,rank,candidate_id,aggregated_score\n")
        for query_id, scores in zip(query_ids, scores_by_query):
            scores = np.asarray(scores, dtype=np.float64).tolist()
            field = csv_field(query_id)
            fh.write("".join(f"{field},{rank},{cand},{scores[cand]!r}\n"
                             for rank, cand in enumerate(sorted_order(scores), start=1)))


def write_metric_csv(path, metric_columns: Sequence[str], methods: Sequence[str],
                     query_ids: Sequence[str], tables) -> None:
    """``eval``'s report, one f-string per (method, query) row and per mean row."""
    means = np.array([np.mean(table, axis=0) for table in tables])
    ids = [csv_field(query_id) for query_id in query_ids]
    labels = [csv_field(method) for method in methods]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["method", "query_id", *map(csv_field, metric_columns)]) + "\n")
        for label, table in zip(labels, tables):
            fh.write("".join(f"{label},{query_id},{','.join(map(repr, values))}\n"
                             for query_id, values in zip(ids, np.asarray(table).tolist())))
        fh.write("".join(f"{label},MEAN,{','.join(map(repr, values))}\n"
                         for label, values in zip(labels, means.tolist())))


def query_scores(w, matrix) -> np.ndarray:
    """sum_i w_i x_i of one K x N score matrix, by one BLAS call on its C-ordered copy."""
    return np.asarray(w, dtype=np.float64) @ np.ascontiguousarray(matrix, dtype=np.float64)


# activation name -> (offset, scale) of offset + scale * tanh(t/2), None for the identity
_ACTIVATION_FORMS = {"identity": None, "logistic": (0.5, 0.5), "shifted_logistic": (-0.0, 1.0)}


def _activate(name: str, t: np.ndarray) -> np.ndarray:
    form = _ACTIVATION_FORMS[name]
    return t + 0.0 if form is None else form[0] + form[1] * np.tanh(0.5 * t)


def nested_query_scores(w1, w2, phi1: str, phi2: str, matrix) -> np.ndarray:
    """phi2(w2 @ phi1(W1 @ X)) of one K x N score matrix."""
    hidden = _activate(phi1, np.asarray(w1, dtype=np.float64)
                       @ np.ascontiguousarray(matrix, dtype=np.float64))
    return _activate(phi2, np.asarray(w2, dtype=np.float64) @ hidden)


def borda_query_points(matrix) -> np.ndarray:
    """Borda points of one K x N matrix: list i's candidate at position p gets N - 1 - p."""
    x = np.asarray(matrix, dtype=np.float64)
    orders = np.argsort(-x, axis=1, kind="stable")
    points = np.empty(x.shape)
    points[np.arange(x.shape[0])[:, np.newaxis], orders] = np.arange(x.shape[1] - 1, -1, -1,
                                                                     dtype=np.float64)
    return points.sum(axis=0)


def query_ranking(scores) -> np.ndarray:
    """The order array of one score vector: descending, ties by the lower index."""
    return np.array(sorted_order(np.asarray(scores, dtype=np.float64).tolist()), dtype=np.int64)


def ndcg_query_row(scores, relevance, topk: int, increments) -> np.ndarray:
    """NDCG@1..topk of one query, each DCG and ideal a left-to-right np.cumsum.

    A query with N < k candidates scores its NDCG@N at k, and one without a
    relevant candidate scores 0.
    """
    rel = np.asarray(relevance, dtype=np.float64)
    d = np.asarray(increments, dtype=np.float64)[:min(topk, rel.size)]
    dcg = np.cumsum(rel[query_ranking(scores)[:d.size]] * d)
    ideal = np.cumsum(np.sort(rel)[::-1][:d.size] * d)
    row = dcg / ideal if ideal[0] > 0.0 else np.zeros(d.size)
    return row[np.minimum(np.arange(topk), rel.size - 1)]


def simplex_update_row(w, grad, mu: float):
    """One multiplicative simplex step on a single weight vector."""
    w = np.asarray(w, dtype=np.float64)
    active = w > 0.0
    t = -mu * np.asarray(grad, dtype=np.float64)
    scaled = np.zeros_like(w)
    scaled[active] = w[active] * np.exp(t[active] - t[active].max())
    return scaled / scaled.sum()


def _expectation(q, weights, gain, cfg, backend) -> np.ndarray:
    """The library's E[d(x_i || pi)] for one query under ``weights``."""
    from lbrank.sampler import EnergyContext, expected_divergences, query_config

    ctx = EnergyContext.from_query(q, weights, gain)
    return expected_divergences(ctx, query_config(q, cfg), backend)


def train_linear(queries, hyper, cfg, gain, backend="mh"):
    """Reference linear training: (final w, per-epoch objectives, snapshots).

    Per query in dataset order: gradient E[d] + lam w, then the multiplicative
    simplex step. After each epoch: the sampled objective and a copy of w;
    stop once no weight moved 1e-5 or more in the epoch.
    """
    from lbrank.linear import multiplicative_simplex_update

    w = np.full(queries[0].k, 1.0 / queries[0].k)
    objectives, snapshots = [], []
    for _ in range(hyper.epochs):
        start = w
        for q in queries:
            grad = _expectation(q, w, gain, cfg, backend) + hyper.lam * w
            w = multiplicative_simplex_update(w, grad, hyper.mu)
        total = 0.0
        for q in queries:
            total += float(w @ _expectation(q, w, gain, cfg, backend))
        objectives.append(total / len(queries) + 0.5 * hyper.lam * float(w @ w))
        snapshots.append(w.copy())
        if np.max(np.abs(w - start)) < 1e-5:
            break
    return w, objectives, snapshots


def _divergence_table(q, w1, w2, gain, cfg, backend) -> np.ndarray:
    """The expectations under W2 @ W1, one copy per hidden unit."""
    return np.tile(_expectation(q, w2 @ w1, gain, cfg, backend), (w1.shape[0], 1))


def train_nested(queries, model, cfg, backend="mh"):
    """Reference nested training from ``model``: (W1, W2, objectives, snapshots).

    Per query in dataset order: the divergence table, the W1 step on
    phi1'(delta1) E[d] + lam1 W1, the hidden preactivations again under the
    new W1, then the W2 step on phi2'(delta2) phi1(delta1) + lam2 W2.
    """
    from lbrank.linear import multiplicative_simplex_update

    hyper, gain, phi1, phi2 = model.hyper, model.gain, model.phi1, model.phi2
    w1, w2 = model.w1, model.w2.w
    objectives, snapshots = [], []
    for _ in range(hyper.epochs):
        start1, start2 = w1, w2
        for q in queries:
            table = _divergence_table(q, w1, w2, gain, cfg, backend)
            delta1 = np.einsum("ij,ij->i", w1, table)
            grad1 = phi1.deriv(delta1)[:, np.newaxis] * table + hyper.lam1 * w1
            w1 = multiplicative_simplex_update(w1, grad1, hyper.mu)
            activated = phi1(np.einsum("ij,ij->i", w1, table))
            delta2 = float(w2 @ activated)
            grad2 = float(phi2.deriv(delta2)) * activated + hyper.lam2 * w2
            w2 = multiplicative_simplex_update(w2, grad2, hyper.mu)
        total = 0.0
        for q in queries:
            table = _divergence_table(q, w1, w2, gain, cfg, backend)
            total += float(phi2(float(w2 @ phi1(np.einsum("ij,ij->i", w1, table)))))
        objectives.append(total / len(queries)
                          + 0.5 * hyper.lam1 * float(np.sum(w1 * w1))
                          + 0.5 * hyper.lam2 * float(w2 @ w2))
        snapshots.append((w1.copy(), w2.copy()))
        moved = max(np.max(np.abs(w1 - start1)), np.max(np.abs(w2 - start2)))
        if moved < 1e-5:
            break
    return w1, w2, objectives, snapshots


def ndcg_loss(sigma, rel, discount) -> float:
    """Full-list NDCG loss 1 - NDCG of an order array against relevance grades."""
    r = np.asarray(rel, dtype=float).tolist()
    return 1.0 - ndcg(tuple(np.asarray(sigma).tolist()), r, discount.increments.tolist(), len(r))


def ndcg_loss_from_divergence(d: float, x: Sequence[float], gain) -> float:
    """A divergence scaled by the ideal discounted mass Z of its score vector.

    Z = sum_i x_sorted(i) * delta_g(i). With relevance grades equal to the
    scores and discount equal to the gain increments, the result is exactly
    the NDCG loss of the ranking the divergence was computed against.
    """
    top = sorted((float(v) for v in x), reverse=True)
    z = math.fsum(v * g for v, g in zip(top, gain.increments.tolist()))
    if z <= 0.0:
        raise ValueError("degenerate normalizer: ideal discounted mass is not positive")
    return d / z


def error_rate(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Top-1 mismatch fraction between two aligned, non-empty index sequences."""
    if len(predicted) != len(truth) or not truth:
        raise ValueError("predicted and truth must be non-empty and aligned")
    return sum(p != t for p, t in zip(predicted, truth)) / len(truth)


def pairwise_feature_transform(xa, xb) -> np.ndarray:
    """Combined pairwise feature log(1 + a) - log(1 + b) of non-negative inputs.

    The feature of the paper's pairwise-preference (influencer) task:
    antisymmetric under swapping the two sides and zero where they agree.
    """
    a = np.asarray(xa, dtype=np.float64)
    b = np.asarray(xb, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("pairwise inputs must share a shape")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("pairwise features must be non-negative")
    return np.log1p(a) - np.log1p(b)
