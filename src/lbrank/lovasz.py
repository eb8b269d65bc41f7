"""Lovász-Bregman divergence for cardinality gains f(X) = g(|X|).

The divergence d(x || sigma) = <x, h_sorted(x) - h_sigma> measures how far a
ranking sigma (an int64 order array, position -> candidate) is from sorting
the score vector x. For cardinality gains the h-vector h_sigma places
delta_g(i) on the candidate ranked i-th, which reduces the divergence to a
difference of discounted sums and yields a closed-form minimizer (sort the
scores). The sampler builds the h-vectors
it needs itself; this module holds the divergence of one score list and its
ranking-independent bound.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ConcaveGain, _increments, _order_vector, _score_vector

__all__ = [
    "lb_divergence",
    "lb_bound",
]


def lb_divergence(x: Sequence[float] | np.ndarray, sigma: Sequence[int] | np.ndarray,
                  gain: ConcaveGain) -> float:
    """Divergence between a score vector and a ranking, always >= 0.

    Equals sum_i delta_g(i) * (x_sorted(i) - x(sigma(i))) and is exactly 0
    whenever sigma orders the scores non-increasingly (ties permitting):
    each term then compares identical values.
    """
    scores = _score_vector(x)
    order = _order_vector(sigma, scores.size)
    delta = _increments(gain, scores.size)
    sorted_desc = np.sort(scores)[::-1]
    return float(delta @ (sorted_desc - scores[order]))


def lb_bound(x: Sequence[float] | np.ndarray, gain: ConcaveGain) -> float:
    """Ranking-independent upper bound on the divergence.

    Returns eps * N * (g(1) - g(N) + g(N-1)) = eps * N * (delta_1 - delta_N)
    with eps the score range max_ij |x(i) - x(j)|. Dominates
    lb_divergence(x, sigma, gain) for every sigma; 0 for constant scores and
    for N = 1.
    """
    scores = _score_vector(x)
    delta = _increments(gain, scores.size)
    eps = float(scores.max() - scores.min())
    return eps * scores.size * float(delta[0] - delta[-1])
