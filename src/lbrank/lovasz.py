"""Lovász-Bregman divergence engine for cardinality gains f(X) = g(|X|).

The divergence d(x || sigma) = <x, h_sorted(x) - h_sigma> measures how far a
ranking sigma is from sorting the score vector x. For cardinality gains the
h-vector places delta_g(i) on the candidate ranked i-th, which reduces the
divergence to a difference of discounted sums and yields a closed-form
minimizer (sort the scores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConcaveGain, Ranking, ScoreList, as_score_list

__all__ = [
    "HVector",
    "h_vector",
    "lb_divergence",
    "lb_bound",
    "ndcg_loss_from_divergence",
]


@dataclass(frozen=True, eq=False)
class HVector:
    """Chain-difference vector: ``values[sigma(i)]`` = f(S_i) - f(S_{i-1})."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _check_gain(gain: ConcaveGain, n: int) -> np.ndarray:
    if gain.capacity < n:
        raise ValueError(f"gain covers {gain.capacity} positions, ranking needs {n}")
    return gain.increments[:n]


def h_vector(sigma: Ranking, gain: ConcaveGain) -> HVector:
    """h-vector of a ranking under f(X) = g(|X|).

    The candidate at rank i receives delta_g(i), i.e. the marginal gain of
    extending the prefix chain induced by ``sigma`` from i-1 to i elements.
    """
    delta = _check_gain(gain, sigma.n)
    values = np.empty(sigma.n, dtype=np.float64)
    values[sigma.order] = delta
    return HVector(values)


def lb_divergence(x: ScoreList | Sequence[float] | np.ndarray,
                  sigma: Ranking,
                  gain: ConcaveGain) -> float:
    """Divergence between a score vector and a ranking, always >= 0.

    Equals sum_i delta_g(i) * (x_sorted(i) - x(sigma(i))) and is exactly 0
    whenever sigma orders the scores non-increasingly (ties permitting):
    each term then compares identical values.
    """
    xs = as_score_list(x)
    if xs.n != sigma.n:
        raise ValueError(f"scores have {xs.n} entries, ranking has {sigma.n}")
    delta = _check_gain(gain, xs.n)
    sorted_desc = np.sort(xs.scores)[::-1]
    return float(delta @ (sorted_desc - xs.scores[sigma.order]))


def lb_bound(x: ScoreList | Sequence[float] | np.ndarray, gain: ConcaveGain) -> float:
    """Ranking-independent upper bound on the divergence.

    Returns eps * N * (g(1) - g(N) + g(N-1)) with eps the score range
    max_ij |x(i) - x(j)|. Dominates lb_divergence(x, sigma, gain) for every
    sigma; 0 for constant scores and for N = 1.
    """
    xs = as_score_list(x)
    delta = _check_gain(gain, xs.n)
    eps = float(xs.scores.max() - xs.scores.min())
    n = xs.n
    return eps * n * (gain.g(1) - gain.g(n) + gain.g(n - 1))


def ndcg_loss_from_divergence(d: float,
                              x: ScoreList | Sequence[float] | np.ndarray,
                              gain: ConcaveGain) -> float:
    """Scale a divergence by the ideal discounted mass Z of its score vector.

    Z = sum_i x_sorted(i) * delta_g(i). With relevance grades equal to the
    scores and discount equal to the gain increments, the result is exactly
    the NDCG loss of the ranking the divergence was computed against.
    """
    xs = as_score_list(x)
    delta = _check_gain(gain, xs.n)
    z = float(delta @ np.sort(xs.scores)[::-1])
    if z <= 0.0:
        raise ValueError("degenerate normalizer: ideal discounted mass is not positive")
    return d / z
