"""Metropolis-Hastings sampling of rankings from a weighted-divergence Gibbs law.

The target distribution over the N! rankings of one query puts probability
proportional to exp(-sum_i w_i d(x_i || pi)) on each ranking pi. Only energy
differences are evaluated anywhere; the partition function is intractable
and never materialized. Proposals are uniform random transpositions of two
distinct positions (symmetric, full support), so the plain Metropolis
ratio is the correct acceptance ratio.

An exact enumeration backend over all N! rankings backs the sampler for
small N; trainers accept either backend. Both backends produce one mean
h-vector ``hbar = E[h_pi]``, from which every list's expected divergence
follows as ``E[d(x_i || pi)] = sorted_i . delta - x_i . hbar``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConcaveGain, SimplexWeights, QueryInstance

__all__ = [
    "ACCEPTANCE_RULES",
    "ChainConfig",
    "EnergyContext",
    "sample_orders",
    "sample_expectation",
    "exact_distribution",
    "exact_expectation",
    "expected_divergences",
    "fnv1a64",
    "chain_seed",
]

ACCEPTANCE_RULES = ("standard_metropolis", "paper_literal")

# Enumeration is N! work; past 8 candidates it stops being a test oracle.
MAX_ENUMERATION_N = 8

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a UTF-8 string."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def chain_seed(seed: int, query_id: str) -> int:
    """Per-query chain seed: global seed XOR FNV-1a(query_id)."""
    return (int(seed) ^ fnv1a64(query_id)) & _MASK64


@dataclass(frozen=True)
class ChainConfig:
    """Sampling budget and acceptance behaviour of one chain."""

    num_samples: int = 50
    burn_in: int = 100
    thinning: int = 1
    acceptance_rule: str = "standard_metropolis"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.acceptance_rule not in ACCEPTANCE_RULES:
            raise ValueError(f"acceptance_rule must be one of {ACCEPTANCE_RULES}")
        if not 0 <= int(self.rng_seed) <= _MASK64:
            raise ValueError("rng_seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """One query's K x N score matrix, effective weights and gain, preprocessed.

    Precomputes per-list descending sorts and the weighted mean score
    vector ``ybar`` so that chain steps touch O(1) values and expectations
    are a few matrix-vector products. ``matrix`` is the read-only matrix
    of a validated :class:`QueryInstance`; it is not copied or re-checked.
    """

    matrix: np.ndarray
    weights: SimplexWeights
    gain: ConcaveGain

    def __post_init__(self) -> None:
        k, n = self.matrix.shape
        if self.weights.k != k:
            raise ValueError(f"{self.weights.k} weights for {k} lists")
        if self.gain.capacity < n:
            raise ValueError(f"gain covers {self.gain.capacity} positions, need {n}")
        sorted_desc = np.sort(self.matrix, axis=1)[:, ::-1]
        sorted_desc.setflags(write=False)
        ybar = self.weights.w @ self.matrix
        ybar.setflags(write=False)
        object.__setattr__(self, "_sorted", sorted_desc)
        object.__setattr__(self, "_delta", self.gain.increments[:n])
        object.__setattr__(self, "_ybar", ybar)

    @classmethod
    def from_query(cls, q: QueryInstance,
                   weights: SimplexWeights | np.ndarray | Sequence[float],
                   gain: ConcaveGain) -> "EnergyContext":
        if not isinstance(weights, SimplexWeights):
            weights = SimplexWeights(np.asarray(weights, dtype=np.float64))
        return cls(q.matrix, weights, gain)

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])


def sample_orders(ctx: EnergyContext, cfg: ChainConfig) -> np.ndarray:
    """Run one chain; return the retained states as an (M, N) array of permutations.

    The walk starts at the sort of the weighted mean score vector (a cheap
    near-mode state). Each step proposes swapping two distinct positions;
    the energy change of a swap is (delta_a - delta_b) * (y_b - y_a), so
    steps cost O(1). Rejected proposals leave the state in place and the
    repeated state is retained as usual. The proposals, their gain gaps
    and which steps are retained are computed with numpy per draw block;
    only the accept/swap walk runs in Python.
    """
    n = ctx.n
    m = cfg.num_samples
    if n == 1:
        return np.zeros((m, 1), dtype=np.int64)

    rng = np.random.default_rng(cfg.rng_seed)
    state: list[int] = np.argsort(-ctx._ybar, kind="stable").tolist()
    y = ctx._ybar.tolist()
    delta = ctx._delta
    literal = cfg.acceptance_rule == "paper_literal"
    literal_cut = math.log(0.9)
    exp = math.exp

    total = cfg.burn_in + m * cfg.thinning
    kept_states: list[int] = []  # the retained states, concatenated
    done = 0
    block = 8192
    while done < total:
        size = min(block, total - done)
        pos_a = rng.integers(0, n, size=size)
        pos_b = rng.integers(0, n - 1, size=size)
        uniforms = rng.random(size).tolist()
        pos_b += pos_b >= pos_a
        gaps = (delta[pos_a] - delta[pos_b]).tolist()
        # step done + j + 1 is retained when it lies past burn-in on the thinning grid
        past = np.arange(done + 1 - cfg.burn_in, done + size + 1 - cfg.burn_in)
        keep = ((past > 0) & (past % cfg.thinning == 0)).tolist()
        for a, b, gap, u, kept in zip(pos_a.tolist(), pos_b.tolist(), gaps,
                                      uniforms, keep):
            ca = state[a]
            cb = state[b]
            log_alpha = gap * (y[cb] - y[ca])
            if literal:
                accept = log_alpha > literal_cut and u < 0.9
            else:
                accept = log_alpha >= 0.0 or u < exp(log_alpha)
            if accept:
                state[a] = cb
                state[b] = ca
            if kept:
                kept_states += state
        done += size
    return np.array(kept_states, dtype=np.int64).reshape(m, n)


def _from_mean_h(ctx: EnergyContext, hbar: np.ndarray) -> np.ndarray:
    """E[d(x_i || pi)] of every list i from the mean h-vector ``hbar = E[h_pi]``.

    d(x_i || pi) = sorted_i . delta - x_i . h_pi is linear in h_pi, so its
    expectation needs only ``hbar``. Both terms are taken relative to the
    list minimum ``low_i``: the divergence is unchanged by adding a
    constant to a list, and a constant list gives exactly 0.0.
    """
    low = ctx._sorted[:, -1:]
    return (ctx._sorted - low) @ ctx._delta - (ctx.matrix - low) @ hbar


def sample_expectation(ctx: EnergyContext, cfg: ChainConfig) -> np.ndarray:
    """Chain estimate of E[d(x_i || pi)] for every list i.

    Averages the h-vectors of the M retained states into one mean h-vector
    (``h_pi[pi[p]] = delta[p]``) and reads every list's expectation off it.
    Deterministic given the config seed.
    """
    orders = sample_orders(ctx, cfg)
    m, n = orders.shape
    gains = np.empty((m, n))
    gains[:] = ctx._delta  # row r holds the gain at every position of state r
    hbar = np.bincount(orders.ravel(), weights=gains.ravel(), minlength=n) / m
    return _from_mean_h(ctx, hbar)


def _all_orders(n: int) -> np.ndarray:
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"exact enumeration limited to N <= {MAX_ENUMERATION_N}, got {n}")
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _exact_law(ctx: EnergyContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All N! orders, their (N!, N) h-vectors and their exact probabilities.

    The energy is E(pi) = const - ybar . h_pi, so probabilities are
    exp(ybar . h_pi) normalized over the full enumeration, with the
    maximum exponent subtracted first for stability. ``ybar`` is taken
    relative to its minimum; every h-vector sums to g(N), so that shift
    cancels.
    """
    orders = _all_orders(ctx.n)
    h = ctx._delta[np.argsort(orders, axis=1)]
    logits = h @ (ctx._ybar - ctx._ybar.min())
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    return orders, h, probs


def exact_distribution(ctx: EnergyContext) -> tuple[np.ndarray, np.ndarray]:
    """All N! orders with their exact target probabilities."""
    orders, _, probs = _exact_law(ctx)
    return orders, probs


def exact_expectation(ctx: EnergyContext) -> np.ndarray:
    """E[d(x_i || pi)] for every list i by full enumeration (N <= 8)."""
    _, h, probs = _exact_law(ctx)
    return _from_mean_h(ctx, probs @ h)


def expected_divergences(ctx: EnergyContext, cfg: ChainConfig,
                         backend: str = "mh") -> np.ndarray:
    """Expectation backend dispatcher: ``mh`` chain estimate or ``exact``."""
    if backend == "mh":
        return sample_expectation(ctx, cfg)
    if backend == "exact":
        return exact_expectation(ctx)
    raise ValueError(f"unknown expectation backend {backend!r}")
