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
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import ConcaveGain, SimplexWeights, QueryInstance

__all__ = [
    "ACCEPTANCE_RULES",
    "ChainConfig",
    "EnergyContext",
    "query_config",
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


def query_config(q: QueryInstance, cfg: ChainConfig, unit: int | None = None) -> ChainConfig:
    """``cfg`` reseeded for the chain of query ``q``, or of one nested hidden unit.

    The seed is ``chain_seed(cfg.rng_seed, label)`` with the label
    ``query_id``, or ``f"{query_id}|unit-{unit}"`` for hidden unit ``unit``.
    The derived config is memoised on the query, keyed by ``cfg`` and ``unit``.
    """
    key = ("config", cfg, unit)
    derived = q._memo.get(key)
    if derived is None:
        label = q.query_id if unit is None else f"{q.query_id}|unit-{unit}"
        derived = replace(cfg, rng_seed=chain_seed(cfg.rng_seed, label))
        q._memo[key] = derived
    return derived


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """One query's K x N score matrix, effective weights and gain, preprocessed.

    Holds the weighted mean score vector ``ybar``, the only term that
    depends on the weights, so that chain steps touch O(1) values and
    expectations are a few matrix-vector products. The weight-free terms
    (each list's minimum ``low_i`` and ``(sorted_i - low_i) . delta``)
    and the chains' proposal streams live in ``memo``; ``from_query``
    passes the query's own memo, so they are computed once per query and
    gain. ``matrix`` is the read-only matrix of a validated
    :class:`QueryInstance`; it is not copied or re-checked.
    """

    matrix: np.ndarray
    weights: SimplexWeights
    gain: ConcaveGain
    memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        k, n = self.matrix.shape
        if self.weights.k != k:
            raise ValueError(f"{self.weights.k} weights for {k} lists")
        if self.gain.capacity < n:
            raise ValueError(f"gain covers {self.gain.capacity} positions, need {n}")
        # keyed by the gain object itself: the entry holds it, so it stays unique
        key = ("terms", self.gain)
        terms = self.memo.get(key)
        if terms is None:
            delta = self.gain.increments[:n]
            low = self.matrix.min(axis=1, keepdims=True)
            top = (np.sort(self.matrix, axis=1)[:, ::-1] - low) @ delta
            top.setflags(write=False)
            terms = self.memo[key] = (delta, low, top)
        ybar = self.weights.w @ self.matrix
        ybar.setflags(write=False)
        object.__setattr__(self, "_delta", terms[0])
        object.__setattr__(self, "_low", terms[1])
        object.__setattr__(self, "_top", terms[2])
        object.__setattr__(self, "_ybar", ybar)

    @classmethod
    def from_query(cls, q: QueryInstance,
                   weights: SimplexWeights | np.ndarray | Sequence[float],
                   gain: ConcaveGain) -> "EnergyContext":
        if not isinstance(weights, SimplexWeights):
            weights = SimplexWeights(np.asarray(weights, dtype=np.float64))
        return cls(q.matrix, weights, gain, q._memo)

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])


def _proposal_stream(cfg: ChainConfig, delta: np.ndarray, n: int) -> tuple[array, ...]:
    """The whole chain's proposals: a, b, gain gap, uniform and retained flag per step.

    Per block of at most 8192 steps, ``a`` is drawn uniform over N
    positions, then ``b`` over N - 1 (shifted past ``a``), then the
    uniforms, all from ``default_rng(cfg.rng_seed)``. Step j + 1 is
    retained when it lies past burn-in on the thinning grid. The columns
    are typed arrays, 25 bytes a step, which iterate as Python numbers.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    total = cfg.burn_in + cfg.num_samples * cfg.thinning
    blocks = []
    for done in range(0, total, 8192):
        size = min(8192, total - done)
        pos_a = rng.integers(0, n, size=size)
        pos_b = rng.integers(0, n - 1, size=size)
        uniforms = rng.random(size)
        pos_b += pos_b >= pos_a
        blocks.append((pos_a, pos_b, uniforms))
    pos_a, pos_b, uniforms = (np.concatenate(parts) for parts in zip(*blocks))
    past = np.arange(1 - cfg.burn_in, total + 1 - cfg.burn_in)
    keep = (past > 0) & (past % cfg.thinning == 0)
    return (array("i", pos_a.astype(np.intc).tobytes()),
            array("i", pos_b.astype(np.intc).tobytes()),
            array("d", (delta[pos_a] - delta[pos_b]).tobytes()),
            array("d", uniforms.tobytes()),
            array("B", keep.tobytes()))


def sample_orders(ctx: EnergyContext, cfg: ChainConfig) -> np.ndarray:
    """Run one chain; return the retained states as an (M, N) array of permutations.

    The walk starts at the sort of the weighted mean score vector (a cheap
    near-mode state). Each step proposes swapping two distinct positions;
    the energy change of a swap is (delta_a - delta_b) * (y_b - y_a), so
    steps cost O(1). Rejected proposals leave the state in place and the
    repeated state is retained as usual.

    The proposals do not depend on the weights: a chain's stream (the
    position pairs, their gain gaps, the uniforms and which steps are
    retained) is a function of ``cfg``, the gain and N alone. It is drawn
    on a context's first chain with that config and gain and kept in the
    context's memo; later chains replay it, so every chain of one query
    and config sees the same random numbers. Only the accept/swap walk
    runs per call.
    """
    n = ctx.n
    m = cfg.num_samples
    if n == 1:
        return np.zeros((m, 1), dtype=np.int64)

    key = ("stream", cfg, ctx.gain)
    stream = ctx.memo.get(key)
    if stream is None:
        stream = ctx.memo[key] = _proposal_stream(cfg, ctx._delta, n)
    state: list[int] = np.argsort(-ctx._ybar, kind="stable").tolist()
    y = ctx._ybar.tolist()
    literal = cfg.acceptance_rule == "paper_literal"
    literal_cut = math.log(0.9)
    exp = math.exp

    kept_states: list[int] = []  # the retained states, concatenated
    for a, b, gap, u, kept in zip(*stream):
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
    return np.fromiter(kept_states, np.int64, m * n).reshape(m, n)


def _from_mean_h(ctx: EnergyContext, hbar: np.ndarray) -> np.ndarray:
    """E[d(x_i || pi)] of every list i from the mean h-vector ``hbar = E[h_pi]``.

    d(x_i || pi) = sorted_i . delta - x_i . h_pi is linear in h_pi, so its
    expectation needs only ``hbar``. Both terms are taken relative to the
    list minimum ``low_i``: the divergence is unchanged by adding a
    constant to a list, and a constant list gives exactly 0.0. The first
    term is the context's weight-free ``_top``.
    """
    return ctx._top - (ctx.matrix - ctx._low) @ hbar


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
