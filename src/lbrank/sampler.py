"""Metropolis-Hastings sampling of rankings from a weighted-divergence Gibbs law.

The target distribution over the N! rankings of one query puts probability
proportional to exp(-sum_i w_i d(x_i || pi)) on each ranking pi. Only energy
differences are evaluated anywhere; the partition function is intractable
and never materialized. Proposals are uniform random transpositions of two
distinct positions (symmetric, full support), so the plain Metropolis
ratio is the correct acceptance ratio.

A chain's proposals do not depend on the weights, so each query and config
keeps them as a replay plan, the path on which every step accepts (see
``_ReplayPlan``). A chain under given weights tests only the steps that can
reject at the range of its weighted mean scores, and its retained states
are the ones the step-by-step walk gives, bit for bit.

An exact enumeration backend over all N! rankings backs the sampler for
small N; trainers accept either backend. Both backends produce one mean
h-vector ``hbar = E[h_pi]``, from which every list's expected divergence
follows as ``E[d(x_i || pi)] = sorted_i . delta - x_i . hbar``.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import ConcaveGain, QueryInstance, _increments

__all__ = [
    "BACKENDS",
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

# Expectation backends of ``expected_divergences``: a chain estimate, or
# full enumeration of the N! rankings.
BACKENDS = ("mh", "exact")

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
    """Sampling budget and seed of one chain."""

    num_samples: int = 50
    burn_in: int = 100
    thinning: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if not 0 <= int(self.rng_seed) <= _MASK64:
            raise ValueError("rng_seed must be a non-negative 64-bit integer")


def query_config(q: QueryInstance, cfg: ChainConfig) -> ChainConfig:
    """``cfg`` reseeded for the chains of query ``q``.

    The seed is ``chain_seed(cfg.rng_seed, query_id)``; every chain of the
    query, including each nested hidden unit's, uses this one config and so
    replays one proposal stream. The derived config is memoised on the
    query until a call passes another ``cfg``.
    """
    return _memoised(q._memo, "config", cfg,
                     lambda: replace(cfg, rng_seed=chain_seed(cfg.rng_seed, q.query_id)))


def _memoised(memo: dict, kind: str, key, make: Callable[[], object]):
    """The value ``memo`` holds under ``kind``, if it was made for ``key``.

    Otherwise ``make()``, which replaces the held value: a query keeps one
    value of each kind, made for the last key it saw. Keys compare with
    ``==``; a gain equals only itself, and the held entry keeps it alive.
    """
    held = memo.get(kind)
    if held is None or held[0] != key:
        held = memo[kind] = (key, make())
    return held[1]


def _weight_free_terms(matrix: np.ndarray,
                       gain: ConcaveGain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``delta``, each list minus its minimum ``low_i``, and ``(sorted_i - low_i) . delta``.

    The last is taken from a fresh sort of ``matrix``: the same product over
    a reversed view of the centred lists rounds differently.
    """
    delta = _increments(gain, matrix.shape[1])
    low = matrix.min(axis=1, keepdims=True)
    centred = matrix - low
    top = (np.sort(matrix, axis=1)[:, ::-1] - low) @ delta
    centred.setflags(write=False)
    top.setflags(write=False)
    return delta, centred, top


@dataclass(frozen=True, eq=False, repr=False)
class EnergyContext:
    """One query's K x N score matrix, effective weights and gain, preprocessed.

    Built only by ``from_query``. Holds the weighted mean score vector
    ``ybar``, the only term that depends on the weights, so that chain steps
    touch O(1) values and expectations are a few matrix-vector products.
    It averages the lists minus their minima, which the law ignores, so with
    simplex weights it lies in [0, largest list span], up to rounding.
    The weight-free terms (see ``_weight_free_terms``) and the chains'
    replay plans live in ``memo``, the query's own, so they are computed
    once per query while its gain stays the same. Of the weights only the
    shape is checked here; the trainers' stay on the simplex by
    construction and are validated when the model is built.
    """

    matrix: np.ndarray
    weights: np.ndarray
    gain: ConcaveGain
    memo: dict
    _delta: np.ndarray
    _centred: np.ndarray
    _top: np.ndarray
    _ybar: np.ndarray

    @classmethod
    def from_query(cls, q: QueryInstance, weights: np.ndarray | Sequence[float],
                   gain: ConcaveGain) -> "EnergyContext":
        weights = np.asarray(weights, dtype=np.float64)
        k = q.matrix.shape[0]
        if weights.shape != (k,):
            raise ValueError(f"weights of shape {weights.shape} for {k} lists")
        delta, centred, top = _memoised(q._memo, "terms", gain,
                                        lambda: _weight_free_terms(q.matrix, gain))
        ybar = weights @ centred
        ybar.setflags(write=False)
        return cls(q.matrix, weights, gain, q._memo, delta, centred, top, ybar)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])


def _proposal_stream(cfg: ChainConfig, delta: np.ndarray,
                     n: int) -> tuple[np.ndarray, ...]:
    """The whole chain's proposals: a, b, gain gap, threshold and retained flag per step.

    Per block of at most 8192 steps, ``a`` is drawn uniform over N
    positions, then ``b`` over N - 1 (shifted past ``a``), then the
    uniforms, all from ``default_rng(cfg.rng_seed)``. Each uniform u is
    stored as ``log u``, the threshold the step's log acceptance ratio must
    exceed (u = 0 gives -inf, so the step accepts). Step j + 1 is retained
    when it lies past burn-in on the thinning grid.
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
    with np.errstate(divide="ignore"):
        cuts = np.log(uniforms)
    past = np.arange(1 - cfg.burn_in, total + 1 - cfg.burn_in)
    keep = (past > 0) & (past % cfg.thinning == 0)
    return pos_a, pos_b, delta[pos_a] - delta[pos_b], cuts, keep


def _mean_gains(slots: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per index of an (M, N) array, the gains at the positions that hold it, summed over M.

    One ``np.bincount`` in row order: each index adds its gains in the
    order they appear, from 0.0, and the sums are divided by M.
    """
    m, n = slots.shape
    gains = np.empty((m, n))
    gains[:] = delta  # row r holds the gain at every position
    return np.bincount(slots.ravel(), weights=gains.ravel(), minlength=n) / m


class _ReplayPlan(NamedTuple):
    """A chain's proposals replayed on the path where every step accepts.

    Write the chain's state as ``e[sigma]``: ``e`` a vector of candidates
    (the start order) and ``sigma`` a slot map, position -> slot of ``e``.
    If every step accepts, ``e`` stays the start order and step j swaps
    positions a_j and b_j of ``sigma``. A rejection at step j instead
    leaves the state in place, which is the same as swapping slots
    ``sigma(a_j)`` and ``sigma(b_j)`` of ``e``; the candidates that meet at a
    later step are then read through the updated ``e``. So per step the
    plan holds those two slots (int32 ``slot_i`` and ``slot_k``) with the
    step's gain gap and threshold (float64 ``gap`` and ``cut``), 24 bytes a
    step, and per retained state the (M, N) int32 slot map after its step
    (``kept_slots``, 4 N bytes a state) and the step's index (int64
    ``kept_steps``, 8 bytes a state); ``first`` is the first retained step
    and ``widest`` the largest ``|gap|``. ``slot_means`` (N float64) is the
    mean over the retained states of the gain each slot of ``e`` sits at:
    when no step from ``first`` on rejects, every retained state reads one
    ``e`` through its slot map, and the chain's mean h-vector is
    ``slot_means`` read through that ``e``. It is summed by
    ``_mean_gains``, as ``sample_expectation`` sums the states, so each
    slot adds the same gains in the same order. Nothing here depends on
    the weights.
    """

    slot_i: np.ndarray
    slot_k: np.ndarray
    gap: np.ndarray
    cut: np.ndarray
    kept_steps: np.ndarray
    kept_slots: np.ndarray
    slot_means: np.ndarray
    first: int
    widest: float

    @classmethod
    def build(cls, cfg: ChainConfig, delta: np.ndarray, n: int) -> "_ReplayPlan":
        pos_a, pos_b, gap, cut, keep = _proposal_stream(cfg, delta, n)
        kept_steps = np.flatnonzero(keep)
        kept_slots = np.empty((len(kept_steps), n), dtype=np.int32)
        slot_i: list[int] = []
        slot_k: list[int] = []
        sigma = list(range(n))
        kept = 0
        for a, b, retained in zip(pos_a.tolist(), pos_b.tolist(), keep.tolist()):
            i = sigma[a]
            k = sigma[b]
            slot_i.append(i)
            slot_k.append(k)
            sigma[a] = k
            sigma[b] = i
            if retained:
                kept_slots[kept] = sigma
                kept += 1
        return cls(np.array(slot_i, dtype=np.int32), np.array(slot_k, dtype=np.int32),
                   gap, cut, kept_steps, kept_slots, _mean_gains(kept_slots, delta),
                   int(kept_steps[0]), float(np.abs(gap).max()))

    def may_reject(self, span: float) -> np.ndarray:
        """The steps that can reject when ``ybar`` has range ``span``, in step order.

        Any other step has ``-(|gap| * span) > cut``, and since rounding is
        monotone, ``|gap * (y_b - y_a)| <= |gap| * span`` holds in floating
        point for every two candidates: the step accepts whichever two meet.
        When ``|gap| * span`` is not finite for the widest gap (a non-finite
        ``ybar``, or a span near the float range), every step is kept; the
        products are then neither formed nor warned about.
        """
        if not span * self.widest < math.inf:
            return np.arange(len(self.gap))
        return (~(-(np.abs(self.gap) * span) > self.cut)).nonzero()[0]


def sample_orders(ctx: EnergyContext, cfg: ChainConfig) -> np.ndarray:
    """Run one chain; return the retained states as an (M, N) array of permutations.

    The walk starts at the sort of the weighted mean score vector (a cheap
    near-mode state). Each step proposes swapping two distinct positions;
    the energy change of a swap is (delta_a - delta_b) * (y_b - y_a), so
    steps cost O(1). A step swaps when that log acceptance ratio exceeds
    the step's threshold (see ``_proposal_stream``); rejected proposals
    leave the state in place and the repeated state is retained as usual.
    The test ``log_alpha > log u`` differs from ``u < exp(log_alpha)``
    only when u lies within about one ulp of ``exp(log_alpha)``, or when
    u = 0 and ``exp(log_alpha)`` underflows (``log_alpha < -745``).

    The proposals do not depend on the weights: a chain's stream is a
    function of ``cfg``, the gain and N alone. It is drawn on a context's
    first chain with that config and gain and turned into a replay plan
    (see ``_ReplayPlan``), kept in the context's memo until a chain with
    another config or gain replaces it, so every chain of one query and
    config sees the same random numbers. Per call, a step is skipped when
    ``-(|gap| * span) > cut``, with ``span`` the range of ``ybar``: such a
    step accepts whichever two candidates meet, because rounding is
    monotone (see ``_ReplayPlan.may_reject``; a non-finite ``ybar`` skips
    none). The other steps, if any, are tested in step order by the walk's
    own expression ``gap * (y_b - y_a) > cut``. A rejection swaps two slots
    of the start order, which is copied at each rejection from the first
    retained step on, and once after the last step; every retained state is
    one of those copies read through its slot map.
    """
    if ctx.n == 1:
        return np.zeros((cfg.num_samples, 1), dtype=np.int64)
    return _retained(*_walk(ctx, cfg))


def _walk(ctx: EnergyContext, cfg: ChainConfig) -> tuple[_ReplayPlan, np.ndarray, array]:
    """Run one chain (N >= 2) on its replay plan.

    Returns the plan, the snapshot rows and the late rejections. The
    snapshot rows are an (R + 1, N) int64 array: the start order ``e``
    before each of the R rejections from the plan's first retained step on,
    then ``e`` after the last step. The late rejections are the steps of
    those R rejections, in step order. See ``sample_orders``.
    """
    n = ctx.n
    plan = _memoised(ctx.memo, "plan", (cfg, ctx.gain),
                     lambda: _ReplayPlan.build(cfg, ctx._delta, n))
    ybar = ctx._ybar
    order = (-ybar).argsort(kind="stable")
    y = ybar[order].tolist()  # y[slot] is the mean score of e[slot]
    span = y[0] - y[-1]  # max - min; a NaN sorts last
    tested = plan.may_reject(span)
    e = order.tolist()
    first = plan.first
    snapshots = array("q")  # e before each rejection from ``first`` on, then e
    rejected = array("q")  # the steps of those rejections
    for j, i, k, gap, cut in zip(tested.tolist(), plan.slot_i[tested].tolist(),
                                 plan.slot_k[tested].tolist(), plan.gap[tested].tolist(),
                                 plan.cut[tested].tolist()):
        yi = y[i]
        yk = y[k]
        if gap * (yk - yi) > cut:
            continue
        if j >= first:
            snapshots.extend(e)
            rejected.append(j)
        y[i] = yk
        y[k] = yi
        e[i], e[k] = e[k], e[i]
    snapshots.extend(e)
    return plan, np.frombuffer(snapshots, dtype=np.int64).reshape(-1, n), rejected


def _retained(plan: _ReplayPlan, states: np.ndarray, rejected: array) -> np.ndarray:
    """The (M, N) retained states: each one's snapshot row read through its slot map."""
    if not rejected:
        return states[0][plan.kept_slots]
    segment = np.frombuffer(rejected, dtype=np.int64).searchsorted(plan.kept_steps, "right")
    return states[segment[:, None], plan.kept_slots]


def _from_mean_h(ctx: EnergyContext, hbar: np.ndarray) -> np.ndarray:
    """E[d(x_i || pi)] of every list i from the mean h-vector ``hbar = E[h_pi]``.

    d(x_i || pi) = sorted_i . delta - x_i . h_pi is linear in h_pi, so its
    expectation needs only ``hbar``. Both terms are taken relative to the
    list minimum ``low_i``, as the query's memoised ``_top`` and centred
    lists ``_centred``: the divergence is unchanged by adding a constant to
    a list, and a constant list gives exactly 0.0.
    """
    return ctx._top - ctx._centred @ hbar


def sample_expectation(ctx: EnergyContext, cfg: ChainConfig) -> np.ndarray:
    """Chain estimate of E[d(x_i || pi)] for every list i.

    Averages the h-vectors of the M retained states into one mean h-vector
    (``h_pi[pi[p]] = delta[p]``) and reads every list's expectation off it.
    When no step from the first retained one on rejects, every retained
    state is the final start order ``e`` read through a slot map, so the
    mean is the plan's weight-free ``slot_means`` placed at ``e``, with no
    states gathered. Otherwise the states are gathered and their gains
    summed per candidate. Both sums are ``_mean_gains``, so both give the
    same bits: per candidate, the same gains added in the same order.
    One candidate has one order, whose h-vector ``delta`` is the mean, so
    no chain runs. Deterministic given the config seed.
    """
    if ctx.n == 1:
        return _from_mean_h(ctx, ctx._delta)
    plan, states, rejected = _walk(ctx, cfg)
    if rejected:
        hbar = _mean_gains(_retained(plan, states, rejected), ctx._delta)
    else:
        hbar = np.empty(ctx.n)
        hbar[states[0]] = plan.slot_means
    return _from_mean_h(ctx, hbar)


def _exact_law(ctx: EnergyContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All N! orders, their (N!, N) h-vectors and their exact probabilities.

    The energy is E(pi) = const - ybar . h_pi, so probabilities are
    exp(ybar . h_pi) normalized over the full enumeration, with the
    maximum exponent subtracted first for stability. ``ybar`` is taken
    relative to its minimum; every h-vector sums to g(N), so that shift
    cancels.
    """
    if ctx.n > MAX_ENUMERATION_N:
        raise ValueError(f"exact enumeration limited to N <= {MAX_ENUMERATION_N}, got {ctx.n}")
    orders = np.array(list(itertools.permutations(range(ctx.n))), dtype=np.int64)
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
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
