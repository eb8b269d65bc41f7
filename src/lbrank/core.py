"""Core domain types for score-based rank aggregation.

Candidates of a query are indexed 0..N-1. A :class:`Ranking` is an
order-based permutation (position -> candidate index); a :class:`ScoreList`
is one ranker's numeric scores over the same candidates. A concave gain
function g, stored through its increments delta_g(i) = g(i) - g(i-1), drives
both the divergence engine and the positional discount used for NDCG.

All types are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SIMPLEX_TOL",
    "ConcaveGain",
    "Ranking",
    "ScoreList",
    "SimplexWeights",
    "QueryInstance",
    "sigmoid_gain",
    "log2_gain",
    "linear_gain",
    "gain_from_spec",
    "gain_spec",
    "ranking_from_scores",
    "weighted_average_scores",
]

# Tolerance on |sum(w) - 1| for simplex-constrained weight vectors.
SIMPLEX_TOL = 1e-9


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """Copy ``values`` into a read-only 1-D array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ConcaveGain:
    """Concave gain g represented by its positive, non-increasing increments.

    ``increments[i-1]`` holds delta_g(i) = g(i) - g(i-1) for i = 1..capacity,
    with g(0) = 0. Positive increments keep g strictly increasing;
    non-increasing increments keep g concave. The same increments serve as
    the positional discount D(i) for NDCG, which makes the normalized
    divergence coincide with the NDCG loss.
    """

    increments: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        inc = np.array(self.increments, dtype=np.float64)
        if inc.ndim != 1 or inc.size == 0:
            raise ValueError("gain requires at least one increment")
        if not np.all(np.isfinite(inc)):
            raise ValueError("gain increments must be finite")
        if np.any(inc <= 0.0):
            raise ValueError("gain increments must be positive (g strictly increasing)")
        if np.any(np.diff(inc) > 0.0):
            raise ValueError("gain increments must be non-increasing (g concave)")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        cumulative = np.concatenate(([0.0], np.cumsum(inc)))
        cumulative.setflags(write=False)
        object.__setattr__(self, "_cumulative", cumulative)

    @property
    def capacity(self) -> int:
        return int(self.increments.size)

    def g(self, i: int) -> float:
        """Cumulative gain g(i) = sum of the first i increments; g(0) = 0."""
        if not 0 <= i <= self.capacity:
            raise ValueError(f"g({i}) outside defined range 0..{self.capacity}")
        return float(self._cumulative[i])

    def delta(self, i: int) -> float:
        """Increment delta_g(i) for 1-based position i."""
        if not 1 <= i <= self.capacity:
            raise ValueError(f"delta({i}) outside defined range 1..{self.capacity}")
        return float(self.increments[i - 1])


def sigmoid_gain(capacity: int) -> ConcaveGain:
    """Decreasing logistic increments delta_g(i) = 1 / (1 + exp(i - 1)).

    The default discount. Strictly decreasing and positive, so the induced
    g is increasing and concave. Computed as exp(-(i-1)) / (1 + exp(-(i-1)))
    and floored at the smallest normal double so very deep positions keep a
    positive (if negligible) increment instead of underflowing to zero.
    """
    t = -(np.arange(1, capacity + 1, dtype=np.float64) - 1.0)
    e = np.exp(t)
    increments = np.maximum(e / (1.0 + e), np.finfo(np.float64).tiny)
    return ConcaveGain(increments, kind="sigmoid")


def log2_gain(capacity: int) -> ConcaveGain:
    """Classic NDCG discount delta_g(i) = 1 / log2(i + 1)."""
    i = np.arange(1, capacity + 1, dtype=np.float64)
    return ConcaveGain(1.0 / np.log2(i + 1.0), kind="log2")


def linear_gain(capacity: int) -> ConcaveGain:
    """Linearly decaying increments delta_g(i) = (capacity - i + 1) / capacity."""
    i = np.arange(1, capacity + 1, dtype=np.float64)
    return ConcaveGain((capacity - i + 1.0) / capacity, kind="linear")


_GAIN_BUILDERS: dict[str, Callable[[int], ConcaveGain]] = {
    "sigmoid": sigmoid_gain,
    "log2": log2_gain,
    "linear": linear_gain,
}


def gain_from_spec(spec: str, capacity: int | None = None) -> ConcaveGain:
    """Build a gain from a spec string.

    Accepted forms: ``sigmoid``, ``log2``, ``linear`` (capacity taken from
    the ``capacity`` argument), ``sigmoid:40`` (explicit capacity), and
    ``custom:<v1>,<v2>,...`` with full-precision increment values.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind == "custom":
        if not arg:
            raise ValueError("custom gain spec requires increment values")
        values = [float(tok) for tok in arg.split(",")]
        return ConcaveGain(values, kind="custom")
    if kind not in _GAIN_BUILDERS:
        raise ValueError(f"unknown gain kind {kind!r}; expected one of "
                         f"{sorted(_GAIN_BUILDERS)} or custom:<values>")
    if arg:
        cap = int(arg)
    elif capacity is not None:
        cap = int(capacity)
    else:
        raise ValueError(f"gain spec {spec!r} needs an explicit or implied capacity")
    if cap < 1:
        raise ValueError("gain capacity must be >= 1")
    return _GAIN_BUILDERS[kind](cap)


def gain_spec(gain: ConcaveGain) -> str:
    """Serialize a gain to a spec string that round-trips exactly."""
    if gain.kind in _GAIN_BUILDERS:
        return f"{gain.kind}:{gain.capacity}"
    return "custom:" + ",".join(repr(v) for v in gain.increments.tolist())


@dataclass(frozen=True, eq=False)
class Ranking:
    """Order-based permutation: ``order[i]`` is the candidate ranked i-th."""

    order: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.order, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ranking must be a non-empty index sequence")
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("ranking must be a permutation of 0..N-1")
        arr.setflags(write=False)
        object.__setattr__(self, "order", arr)

    @property
    def n(self) -> int:
        return int(self.order.size)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.order.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return np.array_equal(self.order, other.order)

    def __hash__(self) -> int:
        return hash(self.as_tuple())


@dataclass(frozen=True, eq=False)
class ScoreList:
    """One ranker's numeric scores over the N candidates of a single query."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.scores, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("scores must be a flat sequence")
        if arr.size == 0:
            raise ValueError("empty ground set")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite (no NaN or infinity)")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreList):
            return NotImplemented
        return np.array_equal(self.scores, other.scores)

    def __hash__(self) -> int:
        return hash(tuple(self.scores.tolist()))


def as_score_list(x: ScoreList | Sequence[float] | np.ndarray) -> ScoreList:
    """Coerce raw sequences to :class:`ScoreList`, validating on the way."""
    return x if isinstance(x, ScoreList) else ScoreList(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Non-negative weights over K rankers that sum to one."""

    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.w, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(arr.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1 within {SIMPLEX_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @classmethod
    def uniform(cls, k: int) -> "SimplexWeights":
        if k < 1:
            raise ValueError("need at least one ranker")
        return cls(np.full(k, 1.0 / k))

    @property
    def k(self) -> int:
        return int(self.w.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplexWeights):
            return NotImplemented
        return np.array_equal(self.w, other.w)

    def __hash__(self) -> int:
        return hash(tuple(self.w.tolist()))


@dataclass(frozen=True, eq=False)
class QueryInstance:
    """A query id plus its K x N score matrix over one shared candidate set.

    Row i of ``matrix`` holds ranker i's scores. The matrix is validated
    and stored once, as a read-only C-ordered float64 copy; ``lists``
    derives per-ranker :class:`ScoreList` views from its rows on demand.
    ``relevance`` carries optional graded judgments, used by evaluation
    only; training never reads it.
    """

    query_id: str
    matrix: np.ndarray
    relevance: np.ndarray | None = None

    def __post_init__(self) -> None:
        try:
            # C order: BLAS rounds w @ X by memory layout, and a transposed
            # (Fortran-ordered) input would change the last digit of scores
            mat = np.array(self.matrix, dtype=np.float64, order="C")
        except ValueError:
            raise ValueError(f"query {self.query_id!r}: score lists disagree on length "
                             "or hold non-numbers") from None
        if mat.ndim != 2:
            raise ValueError("score matrix must be 2-D (K x N)")
        k, n = mat.shape
        if k == 0:
            raise ValueError("query requires at least one score list")
        if n == 0:
            raise ValueError("empty ground set")
        if not np.all(np.isfinite(mat)):
            raise ValueError("scores must be finite (no NaN or infinity)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.relevance is not None:
            rel = np.array(self.relevance, dtype=np.float64)
            if rel.shape != (n,):
                raise ValueError(f"query {self.query_id!r}: relevance length != N")
            if not np.all(np.isfinite(rel)) or np.any(rel < 0.0):
                raise ValueError("relevance grades must be finite and non-negative")
            rel.setflags(write=False)
            object.__setattr__(self, "relevance", rel)

    @classmethod
    def from_matrix(cls, query_id: str, matrix, relevance=None) -> "QueryInstance":
        """Build from a K x N score matrix (row i is ranker i)."""
        return cls(query_id, matrix, relevance)

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def lists(self) -> tuple[ScoreList, ...]:
        """Per-ranker score lists, built from the matrix rows on each call."""
        return tuple(ScoreList(row) for row in self.matrix)

    @functools.cached_property
    def _memo(self) -> dict:
        """Values the sampler derives from this query, created on first use.

        The query is immutable, so an entry never goes stale; the sampler
        keys each one by the value (or the held object) it depends on.
        """
        return {}


def ranking_from_scores(x: ScoreList | Sequence[float] | np.ndarray) -> Ranking:
    """Ranking that sorts scores in non-increasing order.

    Ties are broken by the lower candidate index, so the result is
    deterministic and invariant under adding a constant or scaling all
    scores by a positive factor.
    """
    scores = as_score_list(x).scores
    # stable sort of the negated scores: equal scores keep index order
    return Ranking(np.argsort(-scores, kind="stable"))


def weighted_average_scores(q: QueryInstance,
                            weights: SimplexWeights | np.ndarray) -> np.ndarray:
    """Aggregated score vector sum_i w_i * x_i for one query.

    This is the closed-form aggregation step shared by model inference and
    the averaging baseline; both call it so their outputs agree exactly.
    """
    w = weights.w if isinstance(weights, SimplexWeights) else np.asarray(weights, float)
    if w.shape != (q.k,):
        raise ValueError(f"weight length {w.shape} does not match K={q.k}")
    return w @ q.matrix
