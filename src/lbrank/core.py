"""Core domain types for score-based rank aggregation.

Candidates of a query are indexed 0..N-1. A ranking is an int64 order
array, a permutation with ``order[i]`` the candidate ranked i-th; one
ranker's scores over the same candidates (a score list) and the relevance
grades of a query are 1-D float arrays, and a :class:`QueryInstance` holds
the K lists of a query as one K x N matrix. The functions that score and
rank take a (..., K, N) score array: a query's matrix, or a block of
queries with one candidate count N stacked along a leading axis, each
item treated as that query alone.
Each kind of array is checked by one private helper where it enters the
library.
:class:`SimplexWeights` is a validated weight vector on the simplex;
trainers carry plain arrays and build it once, at the end. A concave gain
function g, stored through its increments delta_g(i) = g(i) - g(i-1), drives
both the divergence engine and the positional discount used for NDCG.

All types are immutable after construction, with one exception: a
query's ``_memo``, where the sampler caches the values it derives from
the query: one value of each kind, for the config or gain it last saw.
Each value is fixed by the query and that key, so sharing a query never
changes what a reader computes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SIMPLEX_TOL",
    "ConcaveGain",
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
        with np.errstate(over="ignore"):
            if not np.isfinite(inc.sum()):
                raise ValueError(f"gain total g({inc.size}) overflows a double")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def capacity(self) -> int:
        return int(self.increments.size)


def _increments(gain: ConcaveGain, n: int, name: str = "gain") -> np.ndarray:
    """The first ``n`` increments of ``gain``; ``name`` starts the error if it has fewer."""
    if gain.capacity < n:
        raise ValueError(f"{name} covers {gain.capacity} positions, need {n}")
    return gain.increments[:n]


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


def _simplex_rows(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` made read-only after checking that each row lies on the simplex.

    A row is the last axis: a vector is one row, a matrix is checked row by
    row. ``name`` starts the error messages.
    """
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative")
    if np.any(np.abs(arr.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
        raise ValueError(f"{name} must sum to 1 within {SIMPLEX_TOL}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Non-negative weights over K rankers that sum to one."""

    w: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.w, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty sequence")
        object.__setattr__(self, "w", _simplex_rows(arr, "weights"))

    @classmethod
    def uniform(cls, k: int) -> "SimplexWeights":
        if k < 1:
            raise ValueError("need at least one ranker")
        return cls(np.full(k, 1.0 / k))

    @property
    def k(self) -> int:
        return int(self.w.size)


@dataclass(frozen=True, eq=False)
class QueryInstance:
    """A query id plus its K x N score matrix over one shared candidate set.

    Row i of ``matrix`` holds ranker i's scores. The matrix is validated
    and stored once, as a read-only C-ordered float64 copy (the parsers,
    which check whole files, hand over arrays of their own through
    ``_checked``). ``relevance``
    carries optional graded judgments, used by evaluation only; training
    never reads it.
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
        if mat.shape[0] == 0:
            raise ValueError("query requires at least one score list")
        _score_vector(mat, stacked=True)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.relevance is not None:
            rel = _grade_vector(np.array(self.relevance, dtype=np.float64))
            if rel.size != mat.shape[1]:
                raise ValueError(f"query {self.query_id!r}: relevance length != N")
            rel.setflags(write=False)
            object.__setattr__(self, "relevance", rel)

    @classmethod
    def from_matrix(cls, query_id: str, matrix, relevance=None) -> "QueryInstance":
        """Build from a K x N score matrix (row i is ranker i)."""
        return cls(query_id, matrix, relevance)

    @classmethod
    def _checked(cls, query_id: str, matrix: np.ndarray,
                 relevance: np.ndarray | None) -> "QueryInstance":
        """A query of arrays its caller owns and has checked, kept as they are.

        ``matrix`` must be a C-ordered float64 K x N array (K, N >= 1) of
        finite scores, and ``relevance`` None or N finite non-negative
        float64 grades. Both are made read-only, not copied or checked
        again: the parsers check a whole file's rows at once.
        """
        matrix.setflags(write=False)
        if relevance is not None:
            relevance.setflags(write=False)
        query = cls.__new__(cls)
        query.__dict__.update(query_id=query_id, matrix=matrix, relevance=relevance)
        return query

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])

    @functools.cached_property
    def _memo(self) -> dict:
        """Values the sampler derives from this query, created on first use.

        The query is immutable, so an entry never goes stale; the sampler
        holds one entry of each kind, with the config or gain it was made
        for, and replaces it when another one is asked for.
        """
        return {}


def _score_vector(x: Sequence[float] | np.ndarray, stacked: bool = False) -> np.ndarray:
    """One score list as a float64 array: flat, non-empty and finite.

    With ``stacked``, equally long lists stacked along leading axes pass too.
    """
    scores = np.asarray(x, dtype=np.float64)
    if scores.ndim != 1 and not (stacked and scores.ndim > 1):
        raise ValueError("scores must be a flat sequence" + " or a stack of them" * stacked)
    if scores.shape[-1] == 0:
        raise ValueError("empty ground set")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite (no NaN or infinity)")
    return scores


def _order_vector(order: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """A ranking of n candidates as an int64 array: a permutation of 0..n-1."""
    arr = np.asarray(order, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"ranking has {arr.size} entries, need a flat sequence of {n}")
    if not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError("ranking must be a permutation of 0..N-1")
    return arr


def _grade_vector(r: Sequence[float] | np.ndarray) -> np.ndarray:
    """Relevance grades as a float64 array: flat, non-empty, finite, >= 0."""
    grades = np.asarray(r, dtype=np.float64)
    if grades.ndim != 1 or grades.size == 0:
        raise ValueError("relevance must be a non-empty sequence")
    if not np.all((grades >= 0.0) & (grades < np.inf)):
        raise ValueError("relevance grades must be finite and non-negative")
    return grades


def ranking_from_scores(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Order array that sorts scores in non-increasing order.

    ``x`` is one score list, or a stack of equally long lists (such as the
    aggregated scores of a block of queries), each sorted along the last
    axis into its own order array. Ties are broken by the lower candidate
    index, so the result is deterministic and invariant under adding a
    constant or scaling all scores by a positive factor.
    """
    scores = _score_vector(x, stacked=True)
    # stable sort of the negated scores: equal scores keep index order
    return np.argsort(-scores, axis=-1, kind="stable")


def _score_matrices(x: np.ndarray) -> np.ndarray:
    """A K x N score matrix, or a (..., K, N) stack of them, as a float64 array.

    This is the one input form of every scoring function: a query passes
    its ``matrix``, a block of queries its ``scores``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("score matrices must be K x N, or stacked along leading axes")
    return x


def weighted_average_scores(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Aggregated scores sum_i w_i * x_i of a (..., K, N) score array and K weights.

    A (Q, K, N) block gives (Q, N) scores, item j bit for bit those of
    matrix j alone. This is the closed-form aggregation step shared by
    model inference and the averaging baseline; both call it so their
    outputs agree exactly.
    """
    x = _score_matrices(x)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (x.shape[-2],):
        raise ValueError(f"weight length {w.shape} does not match K={x.shape[-2]}")
    return w @ x
