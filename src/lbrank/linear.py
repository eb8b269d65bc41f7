"""Linear-structured aggregation: one simplex weight per ranker.

Training minimizes the sampled expectation of the weighted divergences plus
an L2 penalty, using per-query stochastic gradients and a multiplicative
simplex update. The step functions take and return plain arrays; the epoch
loop they run in (objective log, snapshots and stop rule) is
shared with the nested trainer, and a :class:`LinearModel` is built and
validated once, when training ends. Inference has a closed form: sort the
weighted mean of the score lists. The model file codec is in ``io``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    gain_from_spec,
    gain_spec,
    ranking_from_scores,
    sigmoid_gain,
    weighted_average_scores,
)
from .io import _parse_floats, _read_model, _write_model_fields
from .sampler import (
    ChainConfig,
    EnergyContext,
    expected_divergences,
    query_config,
)

__all__ = [
    "EARLY_STOP_TOL",
    "LinearHyper",
    "LinearModel",
    "TrainingLog",
    "multiplicative_simplex_update",
    "update_weights",
    "sgd_gradient",
    "objective",
    "train",
    "infer",
    "aggregate_scores",
    "save_linear",
    "load_linear",
]

# Training halts early once no weight moves more than this in a full pass.
EARLY_STOP_TOL = 1e-5

MODEL_FORMAT = "lbrank-linear/1"


@dataclass(frozen=True)
class LinearHyper:
    """Learning rate, L2 penalty and epoch budget."""

    mu: float = 0.1
    lam: float = 0.01
    epochs: int = 20

    def __post_init__(self) -> None:
        _check_steps(self, "lam")


def _check_steps(hyper, *penalties: str) -> None:
    """The rules both trainers' hyperparameters share: mu, the named L2 penalties, epochs."""
    if not 0.0 < hyper.mu < math.inf:
        raise ValueError("learning rate mu must be finite and > 0")
    for name in penalties:
        if not 0.0 <= getattr(hyper, name) < math.inf:
            raise ValueError(f"regularization {name} must be finite and >= 0")
    if hyper.epochs < 1:
        raise ValueError("epochs must be >= 1")


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: SimplexWeights
    gain: ConcaveGain
    hyper: LinearHyper = field(default_factory=LinearHyper)

    @property
    def k(self) -> int:
        return self.weights.k


@dataclass
class TrainingLog:
    """Per-epoch objective values and weight snapshots; one objective per epoch run."""

    objectives: list[float] = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    converged: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.objectives)


def multiplicative_simplex_update(w: np.ndarray, grad: np.ndarray, mu: float) -> np.ndarray:
    """w_i <- w_i exp(-mu grad_i) / sum_j w_j exp(-mu grad_j).

    Keeps the vector on the simplex and moves mass toward coordinates with
    smaller gradient. Coordinates at exactly zero stay zero (the update is
    multiplicative). The max exponent over the mass-carrying coordinates is
    subtracted before exponentiation; that leaves the normalized result
    unchanged but guarantees the denominator stays positive whenever that
    max is finite (the best active coordinate contributes w_i * exp(0)). A
    non-finite gradient raises ValueError. A finite one whose ``-mu * grad``
    overflows is fine on a zero-weight coordinate, and to -inf below the
    max (its mass goes to zero); where it makes the max of a row infinite
    it raises ValueError. Given a matrix, every row is updated on its own
    simplex. A row with no positive weight has no simplex to stay on (its
    max exponent is -inf) and raises ValueError.
    The reductions are the ufuncs' own ``reduce`` calls, which the
    ``np.max`` and ``np.sum`` wrappers dispatch to, so the result is the
    same to the bit without their per-call Python overhead.
    """
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != w.shape:
        raise ValueError("gradient shape does not match weights")
    if not np.isfinite(grad).all():
        raise ValueError("gradient must be finite")
    active = w > 0.0
    with np.errstate(over="ignore"):
        t = -mu * grad
    top = np.maximum.reduce(t, axis=-1, keepdims=True, where=active, initial=-np.inf)
    if not np.isfinite(top).all():
        if not active.any(axis=-1).all():
            raise ValueError("a row of weights has no positive coordinate")
        raise ValueError(f"-mu * gradient overflows a double (mu={mu!r})")
    scaled = np.zeros(w.shape)
    np.subtract(t, top, out=scaled, where=active)
    np.exp(scaled, out=scaled, where=active)
    scaled *= w
    return scaled / np.add.reduce(scaled, axis=-1, keepdims=True)


# one multiplicative step on the linear weights, under its own name so it can be traced
update_weights = multiplicative_simplex_update


def _queries(data) -> tuple[QueryInstance, ...]:
    queries = tuple(data.queries) if hasattr(data, "queries") else tuple(data)
    if not queries:
        raise ValueError("empty dataset")
    k = queries[0].k
    if any(q.k != k for q in queries):
        raise ValueError("all queries must share the same ranker count K")
    return queries


def sgd_gradient(w: np.ndarray, gain: ConcaveGain, lam: float, q: QueryInstance,
                 cfg: ChainConfig, backend: str = "mh") -> np.ndarray:
    """Per-query stochastic gradient: estimated E[d(x_i || pi)] + lam * w_i.

    The chain for query q is seeded with the global seed XOR FNV-1a of the
    query id, so gradients are reproducible and independent of query order.
    """
    ctx = EnergyContext.from_query(q, w, gain)
    v = expected_divergences(ctx, query_config(q, cfg), backend)
    return v + lam * w


def objective(w: np.ndarray, gain: ConcaveGain, lam: float, data: Iterable[QueryInstance],
              cfg: ChainConfig, backend: str = "mh") -> float:
    """Sampled objective: mean over queries of w . E[d] plus the L2 penalty."""
    queries = _queries(data)
    total = 0.0
    for q in queries:
        ctx = EnergyContext.from_query(q, w, gain)
        v = expected_divergences(ctx, query_config(q, cfg), backend)
        total += float(w @ v)
    return total / len(queries) + 0.5 * lam * float(w @ w)


def _run_epochs(queries: tuple[QueryInstance, ...], weights: tuple[np.ndarray, ...],
                step: Callable[..., tuple[np.ndarray, ...]],
                objective_of: Callable[..., float],
                epochs: int) -> tuple[tuple[np.ndarray, ...], TrainingLog]:
    """The epoch loop of both trainers, on a tuple of weight arrays.

    Each epoch visits the queries in dataset order and replaces the
    weights by ``step(q, *weights)``. It then logs ``objective_of(*weights)``
    and the weights tuple itself (each step returns new arrays), and stops
    early once no weight moved more than ``EARLY_STOP_TOL`` in the pass.
    """
    log = TrainingLog()
    for _ in range(epochs):
        before = weights
        for q in queries:
            weights = step(q, *weights)
        log.objectives.append(objective_of(*weights))
        log.snapshots.append(weights)
        moved = max(float(np.max(np.abs(w - b))) for w, b in zip(weights, before))
        if moved < EARLY_STOP_TOL:
            log.converged = True
            break
    return weights, log


def train(data,
          hyper: LinearHyper | None = None,
          cfg: ChainConfig | None = None,
          gain: ConcaveGain | None = None,
          backend: str = "mh") -> tuple[LinearModel, TrainingLog]:
    """Fit the weight vector by per-query multiplicative updates.

    Starts from uniform weights, visits queries in dataset order, and
    stops after ``hyper.epochs`` passes or as soon as no weight moved more
    than ``EARLY_STOP_TOL`` in a full pass.
    The objective recorded per epoch is evaluated with the same per-query
    seeds, so a rerun with the same configuration reproduces the log. The
    weights are a plain array throughout; the model is built once, at the
    end, and each snapshot is the weight array after its epoch.

    Every chain of one query uses the same derived config, so all of them
    (the gradient and objective passes of every epoch) see the same random
    numbers: common random numbers across weight vectors. The query's
    proposals are drawn on its first chain and kept as a replay plan, the
    path on which every step accepts; each later chain tests only the
    steps that can reject under its weights. The derived config and the
    weight-free divergence terms are computed once too; the query holds
    one of each, for the run's config and gain (see ``sample_orders``).
    """
    queries = _queries(data)
    hyper = hyper or LinearHyper()
    cfg = cfg or ChainConfig()
    if gain is None:
        gain = sigmoid_gain(max(q.n for q in queries))

    def step(q, w):
        grad = sgd_gradient(w, gain, hyper.lam, q, cfg, backend)
        return (update_weights(w, grad, hyper.mu),)

    (w,), log = _run_epochs(
        queries, (SimplexWeights.uniform(queries[0].k).w,), step,
        lambda w: objective(w, gain, hyper.lam, queries, cfg, backend),
        hyper.epochs)
    log.snapshots = [snapshot for (snapshot,) in log.snapshots]
    return LinearModel(SimplexWeights(w), gain, hyper), log


def aggregate_scores(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Aggregated scores sum_i w_i x_i of a (..., K, N) score array.

    See :func:`lbrank.core.weighted_average_scores`.
    """
    return weighted_average_scores(x, model.weights.w)


def infer(model: LinearModel, q: QueryInstance) -> np.ndarray:
    """Closed-form inference: sort the weighted mean of the score lists.

    The result attains the minimum weighted divergence over all N!
    rankings; with uniform weights it coincides with the averaging
    baseline exactly.
    """
    return ranking_from_scores(aggregate_scores(model, q.matrix))


def save_linear(model: LinearModel, path: str | Path) -> None:
    """Versioned plain-text serialization; floats render shortest-roundtrip."""
    _write_model_fields(path, MODEL_FORMAT, [
        ("k", model.k), ("gain", gain_spec(model.gain)), ("mu", model.hyper.mu),
        ("lam", model.hyper.lam), ("epochs", model.hyper.epochs), ("w", model.weights.w)])


def load_linear(path: str | Path) -> LinearModel:
    """Read a model file; any malformed content raises DataError."""
    def build(fields: dict[str, str]) -> LinearModel:
        hyper = LinearHyper(mu=float(fields.pop("mu")), lam=float(fields.pop("lam")),
                            epochs=int(fields.pop("epochs")))
        w = _parse_floats(fields.pop("w"), int(fields.pop("k")), "w")
        return LinearModel(SimplexWeights(w), gain_from_spec(fields.pop("gain")), hyper)
    return _read_model(path, MODEL_FORMAT, build)
