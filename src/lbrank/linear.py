"""Linear-structured aggregation: one simplex weight per ranker.

Training minimizes the sampled expectation of the weighted divergences plus
an L2 penalty, using per-query stochastic gradients and a multiplicative
simplex update. Inference has a closed form: sort the weighted mean of the
score lists.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    ConcaveGain,
    QueryInstance,
    Ranking,
    SimplexWeights,
    gain_from_spec,
    gain_spec,
    ranking_from_scores,
    sigmoid_gain,
    weighted_average_scores,
)
from .io import DataError
from .sampler import (
    ChainConfig,
    EnergyContext,
    chain_seed,
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
        if not self.mu > 0.0:
            raise ValueError("learning rate mu must be > 0")
        if self.lam < 0.0:
            raise ValueError("regularization lam must be >= 0")
        if self.epochs < 1:
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
    """Per-epoch objective values and weight snapshots."""

    objectives: list[float] = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False


def multiplicative_simplex_update(w: np.ndarray, grad: np.ndarray, mu: float) -> np.ndarray:
    """w_i <- w_i exp(-mu grad_i) / sum_j w_j exp(-mu grad_j).

    Keeps the vector on the simplex and moves mass toward coordinates with
    smaller gradient. Coordinates at exactly zero stay zero (the update is
    multiplicative). The max exponent over the mass-carrying coordinates is
    subtracted before exponentiation; that leaves the normalized result
    unchanged but guarantees the denominator stays positive for any finite
    gradient (the best active coordinate contributes w_i * exp(0)). Given a
    matrix, every row is updated on its own simplex.
    """
    w = np.asarray(w, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != w.shape:
        raise ValueError("gradient shape does not match weights")
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient must be finite")
    active = w > 0.0
    t = -mu * grad
    top = np.max(t, axis=-1, keepdims=True, where=active, initial=-np.inf)
    scaled = np.zeros_like(w)
    np.subtract(t, top, out=scaled, where=active)
    np.exp(scaled, out=scaled, where=active)
    scaled *= w
    return scaled / scaled.sum(axis=-1, keepdims=True)


def update_weights(model: LinearModel, grad: np.ndarray) -> LinearModel:
    """One multiplicative step on the model weights."""
    new_w = multiplicative_simplex_update(model.weights.w, grad, model.hyper.mu)
    return replace(model, weights=SimplexWeights(new_w))


def _queries(data) -> tuple[QueryInstance, ...]:
    queries = tuple(data.queries) if hasattr(data, "queries") else tuple(data)
    if not queries:
        raise ValueError("empty dataset")
    k = queries[0].k
    if any(q.k != k for q in queries):
        raise ValueError("all queries must share the same ranker count K")
    return queries


def sgd_gradient(model: LinearModel, q: QueryInstance, cfg: ChainConfig,
                 backend: str = "mh") -> np.ndarray:
    """Per-query stochastic gradient: estimated E[d(x_i || pi)] + lam * w_i.

    The chain for query q is seeded with the global seed XOR FNV-1a of the
    query id, so gradients are reproducible and independent of query order.
    """
    if q.k != model.k:
        raise ValueError(f"query has K={q.k}, model has K={model.k}")
    ctx = EnergyContext.from_query(q, model.weights, model.gain)
    v = expected_divergences(ctx, query_config(q, cfg), backend)
    return v + model.hyper.lam * model.weights.w


def objective(model: LinearModel, data: Iterable[QueryInstance],
              cfg: ChainConfig, backend: str = "mh") -> float:
    """Sampled objective: mean over queries of w . E[d] plus the L2 penalty."""
    queries = _queries(data)
    if queries[0].k != model.k:
        raise ValueError(f"dataset has K={queries[0].k}, model has K={model.k}")
    w = model.weights.w
    total = 0.0
    for q in queries:
        ctx = EnergyContext.from_query(q, model.weights, model.gain)
        v = expected_divergences(ctx, query_config(q, cfg), backend)
        total += float(w @ v)
    return total / len(queries) + 0.5 * model.hyper.lam * float(w @ w)


def train(data,
          hyper: LinearHyper | None = None,
          cfg: ChainConfig | None = None,
          gain: ConcaveGain | None = None,
          backend: str = "mh",
          shuffle: bool = False) -> tuple[LinearModel, TrainingLog]:
    """Fit the weight vector by per-query multiplicative updates.

    Starts from uniform weights, visits queries in dataset order (or a
    seeded shuffle per epoch), and stops after ``hyper.epochs`` passes or
    as soon as no weight moved more than ``EARLY_STOP_TOL`` in a full pass.
    The objective recorded per epoch is evaluated with the same per-query
    seeds, so a rerun with the same configuration reproduces the log.

    Every chain of one query uses the same derived config, so all of them
    (the gradient and objective passes of every epoch) see the same random
    numbers: common random numbers across weight vectors. The query's
    proposal stream is drawn on its first chain and replayed afterwards,
    and its derived config and weight-free divergence terms are computed
    once; all three are memoised on the query (see ``sample_orders``).
    """
    queries = _queries(data)
    hyper = hyper or LinearHyper()
    cfg = cfg or ChainConfig()
    if gain is None:
        gain = sigmoid_gain(max(q.n for q in queries))
    k = queries[0].k
    model = LinearModel(SimplexWeights.uniform(k), gain, hyper)
    log = TrainingLog()
    for epoch in range(hyper.epochs):
        w_before = model.weights.w
        order = list(range(len(queries)))
        if shuffle:
            rng = np.random.default_rng(chain_seed(cfg.rng_seed, f"shuffle-epoch-{epoch}"))
            order = rng.permutation(len(queries)).tolist()
        for qi in order:
            grad = sgd_gradient(model, queries[qi], cfg, backend)
            model = update_weights(model, grad)
        log.objectives.append(objective(model, queries, cfg, backend))
        log.snapshots.append(model.weights.w.copy())
        log.epochs_run = epoch + 1
        if float(np.max(np.abs(model.weights.w - w_before))) < EARLY_STOP_TOL:
            log.converged = True
            break
    return model, log


def aggregate_scores(model: LinearModel, q: QueryInstance) -> np.ndarray:
    """Aggregated score vector sum_i w_i x_i for one query."""
    if q.k != model.k:
        raise ValueError(f"query has K={q.k}, model has K={model.k}")
    return weighted_average_scores(q, model.weights)


def infer(model: LinearModel, q: QueryInstance) -> Ranking:
    """Closed-form inference: sort the weighted mean of the score lists.

    The result attains the minimum weighted divergence over all N!
    rankings; with uniform weights it coincides with the averaging
    baseline exactly.
    """
    return ranking_from_scores(aggregate_scores(model, q))


def save_linear(model: LinearModel, path: str | Path) -> None:
    """Versioned plain-text serialization; floats render shortest-roundtrip."""
    lines = [
        f"format: {MODEL_FORMAT}",
        f"k: {model.k}",
        f"gain: {gain_spec(model.gain)}",
        f"mu: {model.hyper.mu!r}",
        f"lam: {model.hyper.lam!r}",
        f"epochs: {model.hyper.epochs}",
        "w: " + " ".join(repr(v) for v in model.weights.w.tolist()),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextlib.contextmanager
def _model_file_errors(path: str | Path) -> Iterator[None]:
    """Report a missing key or a bad value in a model file as a DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:  # includes UnicodeDecodeError
        raise DataError(f"{path}: {exc}") from None


def _read_model_fields(path: str | Path, model_format: str) -> dict[str, str]:
    """``key: value`` fields of a model file that declares ``model_format``."""
    fields: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed model line {line!r}")
        fields[key.strip()] = value.strip()
    if fields.get("format") != model_format:
        raise ValueError(f"not a {model_format} model file")
    return fields


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()], dtype=np.float64)


def load_linear(path: str | Path) -> LinearModel:
    """Read a model file; any malformed content raises DataError."""
    with _model_file_errors(path):
        fields = _read_model_fields(path, MODEL_FORMAT)
        k = int(fields["k"])
        gain = gain_from_spec(fields["gain"])
        hyper = LinearHyper(mu=float(fields["mu"]), lam=float(fields["lam"]),
                            epochs=int(fields["epochs"]))
        w = _parse_floats(fields["w"])
        if w.size != k:
            raise ValueError(f"expected {k} weights, found {w.size}")
        return LinearModel(SimplexWeights(w), gain, hyper)
