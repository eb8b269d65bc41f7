"""Nested two-layer aggregation with concave activations.

A hidden layer of K2 units mixes the per-ranker divergence expectations
through simplex-constrained rows of W1; an output unit mixes the activated
hidden values through simplex weights W2. Both layers train feed-forward
with the same multiplicative simplex update as the linear framework: the
hidden layer updates first, then its refreshed activations drive the output
layer update. With one hidden unit and identity activations the procedure
reduces exactly to the linear trainer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

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
)
from .linear import (
    EARLY_STOP_TOL,
    TrainingLog,
    _model_file_errors,
    _parse_floats,
    _queries,
    _read_model_fields,
    multiplicative_simplex_update,
)
from .sampler import (
    ChainConfig,
    EnergyContext,
    chain_seed,
    expected_divergences,
    query_config,
)

__all__ = [
    "Activation",
    "ACTIVATION_NAMES",
    "NestedHyper",
    "NestedModel",
    "default_hidden_units",
    "init_nested",
    "aggregate_weights",
    "per_list_expectation",
    "hidden_preactivation",
    "bottom_gradient",
    "update_w1",
    "output_preactivation",
    "top_gradient",
    "update_w2",
    "objective",
    "train",
    "aggregate_scores",
    "infer",
    "save_nested",
    "load_nested",
]

MODEL_FORMAT = "lbrank-nested/1"

SAMPLING_MODES = ("aggregate", "per_unit")


def _identity(t):
    return np.asarray(t, dtype=np.float64) + 0.0


def _identity_deriv(t):
    return np.ones_like(np.asarray(t, dtype=np.float64))


def _half_tanh(t):
    return np.tanh(0.5 * np.asarray(t, dtype=np.float64))


def _logistic(t):
    # sigma(t) = (1 + tanh(t/2)) / 2; tanh saturates instead of overflowing
    return 0.5 + 0.5 * _half_tanh(t)


def _logistic_deriv(t):
    h = _half_tanh(t)
    return 0.25 * (1.0 - h * h)


def _shifted_logistic(t):
    # 2 sigma(t) - 1 = tanh(t/2); increasing, concave for t >= 0, zero at zero
    return _half_tanh(t)


def _shifted_logistic_deriv(t):
    h = _half_tanh(t)
    return 0.5 * (1.0 - h * h)


_ACTIVATIONS = {
    "identity": (_identity, _identity_deriv),
    "logistic": (_logistic, _logistic_deriv),
    "shifted_logistic": (_shifted_logistic, _shifted_logistic_deriv),
}

ACTIVATION_NAMES = tuple(sorted(_ACTIVATIONS))


@dataclass(frozen=True)
class Activation:
    """Named increasing scalar function with an available derivative.

    All activation inputs in this package are non-negative (divergence
    expectations and their convex combinations), where every registered
    choice is concave. ``shifted_logistic`` maps zero divergence to zero
    activation and is the default.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.name!r}; "
                             f"expected one of {ACTIVATION_NAMES}")

    def __call__(self, t):
        return _ACTIVATIONS[self.name][0](t)

    def deriv(self, t):
        return _ACTIVATIONS[self.name][1](t)


def default_hidden_units(k1: int) -> int:
    """Default hidden layer width: max(10, 2 K1), capped at 64."""
    return min(64, max(10, 2 * k1))


@dataclass(frozen=True)
class NestedHyper:
    """Hyperparameters of the two-layer trainer."""

    mu: float = 0.1
    lam1: float = 0.01
    lam2: float = 0.01
    epochs: int = 20
    k2: int | None = None
    init_jitter: float = 0.01
    sampling: str = "aggregate"

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError("learning rate mu must be > 0")
        if self.lam1 < 0.0 or self.lam2 < 0.0:
            raise ValueError("regularization terms must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.k2 is not None and self.k2 < 1:
            raise ValueError("k2 must be >= 1")
        if not 0.0 <= self.init_jitter < 1.0:
            raise ValueError("init_jitter must be in [0, 1)")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")


def _validated_rows(w1) -> np.ndarray:
    arr = np.array(w1, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("W1 must be a K2 x K1 matrix")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("W1 entries must be finite and non-negative")
    row_err = np.abs(arr.sum(axis=1) - 1.0)
    if np.any(row_err > 1e-9):
        raise ValueError("every W1 row must sum to 1 within 1e-9")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NestedModel:
    w1: np.ndarray
    w2: SimplexWeights
    gain: ConcaveGain
    phi1: Activation = field(default_factory=lambda: Activation("shifted_logistic"))
    phi2: Activation = field(default_factory=lambda: Activation("shifted_logistic"))
    hyper: NestedHyper = field(default_factory=NestedHyper)

    def __post_init__(self) -> None:
        arr = _validated_rows(self.w1)
        if self.w2.k != arr.shape[0]:
            raise ValueError("W2 length must equal the number of W1 rows")
        object.__setattr__(self, "w1", arr)

    @property
    def k1(self) -> int:
        return int(self.w1.shape[1])

    @property
    def k2(self) -> int:
        return int(self.w1.shape[0])


def _jittered_simplex(rng: np.random.Generator, size: int, jitter: float) -> np.ndarray:
    base = np.full(size, 1.0 / size)
    if jitter == 0.0 or size == 1:
        return base
    w = base * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=size))
    return w / w.sum()


def init_nested(k1: int,
                hyper: NestedHyper | None = None,
                gain: ConcaveGain | None = None,
                phi1: Activation | None = None,
                phi2: Activation | None = None,
                seed: int = 0,
                gain_capacity: int | None = None) -> NestedModel:
    """Near-uniform initialization with seeded jitter to break symmetry.

    Exactly uniform rows would make all hidden units identical forever, so
    each row gets +/- ``init_jitter`` relative noise and is renormalized.
    With ``init_jitter`` 0 the weights are exactly uniform.
    """
    hyper = hyper or NestedHyper()
    k2 = hyper.k2 if hyper.k2 is not None else default_hidden_units(k1)
    if gain is None:
        if gain_capacity is None:
            raise ValueError("init_nested needs a gain or a gain capacity")
        gain = sigmoid_gain(gain_capacity)
    rng = np.random.default_rng(chain_seed(seed, "nested-init"))
    w1 = np.stack([_jittered_simplex(rng, k1, hyper.init_jitter) for _ in range(k2)])
    w2 = SimplexWeights(_jittered_simplex(rng, k2, hyper.init_jitter))
    return NestedModel(w1, w2, gain,
                       phi1 or Activation("shifted_logistic"),
                       phi2 or Activation("shifted_logistic"),
                       hyper)


def aggregate_weights(model: NestedModel) -> np.ndarray:
    """Effective per-ranker weights W2 @ W1; a convex mix of simplex rows."""
    return model.w2.w @ model.w1


def per_list_expectation(model: NestedModel, q: QueryInstance,
                         cfg: ChainConfig, backend: str = "mh") -> np.ndarray:
    """K2 x K1 table of expected divergences; row i feeds hidden unit i.

    In ``aggregate`` mode one chain per query is drawn under the aggregate
    weights W2 @ W1 and all rows share its estimates. In ``per_unit`` mode
    each hidden unit runs its own chain under its W1 row (K2 chains per
    query, seeded per unit).
    """
    if q.k != model.k1:
        raise ValueError(f"query has K={q.k}, model has K1={model.k1}")
    rows = np.empty((model.k2, model.k1), dtype=np.float64)
    if model.hyper.sampling == "aggregate":
        ctx = EnergyContext.from_query(q, aggregate_weights(model), model.gain)
        rows[:] = expected_divergences(ctx, query_config(q, cfg), backend)
        return rows
    for i in range(model.k2):
        ctx = EnergyContext.from_query(q, model.w1[i], model.gain)
        rows[i] = expected_divergences(ctx, query_config(q, cfg, i), backend)
    return rows


def hidden_preactivation(model: NestedModel, div_means: np.ndarray) -> np.ndarray:
    """delta1(i) = sum_j W1(i, j) E[d(x_j || pi)], one value per hidden unit."""
    div_means = np.asarray(div_means, dtype=np.float64)
    if div_means.shape != model.w1.shape:
        raise ValueError("divergence table shape does not match W1")
    return np.einsum("ij,ij->i", model.w1, div_means)


def bottom_gradient(model: NestedModel, div_means: np.ndarray,
                    delta1: np.ndarray) -> np.ndarray:
    """grad1(i, j) = phi1'(delta1(i)) E[d(x_j || pi)] + lam1 W1(i, j)."""
    div_means = np.asarray(div_means, dtype=np.float64)
    slopes = model.phi1.deriv(np.asarray(delta1, dtype=np.float64))
    return slopes[:, np.newaxis] * div_means + model.hyper.lam1 * model.w1


def update_w1(model: NestedModel, grad1: np.ndarray) -> NestedModel:
    """Row-wise multiplicative simplex update of the hidden layer."""
    grad1 = np.asarray(grad1, dtype=np.float64)
    if grad1.shape != model.w1.shape:
        raise ValueError("gradient shape does not match W1")
    return replace(model, w1=multiplicative_simplex_update(model.w1, grad1, model.hyper.mu))


def output_preactivation(model: NestedModel, delta1_next: np.ndarray) -> float:
    """delta2 = sum_i W2(i) phi1(delta1(i)), the activated hidden mix."""
    activated = model.phi1(np.asarray(delta1_next, dtype=np.float64))
    return float(model.w2.w @ activated)


def top_gradient(model: NestedModel, delta2: float,
                 delta1_next: np.ndarray) -> np.ndarray:
    """grad2(i) = phi2'(delta2) phi1(delta1(i)) + lam2 W2(i)."""
    activated = model.phi1(np.asarray(delta1_next, dtype=np.float64))
    slope = float(model.phi2.deriv(delta2))
    return slope * activated + model.hyper.lam2 * model.w2.w


def update_w2(model: NestedModel, grad2: np.ndarray) -> NestedModel:
    """Multiplicative simplex update of the output layer.

    The new model shares the old one's W1 array: it was validated when it
    entered a model and the update leaves it unchanged, so it is neither
    copied nor checked again.
    """
    new_w2 = multiplicative_simplex_update(model.w2.w, np.asarray(grad2, float),
                                           model.hyper.mu)
    updated = copy.copy(model)  # skips __post_init__ and its W1 copy
    object.__setattr__(updated, "w2", SimplexWeights(new_w2))
    return updated


def objective(model: NestedModel, data: Iterable[QueryInstance],
              cfg: ChainConfig, backend: str = "mh") -> float:
    """Sampled two-layer objective plus both Frobenius penalties."""
    queries = _queries(data)
    total = 0.0
    for q in queries:
        table = per_list_expectation(model, q, cfg, backend)
        delta1 = hidden_preactivation(model, table)
        total += float(model.phi2(output_preactivation(model, delta1)))
    reg1 = 0.5 * model.hyper.lam1 * float(np.sum(model.w1 * model.w1))
    reg2 = 0.5 * model.hyper.lam2 * float(model.w2.w @ model.w2.w)
    return total / len(queries) + reg1 + reg2


def train(data,
          hyper: NestedHyper | None = None,
          cfg: ChainConfig | None = None,
          gain: ConcaveGain | None = None,
          phi1: Activation | None = None,
          phi2: Activation | None = None,
          backend: str = "mh",
          shuffle: bool = False) -> tuple[NestedModel, TrainingLog]:
    """Feed-forward training pass over both layers.

    Per query: estimate the divergence table once, update every W1 row, then
    recompute the hidden preactivations with the fresh W1 and update W2.
    Stops after the epoch budget or when no weight in either layer moved
    more than ``EARLY_STOP_TOL`` across a full pass.
    """
    queries = _queries(data)
    hyper = hyper or NestedHyper()
    cfg = cfg or ChainConfig()
    if gain is None:
        gain = sigmoid_gain(max(q.n for q in queries))
    model = init_nested(queries[0].k, hyper, gain, phi1, phi2, seed=cfg.rng_seed)
    log = TrainingLog()
    for epoch in range(hyper.epochs):
        w1_before = model.w1
        w2_before = model.w2.w
        order = list(range(len(queries)))
        if shuffle:
            rng = np.random.default_rng(chain_seed(cfg.rng_seed, f"shuffle-epoch-{epoch}"))
            order = rng.permutation(len(queries)).tolist()
        for qi in order:
            q = queries[qi]
            table = per_list_expectation(model, q, cfg, backend)
            delta1 = hidden_preactivation(model, table)
            model = update_w1(model, bottom_gradient(model, table, delta1))
            delta1_next = hidden_preactivation(model, table)
            delta2 = output_preactivation(model, delta1_next)
            model = update_w2(model, top_gradient(model, delta2, delta1_next))
        log.objectives.append(objective(model, queries, cfg, backend))
        log.snapshots.append((model.w1.copy(), model.w2.w.copy()))
        log.epochs_run = epoch + 1
        moved = max(float(np.max(np.abs(model.w1 - w1_before))),
                    float(np.max(np.abs(model.w2.w - w2_before))))
        if moved < EARLY_STOP_TOL:
            log.converged = True
            break
    return model, log


def aggregate_scores(model: NestedModel, q: QueryInstance) -> np.ndarray:
    """Per-candidate aggregated scores phi2(W2 @ phi1(W1 @ X))."""
    if q.k != model.k1:
        raise ValueError(f"query has K={q.k}, model has K1={model.k1}")
    hidden = model.phi1(model.w1 @ q.matrix)
    return model.phi2(model.w2.w @ hidden)


def infer(model: NestedModel, q: QueryInstance) -> Ranking:
    """Sort the nested aggregate scores descending.

    The outer activation is increasing, so it never changes the argsort;
    it is applied anyway to keep the emitted scores on the documented scale.
    """
    return ranking_from_scores(aggregate_scores(model, q))


def save_nested(model: NestedModel, path: str | Path) -> None:
    lines = [
        f"format: {MODEL_FORMAT}",
        f"k1: {model.k1}",
        f"k2: {model.k2}",
        f"gain: {gain_spec(model.gain)}",
        f"phi1: {model.phi1.name}",
        f"phi2: {model.phi2.name}",
        f"mu: {model.hyper.mu!r}",
        f"lam1: {model.hyper.lam1!r}",
        f"lam2: {model.hyper.lam2!r}",
        f"epochs: {model.hyper.epochs}",
        f"init_jitter: {model.hyper.init_jitter!r}",
        f"sampling: {model.hyper.sampling}",
        "w2: " + " ".join(repr(v) for v in model.w2.w.tolist()),
    ]
    for i in range(model.k2):
        lines.append(f"w1[{i}]: " + " ".join(repr(v) for v in model.w1[i].tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_nested(path: str | Path) -> NestedModel:
    """Read a model file; any malformed content raises DataError."""
    with _model_file_errors(path):
        fields = _read_model_fields(path, MODEL_FORMAT)
        k1 = int(fields["k1"])
        k2 = int(fields["k2"])
        hyper = NestedHyper(mu=float(fields["mu"]), lam1=float(fields["lam1"]),
                            lam2=float(fields["lam2"]), epochs=int(fields["epochs"]),
                            k2=k2, init_jitter=float(fields["init_jitter"]),
                            sampling=fields["sampling"])
        w2 = _parse_floats(fields["w2"])
        if w2.size != k2:
            raise ValueError(f"expected {k2} W2 weights, found {w2.size}")
        rows = [_parse_floats(fields[f"w1[{i}]"]) for i in range(k2)]
        for i, row in enumerate(rows):
            if row.size != k1:
                raise ValueError(f"W1 row {i} has {row.size} entries, expected {k1}")
        return NestedModel(np.stack(rows), SimplexWeights(w2), gain_from_spec(fields["gain"]),
                           Activation(fields["phi1"]), Activation(fields["phi2"]), hyper)
