"""Nested two-layer aggregation with concave activations.

A hidden layer of K2 units mixes the per-ranker divergence expectations
through simplex-constrained rows of W1; an output unit mixes the activated
hidden values through simplex weights W2. Both layers train feed-forward
with the same multiplicative simplex update as the linear framework: the
hidden layer updates first, then its refreshed activations drive the output
layer update. Each query's chain samples the one Gibbs law under W2 @ W1.
One hidden unit, identity activations and zero init jitter reduce it
exactly to the linear trainer.

The step functions take and return plain arrays (W1 as a K2 x K1 matrix,
W2 as a vector); training runs them in the linear trainer's epoch loop,
and a :class:`NestedModel` is built and validated at initialisation and
once more when training ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    _score_matrices,
    _simplex_rows,
    gain_from_spec,
    gain_spec,
    ranking_from_scores,
    sigmoid_gain,
)
from .io import _parse_floats, _read_model, _write_model_fields
from .linear import (
    TrainingLog,
    _check_steps,
    _queries,
    _run_epochs,
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
    "init_nested",
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


# name -> (offset, scale) of offset + scale * tanh(t/2), or None for the identity.
# logistic: sigma(t) = (1 + tanh(t/2)) / 2, which saturates instead of
# overflowing; shifted_logistic: 2 sigma(t) - 1 = tanh(t/2), zero at zero (the
# offset -0.0 keeps tanh's sign of zero)
_ACTIVATIONS = {
    "identity": None,
    "logistic": (0.5, 0.5),
    "shifted_logistic": (-0.0, 1.0),
}

ACTIVATION_NAMES = tuple(sorted(_ACTIVATIONS))


@dataclass(frozen=True)
class Activation:
    """Named increasing scalar function ``offset + scale * tanh(t/2)``, or the identity.

    In training every input is non-negative (divergence expectations and
    their convex combinations), where every registered choice is concave.
    Inference applies phi1 to weighted raw scores, which may be negative;
    there only monotonicity matters (phi2 never changes a ranking).
    ``shifted_logistic`` maps zero divergence to zero activation and is the
    default.
    """

    name: str = "shifted_logistic"

    def __post_init__(self) -> None:
        if self.name not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.name!r}; "
                             f"expected one of {ACTIVATION_NAMES}")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if (form := _ACTIVATIONS[self.name]) is None:
            return t + 0.0
        offset, scale = form
        return offset + scale * np.tanh(0.5 * t)

    def deriv(self, t):
        t = np.asarray(t, dtype=np.float64)
        if (form := _ACTIVATIONS[self.name]) is None:
            return np.ones_like(t)
        h = np.tanh(0.5 * t)
        return 0.5 * form[1] * (1.0 - h * h)


@dataclass(frozen=True)
class NestedHyper:
    """Hyperparameters of the two-layer trainer."""

    mu: float = 0.1
    lam1: float = 0.01
    lam2: float = 0.01
    epochs: int = 20
    k2: int | None = None
    init_jitter: float = 0.01

    def __post_init__(self) -> None:
        _check_steps(self, "lam1", "lam2")
        if self.k2 is not None and self.k2 < 1:
            raise ValueError("k2 must be >= 1")
        if not 0.0 <= self.init_jitter < 1.0:
            raise ValueError("init_jitter must be in [0, 1)")

    def hidden_units(self, k1: int) -> int:
        """K2 for K1 score lists: ``k2``, or max(10, 2 K1) capped at 64 if it is None."""
        return min(64, max(10, 2 * k1)) if self.k2 is None else self.k2


@dataclass(frozen=True, eq=False)
class NestedModel:
    w1: np.ndarray
    w2: SimplexWeights
    gain: ConcaveGain
    phi1: Activation = field(default_factory=Activation)
    phi2: Activation = field(default_factory=Activation)
    hyper: NestedHyper = field(default_factory=NestedHyper)

    def __post_init__(self) -> None:
        arr = np.array(self.w1, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("W1 must be a K2 x K1 matrix")
        if self.w2.k != arr.shape[0]:
            raise ValueError("W2 length must equal the number of W1 rows")
        object.__setattr__(self, "w1", _simplex_rows(arr, "every W1 row"))

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
                hyper: NestedHyper,
                gain: ConcaveGain,
                phi1: Activation | None = None,
                phi2: Activation | None = None,
                seed: int = 0) -> NestedModel:
    """Near-uniform initialization with seeded jitter to break symmetry.

    Exactly uniform rows would make all hidden units identical forever, so
    each row gets +/- ``init_jitter`` relative noise and is renormalized.
    With ``init_jitter`` 0 the weights are exactly uniform.
    """
    k2 = hyper.hidden_units(k1)
    rng = np.random.default_rng(chain_seed(seed, "nested-init"))
    w1 = np.stack([_jittered_simplex(rng, k1, hyper.init_jitter) for _ in range(k2)])
    w2 = SimplexWeights(_jittered_simplex(rng, k2, hyper.init_jitter))
    return NestedModel(w1, w2, gain, phi1 or Activation(), phi2 or Activation(), hyper)


def per_list_expectation(w1: np.ndarray, w2: np.ndarray, gain: ConcaveGain,
                         sampling: str, q: QueryInstance, cfg: ChainConfig,
                         backend: str = "mh") -> np.ndarray:
    """K2 x K1 table of expected divergences; row i feeds hidden unit i.

    One chain samples the law under the weights W2 @ W1, and every row
    holds its estimate. ``sampling`` must be ``"aggregate"``, the one law.
    """
    if sampling != "aggregate":
        raise ValueError(f"sampling must be 'aggregate', got {sampling!r}")
    ctx = EnergyContext.from_query(q, w2 @ w1, gain)
    table = np.empty(w1.shape, dtype=np.float64)
    table[:] = expected_divergences(ctx, query_config(q, cfg), backend)
    return table


def hidden_preactivation(w1: np.ndarray, div_means: np.ndarray) -> np.ndarray:
    """delta1(i) = sum_j W1(i, j) E[d(x_j || pi)], one value per hidden unit."""
    div_means = np.asarray(div_means, dtype=np.float64)
    if div_means.shape != w1.shape:
        raise ValueError("divergence table shape does not match W1")
    return np.einsum("ij,ij->i", w1, div_means)


def bottom_gradient(w1: np.ndarray, phi1: Activation, lam1: float,
                    div_means: np.ndarray, delta1: np.ndarray) -> np.ndarray:
    """grad1(i, j) = phi1'(delta1(i)) E[d(x_j || pi)] + lam1 W1(i, j)."""
    div_means = np.asarray(div_means, dtype=np.float64)
    slopes = phi1.deriv(delta1)
    return slopes[:, np.newaxis] * div_means + lam1 * w1


def output_preactivation(w2: np.ndarray, phi1: Activation,
                         delta1_next: np.ndarray) -> float:
    """delta2 = sum_i W2(i) phi1(delta1(i)), the activated hidden mix."""
    return float(w2 @ phi1(delta1_next))


def top_gradient(w2: np.ndarray, phi1: Activation, phi2: Activation, lam2: float,
                 delta2: float, delta1_next: np.ndarray) -> np.ndarray:
    """grad2(i) = phi2'(delta2) phi1(delta1(i)) + lam2 W2(i)."""
    return float(phi2.deriv(delta2)) * phi1(delta1_next) + lam2 * w2


# the row-wise hidden-layer and the output-layer updates, each under its own
# name so it can be traced
update_w1 = update_w2 = multiplicative_simplex_update


def objective(w1: np.ndarray, w2: np.ndarray, gain: ConcaveGain, phi1: Activation,
              phi2: Activation, hyper: NestedHyper, data: Iterable[QueryInstance],
              cfg: ChainConfig, backend: str = "mh") -> float:
    """Sampled two-layer objective plus both Frobenius penalties."""
    queries = _queries(data)
    total = 0.0
    for q in queries:
        table = per_list_expectation(w1, w2, gain, "aggregate", q, cfg, backend)
        delta1 = hidden_preactivation(w1, table)
        total += float(phi2(output_preactivation(w2, phi1, delta1)))
    reg1 = 0.5 * hyper.lam1 * float(np.sum(w1 * w1))
    reg2 = 0.5 * hyper.lam2 * float(w2 @ w2)
    return total / len(queries) + reg1 + reg2


def train(data,
          hyper: NestedHyper | None = None,
          cfg: ChainConfig | None = None,
          gain: ConcaveGain | None = None,
          phi1: Activation | None = None,
          phi2: Activation | None = None,
          backend: str = "mh") -> tuple[NestedModel, TrainingLog]:
    """Feed-forward training pass over both layers.

    Per query: estimate the divergence table once, update every W1 row, then
    recompute the hidden preactivations with the fresh W1 and update W2.
    Stops after the epoch budget or when no weight in either layer moved
    more than ``EARLY_STOP_TOL`` across a full pass. W1 and W2 are plain
    arrays between the validated initial model and the final one; each
    snapshot is a ``(W1, W2)`` pair of arrays.
    """
    queries = _queries(data)
    hyper = hyper or NestedHyper()
    cfg = cfg or ChainConfig()
    if gain is None:
        gain = sigmoid_gain(max(q.n for q in queries))
    model = init_nested(queries[0].k, hyper, gain, phi1, phi2, seed=cfg.rng_seed)
    phi1, phi2 = model.phi1, model.phi2

    def step(q, w1, w2):
        table = per_list_expectation(w1, w2, gain, "aggregate", q, cfg, backend)
        delta1 = hidden_preactivation(w1, table)
        w1 = update_w1(w1, bottom_gradient(w1, phi1, hyper.lam1, table, delta1), hyper.mu)
        delta1_next = hidden_preactivation(w1, table)
        delta2 = output_preactivation(w2, phi1, delta1_next)
        w2 = update_w2(w2, top_gradient(w2, phi1, phi2, hyper.lam2, delta2, delta1_next),
                       hyper.mu)
        return w1, w2

    (w1, w2), log = _run_epochs(
        queries, (model.w1, model.w2.w), step,
        lambda w1, w2: objective(w1, w2, gain, phi1, phi2, hyper, queries, cfg, backend),
        hyper.epochs)
    return NestedModel(w1, SimplexWeights(w2), gain, phi1, phi2, hyper), log


def aggregate_scores(model: NestedModel, x: np.ndarray) -> np.ndarray:
    """Per-candidate aggregated scores phi2(W2 @ phi1(W1 @ X)) of a (..., K, N) score array.

    A (Q, K, N) block gives (Q, N) scores, item j bit for bit those of
    matrix j alone.
    """
    x = _score_matrices(x)
    if x.shape[-2] != model.k1:
        raise ValueError(f"query has K={x.shape[-2]}, model has K1={model.k1}")
    hidden = model.phi1(model.w1 @ x)
    return model.phi2(model.w2.w @ hidden)


def infer(model: NestedModel, q: QueryInstance) -> np.ndarray:
    """Sort the nested aggregate scores descending.

    The outer activation is increasing, so it never changes the argsort;
    it is applied anyway to keep the emitted scores on the documented scale.
    """
    return ranking_from_scores(aggregate_scores(model, q.matrix))


def save_nested(model: NestedModel, path: str | Path) -> None:
    hyper = model.hyper
    _write_model_fields(path, MODEL_FORMAT, [
        ("k1", model.k1), ("k2", model.k2), ("gain", gain_spec(model.gain)),
        ("phi1", model.phi1.name), ("phi2", model.phi2.name), ("mu", hyper.mu),
        ("lam1", hyper.lam1), ("lam2", hyper.lam2), ("epochs", hyper.epochs),
        ("init_jitter", hyper.init_jitter), ("sampling", "aggregate"),
        ("w2", model.w2.w), *((f"w1[{i}]", row) for i, row in enumerate(model.w1))])


def load_nested(path: str | Path) -> NestedModel:
    """Read a model file; any malformed content raises DataError."""
    def build(fields: dict[str, str]) -> NestedModel:
        if (sampling := fields.pop("sampling")) != "aggregate":
            raise ValueError(f"sampling {sampling!r}: only 'aggregate' is read "
                             "(a per_unit model must be retrained)")
        k1, k2 = int(fields.pop("k1")), int(fields.pop("k2"))
        hyper = NestedHyper(mu=float(fields.pop("mu")), lam1=float(fields.pop("lam1")),
                            lam2=float(fields.pop("lam2")), epochs=int(fields.pop("epochs")),
                            k2=k2, init_jitter=float(fields.pop("init_jitter")))
        w2 = _parse_floats(fields.pop("w2"), k2, "w2")
        w1 = [_parse_floats(fields.pop(f"w1[{i}]"), k1, f"w1[{i}]") for i in range(k2)]
        return NestedModel(np.stack(w1), SimplexWeights(w2), gain_from_spec(fields.pop("gain")),
                           Activation(fields.pop("phi1")), Activation(fields.pop("phi2")), hyper)
    return _read_model(path, MODEL_FORMAT, build)
