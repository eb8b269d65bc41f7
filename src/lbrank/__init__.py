"""Unsupervised rank aggregation of score-based permutations.

Combines K per-query score lists into one consensus ranking with
simplex-constrained weights learned from a Lovász-Bregman divergence
objective, either with a single linear layer or a nested two-layer
structure. Weights train by Metropolis-Hastings-sampled stochastic
gradients and multiplicative simplex updates; inference is closed form
(sort the aggregated scores).
"""

from .core import (
    ConcaveGain,
    QueryInstance,
    SimplexWeights,
    gain_from_spec,
    gain_spec,
    linear_gain,
    log2_gain,
    ranking_from_scores,
    sigmoid_gain,
    weighted_average_scores,
)
from .io import Dataset, DataError, parse_letor, parse_scores_csv, synth_planted
from .linear import LinearHyper, LinearModel, load_linear, save_linear
from .lovasz import lb_bound, lb_divergence
from .metrics import baseline_average, baseline_borda, ndcg_at_k
from .nested import Activation, NestedHyper, NestedModel, load_nested, save_nested
from .sampler import ChainConfig, EnergyContext, chain_seed, expected_divergences

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConcaveGain", "QueryInstance", "SimplexWeights",
    "gain_from_spec", "gain_spec", "linear_gain", "log2_gain", "sigmoid_gain",
    "ranking_from_scores", "weighted_average_scores",
    "Dataset", "DataError", "parse_letor", "parse_scores_csv", "synth_planted",
    "LinearHyper", "LinearModel", "load_linear", "save_linear",
    "lb_bound", "lb_divergence",
    "baseline_average", "baseline_borda", "ndcg_at_k",
    "Activation", "NestedHyper", "NestedModel", "load_nested", "save_nested",
    "ChainConfig", "EnergyContext", "chain_seed", "expected_divergences",
]
