"""Batch command-line front end: train, infer, eval, synth, bench.

Configuration comes from flat ``key = value`` files with ``#`` comments;
every key a command reads can be overridden by the matching ``--key`` flag
(flags win over the file, the file wins over built-in defaults). A command
accepts only the flags it reads, plus ``--seed``, and takes no abbreviated
flag. All randomness flows from one 64-bit seed; each query's chain seed
is derived as ``seed XOR FNV-1a(query_id)``, so outputs are byte-identical
across reruns. Every command runs in one thread; ``train``, ``infer`` and
``eval`` also accept ``--threads``, which has no effect (the benchmark
passes it to those three).

Data and model files are recognised by the rules in ``io`` that read them.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import io as dataio
from . import linear, metrics, nested
from .core import (
    ConcaveGain,
    SimplexWeights,
    _increments,
    gain_from_spec,
    ranking_from_scores,
    weighted_average_scores,
)
from .io import (
    Block,
    DataError,
    Dataset,
    _is_scores_csv,
    _model_fields,
    _write_rankings_csv,
    _write_training_log,
)
from .linear import LinearHyper
from .nested import Activation, NestedHyper
from .sampler import BACKENDS, MAX_ENUMERATION_N, ChainConfig

__all__ = ["main", "ConfigError", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_INTERNAL"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """Invalid configuration value or combination."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# key -> (converter from string, default). New keys are added here once and
# become available both in config files and as --key flags. A value the
# library reads takes its default from the library type that reads it, and
# that type's constructor checks it (see build_config).
_SCHEMA: dict[str, tuple[Callable[[str], object], object]] = {
    "seed": (int, ChainConfig.rng_seed),
    "threads": (int, 1),
    "model": (str, "linear"),
    "data": (str, None),
    "out": (str, None),
    "model_file": (str, None),
    "gain": (str, "sigmoid"),
    "phi": (str, Activation.name),
    "mu": (float, LinearHyper.mu),
    "lam": (float, LinearHyper.lam),
    "lam1": (float, NestedHyper.lam1),
    "lam2": (float, NestedHyper.lam2),
    "epochs": (int, LinearHyper.epochs),
    "samples": (int, ChainConfig.num_samples),
    "burn_in": (int, ChainConfig.burn_in),
    "thinning": (int, ChainConfig.thinning),
    "k2": (int, NestedHyper.k2),
    "init_jitter": (float, NestedHyper.init_jitter),
    "sampling": (str, NestedHyper.sampling),
    "backend": (str, "mh"),
    "normalize": (_parse_bool, False),
    "strict": (_parse_bool, True),
    "shuffle": (_parse_bool, False),
    "topk": (int, 10),
    "n_queries": (int, 100),
    "n_candidates": (int, 10),
    "n_rankers": (int, 5),
    "noise_levels": (_parse_floats, None),
    "bench_axes": (str, "n,k,k1k2"),
    "bench_doublings": (int, 3),
    "bench_queries": (int, 8),
    "bench_base_n": (int, 32),
    "bench_base_k": (int, 4),
    "bench_repeats": (int, 3),
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` pairs, each key once; blank lines and ``#`` comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path} line {lineno}: expected key = value")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path} line {lineno}: key {key!r} was already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        pairs[key] = value.strip()
    return pairs


def _require(cfg: argparse.Namespace, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults, config file and explicit flags; build the library objects.

    Returns a copy of ``args`` holding every ``_SCHEMA`` key plus ``chain``
    (:class:`ChainConfig`), ``linear_hyper``, ``nested_hyper``, ``activation``
    and the parsed ``bench_axes`` list. Each value the library reads is
    checked by the constructor that takes it, whose ``ValueError`` becomes a
    :class:`ConfigError`; the values only the CLI reads are checked here.
    """
    merged = {key: default for key, (_, default) in _SCHEMA.items()}
    if getattr(args, "config", None):
        for key, text in parse_config_file(args.config).items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = _SCHEMA[key][0](text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
    for key in _SCHEMA:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    cfg = argparse.Namespace(**{**vars(args), **merged})

    try:
        cfg.chain = ChainConfig(num_samples=cfg.samples, burn_in=cfg.burn_in,
                                thinning=cfg.thinning, rng_seed=cfg.seed)
        cfg.linear_hyper = LinearHyper(mu=cfg.mu, lam=cfg.lam, epochs=cfg.epochs)
        cfg.nested_hyper = NestedHyper(mu=cfg.mu, lam1=cfg.lam1, lam2=cfg.lam2,
                                       epochs=cfg.epochs, k2=cfg.k2,
                                       init_jitter=cfg.init_jitter, sampling=cfg.sampling)
        cfg.activation = Activation(cfg.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        gain_from_spec(cfg.gain, capacity=1)
    except ValueError as exc:
        raise ConfigError(f"gain: {exc}") from None

    for key, low in (("threads", 1), ("topk", 1), ("bench_queries", 1), ("bench_base_n", 1),
                     ("bench_base_k", 1), ("bench_repeats", 1), ("bench_doublings", 0)):
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be >= {low}")
    if cfg.model not in ("linear", "nested"):
        raise ConfigError("model must be linear or nested")
    if cfg.backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}")
    cfg.bench_axes = [a.strip() for a in cfg.bench_axes.split(",") if a.strip()]
    if not cfg.bench_axes or not set(cfg.bench_axes) <= {"n", "k", "k1k2"}:
        raise ConfigError("bench_axes must be a comma-separated list of n, k and k1k2")
    return cfg


def _load_dataset(cfg: argparse.Namespace) -> Dataset:
    path = Path(cfg.data)
    dataset = (dataio.parse_scores_csv(path, strict=cfg.strict) if _is_scores_csv(path)
               else dataio.parse_letor(path, strict=cfg.strict))
    if cfg.normalize:
        dataset = Dataset(tuple(dataio.normalize_minmax(q) for q in dataset.queries),
                          dataset.provenance + " (minmax-normalized)")
    return dataset


def _gain_covering(cfg: argparse.Namespace, dataset: Dataset, positions: int) -> ConcaveGain:
    """The configured gain; its capacity defaults to N_max and must cover ``positions``."""
    try:
        gain = gain_from_spec(cfg.gain, capacity=dataset.n_max)
        _increments(gain, positions, f"gain {cfg.gain!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return gain


_SCORES_OVERFLOW = ("the {} scores overflow a double; rescale the lists, e.g. with "
                    "--normalize true")


def _finite_per_query(dataset: Dataset, value_of: Callable[[Block], np.ndarray],
                      overflow: str) -> list[np.ndarray]:
    """``value_of(block)`` of each of the dataset's blocks, whose leading axis runs over its queries.

    The first query, in file order, with a value that is not finite is a
    DataError naming it.
    """
    with np.errstate(over="ignore"):
        values = [value_of(block) for block in dataset.blocks]
    if not np.isfinite(np.concatenate(values, axis=None)).all():
        bad = [block.index[~np.isfinite(v).reshape(v.shape[0], -1).all(axis=1)]
               for block, v in zip(dataset.blocks, values)]
        raise DataError(f"query {dataset.queries[np.concatenate(bad).min()].query_id!r}: "
                        f"{overflow}")
    return values


def _check_training_range(cfg: argparse.Namespace, k: int, divergence: float) -> None:
    """Refuse hyperparameters whose update step or objective overflows a double.

    ``divergence`` bounds every expected divergence, and for nested max(it, 1)
    bounds every activation; a gradient entry is at most that plus the largest
    L2 weight, and the penalty is at most ½·lam, or ½·lam1·K2 + ½·lam2.
    """
    if cfg.model == "linear":
        flags, lams, penalty = "--lam", [cfg.lam], 0.5 * cfg.lam
    else:
        k2 = cfg.nested_hyper.hidden_units(k)
        flags, lams = f"--lam1 and --lam2 (K2 = {k2})", [cfg.lam1, cfg.lam2]
        divergence, penalty = max(divergence, 1.0), 0.5 * cfg.lam1 * k2 + 0.5 * cfg.lam2
    for bound, what in ((cfg.mu * (divergence + max(lams)), "--mu times the largest gradient"),
                        (divergence + penalty, "the training objective")):
        if not np.isfinite(bound):
            raise ConfigError(f"{what}, from the score spans and {flags}, overflows a double")


def cmd_train(cfg: argparse.Namespace) -> int:
    _require(cfg, "data", "out")
    dataset = _load_dataset(cfg)
    gain = _gain_covering(cfg, dataset, dataset.n_max)
    # a list's largest divergence is its score span times g(N)
    divergence = float(max(v.max() for v in _finite_per_query(
        dataset, lambda b: np.ptp(b.scores, axis=-1).max(axis=-1)
        * _increments(gain, b.scores.shape[-1]).sum(),
        "its score spans overflow a double in training; rescale them, e.g. with "
        "--normalize true")))
    # the weighted mean score of a candidate is at most its absolute scores' sum
    _finite_per_query(
        dataset, lambda b: np.abs(b.scores).sum(axis=-2).max(axis=-1),
        "a candidate's absolute scores, summed over the lists, overflow a double, so "
        "its weighted mean score can; rescale them, e.g. with --normalize true")
    if cfg.backend == "exact" and dataset.n_max > MAX_ENUMERATION_N:
        raise ConfigError(f"backend exact enumerates all N! rankings and is limited to "
                          f"N <= {MAX_ENUMERATION_N}; the data has N = {dataset.n_max}")
    _check_training_range(cfg, dataset.k, divergence)
    out = Path(cfg.out)
    if cfg.model == "linear":
        model, log = linear.train(dataset, cfg.linear_hyper, cfg.chain, gain,
                                  backend=cfg.backend, shuffle=cfg.shuffle)
        linear.save_linear(model, out)
    else:
        model, log = nested.train(dataset, cfg.nested_hyper, cfg.chain, gain,
                                  cfg.activation, cfg.activation,
                                  backend=cfg.backend, shuffle=cfg.shuffle)
        nested.save_nested(model, out)
    _write_training_log(out.with_name(out.name + ".log"), log)
    print(f"trained {cfg.model} model on {len(dataset.queries)} queries "
          f"(K={dataset.k}); wrote {out}")
    return EXIT_OK


# A scoring function maps a block to the (Q_N, N) scores of its queries.
Scores = Callable[[Block], np.ndarray]


def _average_scores(k: int) -> Scores:
    """The averaging baseline's scoring function for queries of ``k`` lists."""
    uniform = SimplexWeights.uniform(k).w
    return lambda block: weighted_average_scores(block.scores, uniform)


def _model_scores(path: str | Path, k: int) -> Scores:
    """The scoring function of the model file at ``path``, checked to take ``k`` lists."""
    path = Path(path)
    fields = _model_fields(path)
    model_format = fields.get("format")
    if model_format == linear.MODEL_FORMAT:
        model = linear.load_linear(path, fields)
        module, model_k = linear, model.k
    elif model_format == nested.MODEL_FORMAT:
        model = nested.load_nested(path, fields)
        module, model_k = nested, model.k1
    else:
        raise DataError(f"{path}: unrecognized model format")
    if model_k != k:
        raise DataError(f"{path}: model expects K={model_k}, data has K={k}")
    return lambda block: module.aggregate_scores(model, block.scores)


def cmd_infer(cfg: argparse.Namespace) -> int:
    _require(cfg, "data", "out")
    dataset = _load_dataset(cfg)
    if cfg.baseline is None:  # argparse admits only "averaging", without --model-file
        _require(cfg, "model_file")
        method, score_fn = Path(cfg.model_file).stem, _model_scores(cfg.model_file, dataset.k)
    else:
        method, score_fn = cfg.baseline, _average_scores(dataset.k)
    scores = _finite_per_query(dataset, score_fn, _SCORES_OVERFLOW.format(method))
    # each block is ranked at once; per query, in file order: its order and its scores in it
    ranked = [None] * len(dataset.queries)
    for block, block_scores in zip(dataset.blocks, scores):
        orders = ranking_from_scores(block_scores)
        sorted_scores = np.take_along_axis(block_scores, orders, axis=-1)
        for i, order, values in zip(block.index.tolist(), orders.tolist(), sorted_scores.tolist()):
            ranked[i] = order, values
    _write_rankings_csv(cfg.out, [q.query_id for q in dataset.queries], ranked)
    print(f"wrote rankings for {len(dataset.queries)} queries to {cfg.out}")
    return EXIT_OK


def cmd_eval(cfg: argparse.Namespace) -> int:
    _require(cfg, "data", "out")
    dataset = _load_dataset(cfg)
    if not dataset.has_relevance():
        raise DataError("evaluation requires relevance judgments on every query")
    depth = min(cfg.topk, dataset.n_max)
    discount = _gain_covering(cfg, dataset, depth)
    total = _increments(discount, depth).sum()
    _finite_per_query(dataset, lambda b: b.relevance.max(axis=-1) * total,
                      f"its largest relevance grade times the gain total g({depth}) "
                      "overflows a double; rescale the grades")

    methods: dict[str, Scores] = {
        "averaging": _average_scores(dataset.k),
        "borda": lambda block: metrics.borda_points(block.scores),
    }
    # --model-file flags replace the config file's model_file
    model_paths = cfg.model_files or ([cfg.model_file] if cfg.model_file else [])
    for model_path in model_paths:
        label = Path(model_path).stem
        if label in methods:
            named = ", ".join(str(p) for p in model_paths if Path(p).stem == label)
            raise ConfigError(f"report label {label!r} would name two rows: a model "
                              f"file's label is its stem ({named}); rename the file")
        methods[label] = _model_scores(model_path, dataset.k)

    scores = [_finite_per_query(dataset, score_fn, _SCORES_OVERFLOW.format(label))
              for label, score_fn in methods.items()]
    # per block, every method's NDCG at once: one (methods, Q_N, topk) array
    tables = np.empty((len(methods), len(dataset.queries), cfg.topk))
    for block, *block_scores in zip(dataset.blocks, *scores):
        tables[:, block.index] = metrics.ndcg_table(np.stack(block_scores), block.relevance,
                                                    cfg.topk, discount)
    labels = list(methods)
    columns = [f"Top-{k}" for k in range(1, cfg.topk + 1)]
    out = Path(cfg.out)
    means = metrics.write_metric_csv(out, columns, labels,
                                     [q.query_id for q in dataset.queries], tables)
    table = metrics.format_table(columns, labels, means)
    out.with_suffix(out.suffix + ".txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def cmd_synth(cfg: argparse.Namespace) -> int:
    _require(cfg, "out")
    levels = cfg.noise_levels
    if levels is None:
        levels = [0.5 * i for i in range(cfg.n_rankers)]
    try:
        dataset = dataio.synth_planted(cfg.n_queries, cfg.n_candidates, cfg.n_rankers,
                                       levels, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dataio.write_scores_csv(dataset, cfg.out)
    print(f"wrote synthetic dataset ({cfg.n_queries} queries, N={cfg.n_candidates}, "
          f"K={cfg.n_rankers}) to {cfg.out}")
    return EXIT_OK


def _time_epoch(dataset: Dataset, chain: ChainConfig, kind: str, k2: int,
                repeats: int) -> float:
    """Best-of-``repeats`` wall time of a single training epoch."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        if kind == "linear":
            linear.train(dataset, linear.LinearHyper(epochs=1), chain)
        else:
            nested.train(dataset, nested.NestedHyper(epochs=1, k2=k2), chain)
        best = min(best, time.perf_counter() - start)
    return best


def cmd_bench(cfg: argparse.Namespace) -> int:
    _require(cfg, "out")
    growth_limit = 2.5
    flagged = 0
    with open(cfg.out, "w", encoding="utf-8") as report:
        def emit(line: str) -> None:
            print(line, file=report)
            print(line)

        emit("axis,size,seconds_per_epoch,ratio,flag")
        for axis in cfg.bench_axes:
            for step in range(cfg.bench_doublings + 1):
                scale = 2 ** step
                n = cfg.bench_base_n * (scale if axis == "n" else 1)
                k = cfg.bench_base_k * (scale if axis == "k" else 1)
                k2 = cfg.bench_base_k * (scale if axis == "k1k2" else 1)
                dataset = dataio.synth_planted(cfg.bench_queries, n, k,
                                               [0.5] * k, seed=cfg.seed)
                kind = "nested" if axis == "k1k2" else "linear"
                seconds = _time_epoch(dataset, cfg.chain, kind, k2, cfg.bench_repeats)
                size = n * k * (k2 if axis == "k1k2" else 1)
                # each doubling after the first is flagged by its unrounded ratio
                ratio = seconds / previous if step else None
                flag = "SUPER-LINEAR" if step and ratio > growth_limit else ""
                flagged += bool(flag)
                ratio_s = "" if ratio is None else f"{ratio:.3f}"
                emit(f"{axis},{size},{seconds:.6f},{ratio_s},{flag}")
                previous = seconds
    if flagged:
        print(f"warning: {flagged} measurement(s) grew faster than "
              f"x{growth_limit} per doubling", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "synth": cmd_synth,
    "bench": cmd_bench,
}


def _add_schema_flags(parser: argparse._ActionsContainer, keys: Sequence[str]) -> None:
    for key in keys:
        converter, _ = _SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if converter is _parse_bool:
            parser.add_argument(flag, dest=key, default=None, type=_parse_bool,
                                metavar="BOOL")
        else:
            parser.add_argument(flag, dest=key, default=None, type=converter)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is taken only as written, never as a prefix
    parser = argparse.ArgumentParser(
        prog="lbrank", allow_abbrev=False,
        description="Unsupervised rank aggregation of score-based permutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, keys: Sequence[str]) -> argparse.ArgumentParser:
        """A subcommand taking ``--config`` and the ``_SCHEMA`` flags of ``keys``."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        _add_schema_flags(p, keys)
        p.add_argument("--config", default=None)
        return p

    shared = ["seed", "threads", "data", "out", "normalize", "strict"]
    command("train", "fit a model and write it with its log",
            shared + ["model", "gain", "backend", "phi", "mu", "lam", "lam1", "lam2",
                      "epochs", "samples", "burn_in", "thinning", "k2",
                      "init_jitter", "sampling", "shuffle"])
    p_infer = command("infer", "write aggregated rankings as CSV", shared)
    source = p_infer.add_mutually_exclusive_group()
    _add_schema_flags(source, ["model_file"])
    source.add_argument("--baseline", default=None, choices=["averaging"],
                        help="rank with a baseline instead of a model file")
    p_eval = command("eval", "NDCG report for baselines and models", shared + ["gain", "topk"])
    p_eval.add_argument("--model-file", dest="model_files", action="append", default=None,
                        help="model file to evaluate (repeatable)")
    command("synth", "generate a planted synthetic dataset",
            ["seed", "out", "n_queries", "n_candidates", "n_rankers", "noise_levels"])
    command("bench", "per-epoch training time across doublings",
            ["seed", "out", "samples", "burn_in", "thinning",
             "bench_axes", "bench_doublings", "bench_queries", "bench_base_n",
             "bench_base_k", "bench_repeats"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](build_config(args))
    except ConfigError as exc:
        print(f"lbrank: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"lbrank: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # invariant violations and unexpected failures
        print(f"lbrank: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

