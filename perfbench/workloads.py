"""Seeded inputs, CLI commands and output checks of the two workloads.

Every input is a pure function of the workload's generator parameters and
the ``--seed`` argument, and is built with the package's public API. The
checks recompute the expected outputs with numpy, independently of the
code paths ``lbrank`` uses, so a change that breaks an output fails the
run instead of speeding it up.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lbrank import QueryInstance, SimplexWeights, synth_planted
from lbrank.core import sigmoid_gain
from lbrank.io import Dataset, write_letor, write_scores_csv
from lbrank.linear import LinearModel, save_linear
from lbrank.nested import NestedHyper, init_nested, save_nested

# Every command runs single-threaded; run.py also pins BLAS threads to 1.
COMMON_FLAGS = ["--threads", "1"]

# Trained weights must lie on the simplex within the package's SIMPLEX_TOL.
SIMPLEX_TOL = 1e-9

# The averaging MEAN row is recomputed with another summation order, so
# it is compared within a few ulps of values in [0, 1].
NDCG_TOL = 1e-12


@dataclass
class Command:
    """One ``lbrank`` invocation and the check of what it wrote."""

    label: str
    argv: list[str]
    check: Callable[[], str | None]  # None when the output is correct


@dataclass
class Prepared:
    """A workload's inputs on disk plus what its checks need."""

    commands: list[Command]
    # Untimed eval made once after timing, or None when a timed command
    # already writes the report that ndcg_at5 is read from.
    quality: Command | None
    report: Path
    models: list[str]  # eval labels of the models whose NDCG@5 is averaged
    data: dict  # sizes of the generated inputs, for the report


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    prepare: Callable[[dict, Path, int], Prepared]


# ---------------------------------------------------------------- checks

def _minmax(matrix: np.ndarray) -> np.ndarray:
    low = matrix.min(axis=1, keepdims=True)
    high = matrix.max(axis=1, keepdims=True)
    span = np.where(high == low, 1.0, high - low)
    return np.where(high == low, 0.5, (matrix - low) / span)


def _stable_order(scores: np.ndarray) -> np.ndarray:
    return np.argsort(-scores, kind="stable")


def averaging_mean_ndcg(queries, topk: int) -> list[float]:
    """Mean NDCG@1..topk of the uniform-weight average, from first principles.

    Discount D(i) = 1 / (1 + exp(i - 1)) over positions 1..N_max, the
    default ``sigmoid`` gain; queries without a relevant document score 0.
    """
    n_max = max(x.shape[1] for x, _ in queries)
    positions = np.arange(1, n_max + 1, dtype=np.float64)
    discount = 1.0 / (1.0 + np.exp(positions - 1.0))
    totals = np.zeros(topk)
    for x, rel in queries:
        if not np.any(rel > 0.0):
            continue
        order = _stable_order(x.mean(axis=0))
        ideal = np.sort(rel)[::-1]
        for k in range(1, topk + 1):
            kk = min(k, rel.size)
            totals[k - 1] += (rel[order[:kk]] @ discount[:kk]) / (ideal[:kk] @ discount[:kk])
    return (totals / len(queries)).tolist()


def read_mean_rows(path: Path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row[0]: [float(v) for v in row[2:]]
                for row in csv.reader(fh) if len(row) > 2 and row[1] == "MEAN"}


def check_eval(path: Path, queries, methods: list[str], topk: int = 10) -> str | None:
    """The averaging MEAN row must match an independent recomputation."""
    if not path.exists():
        return f"{path.name} missing"
    means = read_mean_rows(path)
    if sorted(means) != sorted(methods):
        return f"{path.name}: MEAN rows for {sorted(means)}, expected {sorted(methods)}"
    want = averaging_mean_ndcg(queries, topk)
    got = means["averaging"]
    if len(got) != topk or max(abs(a - b) for a, b in zip(got, want)) > NDCG_TOL:
        return f"{path.name}: averaging MEAN row {got} != recomputed {want}"
    return None


def _weights_line(text: str, key: str) -> np.ndarray:
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep and name.strip() == key:
            return np.array([float(tok) for tok in value.split()])
    raise KeyError(key)


def _on_simplex(w: np.ndarray) -> bool:
    return bool(w.size and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= SIMPLEX_TOL)


def check_trained(model: Path, nested: bool) -> str | None:
    """Weights on the simplex, and one log line per epoch actually run."""
    if not model.exists():
        return f"{model.name} missing"
    text = model.read_text(encoding="utf-8")
    try:
        if nested:
            k2 = int(_weights_line(text, "k2")[0])
            rows = [_weights_line(text, "w2")] + [_weights_line(text, f"w1[{i}]")
                                                  for i in range(k2)]
        else:
            rows = [_weights_line(text, "w")]
    except (KeyError, ValueError) as exc:
        return f"{model.name}: unreadable weights ({exc})"
    if not all(_on_simplex(w) for w in rows):
        return f"{model.name}: weights off the simplex"
    log = model.with_name(model.name + ".log")
    if not log.exists():
        return f"{log.name} missing"
    lines = log.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[-1].startswith("epochs_run "):
        return f"{log.name}: no epochs_run line"
    epochs_run = int(lines[-1].split()[1])
    epoch_lines = sum(1 for line in lines if line.startswith("epoch "))
    if epochs_run < 1 or epoch_lines != epochs_run:
        return f"{log.name}: {epoch_lines} epoch lines for epochs_run {epochs_run}"
    return None


def check_same_bytes(path: Path, expected: bytes) -> str | None:
    if not path.exists():
        return f"{path.name} missing"
    if path.read_bytes() != expected:
        return f"{path.name} differs from the numpy recomputation"
    return None


# ---------------------------------------------------------------- generators

def _levels(p: dict) -> np.ndarray:
    return np.linspace(p["noise_min"], p["noise_max"], p["K"])


def _prepare_train(p: dict, work: Path, seed: int) -> Prepared:
    commands, models = [], {}
    for model in ("linear", "nested"):
        size = p[model]
        dataset = synth_planted(size["Q"], size["N"], p["K"], _levels(p), seed=seed)
        data = work / f"planted-{model}.csv"
        write_scores_csv(dataset, data)
        models[model] = (work / f"{model}.model", dataset, data)
        argv = ["train", "--model", model, "--normalize", "true", "--seed", str(seed),
                "--data", str(data), "--out", str(models[model][0]), *COMMON_FLAGS]
        commands.append(Command(f"train_{model}", argv,
                                lambda m=models[model][0], n=model == "nested":
                                check_trained(m, n)))

    # both models are scored on the linear model's planted data (same K)
    _, dataset, data = models["linear"]
    queries = [(_minmax(q.matrix), np.array(q.relevance)) for q in dataset.queries]
    report = work / "quality.csv"
    quality = Command(
        "quality_eval",
        ["eval", "--normalize", "true", "--data", str(data),
         "--model-file", str(models["linear"][0]), "--model-file", str(models["nested"][0]),
         "--out", str(report), *COMMON_FLAGS],
        lambda: check_eval(report, queries, ["averaging", "borda", "linear", "nested"]))
    return Prepared(commands, quality, report, ["linear", "nested"],
                    {m: {"queries": p[m]["Q"], "rows": p[m]["Q"] * p[m]["N"]}
                     for m in ("linear", "nested")})


def _ragged_dataset(p: dict, rng: np.random.Generator) -> Dataset:
    sizes = np.clip(np.rint(rng.lognormal(np.log(p["N_median"]), p["N_sigma"], p["Q"])),
                    p["N_min"], p["N_max"]).astype(int)
    levels = _levels(p)
    queries = []
    for qi, n in enumerate(sizes.tolist()):
        grades = rng.integers(0, 5, size=n).astype(np.float64)
        matrix = grades + levels[:, np.newaxis] * rng.standard_normal((p["K"], n))
        queries.append(QueryInstance.from_matrix(f"q{qi:05d}", matrix, relevance=grades))
    return Dataset(tuple(queries), "perfbench:ingest")


def _expected_rankings(dataset: Dataset, w: np.ndarray) -> bytes:
    """The rankings CSV ``infer`` must write: stable argsort of w @ X per query."""
    lines = ["query_id,rank,candidate_id,aggregated_score"]
    for q in dataset.queries:
        scores = w @ np.ascontiguousarray(q.matrix)
        for rank, cand in enumerate(_stable_order(scores).tolist(), start=1):
            lines.append(f"{q.query_id},{rank},{cand},{float(scores[cand])!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _prepare_ingest(p: dict, work: Path, seed: int) -> Prepared:
    dataset = _ragged_dataset(p, np.random.default_rng(seed))
    csv_path, letor_path = work / "ingest.csv", work / "ingest.letor"
    write_scores_csv(dataset, csv_path)
    write_letor(dataset, letor_path)

    # inverse-variance weights: a fixed, reasonable linear model for every seed
    inverse_variance = 1.0 / _levels(p) ** 2
    gain = sigmoid_gain(dataset.n_max)
    linear_path, nested_path = work / "linear.model", work / "nested.model"
    save_linear(LinearModel(SimplexWeights(inverse_variance / inverse_variance.sum()), gain),
                linear_path)
    save_nested(init_nested(p["K"], NestedHyper(k2=p["K2"], init_jitter=0.5), gain,
                            seed=seed), nested_path)
    # the model file holds shortest-roundtrip reprs, so these are the weights lbrank reads
    expected = _expected_rankings(
        dataset, _weights_line(linear_path.read_text(encoding="utf-8"), "w"))

    rankings, report = work / "rankings.csv", work / "eval.csv"
    queries = [(np.array(q.matrix), np.array(q.relevance)) for q in dataset.queries]
    commands = [
        Command("infer",
                ["infer", "--data", str(csv_path), "--model-file", str(linear_path),
                 "--out", str(rankings), *COMMON_FLAGS],
                lambda: check_same_bytes(rankings, expected)),
        Command("eval",
                ["eval", "--data", str(letor_path), "--model-file", str(linear_path),
                 "--model-file", str(nested_path), "--out", str(report), *COMMON_FLAGS],
                lambda: check_eval(report, queries, ["averaging", "borda", "linear", "nested"])),
    ]
    return Prepared(commands, None, report, ["linear", "nested"],
                    {"queries": len(dataset.queries),
                     "rows": int(sum(q.n for q in dataset.queries))})


_NOISE = {"noise_min": 0.5, "noise_max": 3.0}

WORKLOADS = {
    wl.name: wl for wl in (
        # The query counts keep one pass near 8 s, so a run holds enough
        # passes for a steady median on a 2-core machine whose speed drifts
        # by about 30% from one second to the next.
        Workload("train",
                 "train --model linear (planted Q=100 N=30 K=8) then --model nested "
                 "(Q=75 N=10 K2=16), minmax, 20 epochs: MH sampler, objective passes and "
                 "nested updates; no I/O",
                 {"K": 8, "linear": {"Q": 100, "N": 30}, "nested": {"Q": 75, "N": 10},
                  **_NOISE},
                 _prepare_train),
        Workload("ingest",
                 "infer on a 100k-row CSV, eval on the same LETOR with a linear and a nested "
                 "model; 2000 queries, K=8, ragged N 5..300: parsing, writing and NDCG, no sampler",
                 {"Q": 2000, "K": 8, "K2": 16, "N_median": 41, "N_sigma": 0.68,
                  "N_min": 5, "N_max": 300, **_NOISE},
                 _prepare_ingest),
    )
}
