"""Dataset ingestion, synthesis and preprocessing.

Two on-disk formats are supported: LETOR/SVMLight-style ranking files
(``<relevance> qid:<id> 1:<v1> 2:<v2> ... # comment``) where each feature
column acts as one ranker, and a dense CSV of per-candidate ranker scores.
Candidate indices are 0-based internally; the 1-based feature indices of
the LETOR format are converted at this boundary only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import QueryInstance

__all__ = [
    "DataError",
    "Dataset",
    "parse_letor",
    "write_letor",
    "parse_scores_csv",
    "write_scores_csv",
    "synth_planted",
    "normalize_minmax",
]


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def _checked(rows: Iterable, path: Path) -> Iterator:
    """Iterate ``rows``, reporting undecodable text and CSV syntax errors as DataError."""
    try:
        yield from rows
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


def _is_grade(value: float) -> bool:
    """Relevance grades are finite and non-negative."""
    return 0.0 <= value < math.inf


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of queries sharing one ranker count K."""

    queries: tuple[QueryInstance, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        queries = tuple(self.queries)
        if not queries:
            raise DataError("dataset contains no queries")
        k = queries[0].k
        if any(q.k != k for q in queries):
            raise DataError("queries disagree on ranker count K")
        ids = [q.query_id for q in queries]
        if len(set(ids)) != len(ids):
            raise DataError("query ids must be unique")
        object.__setattr__(self, "queries", queries)

    @property
    def k(self) -> int:
        return self.queries[0].k

    @property
    def n_max(self) -> int:
        return max(q.n for q in self.queries)

    def has_relevance(self) -> bool:
        return all(q.relevance is not None for q in self.queries)


def _fmt_number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def parse_letor(path: str | Path, *, strict: bool = True) -> Dataset:
    """Parse a LETOR/SVMLight ranking file into a dataset.

    Feature f of a line becomes score list f-1 of that line's query; the
    leading relevance column is kept for evaluation. Lines are grouped by
    qid in file order. In strict mode a line whose feature indices are not
    exactly 1..F raises; otherwise missing indices are filled with 0.0 and
    the provenance records the repair.
    """
    path = Path(path)
    per_query: dict[str, list[tuple[float, dict[int, float]]]] = {}
    order: list[str] = []
    filled = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(_checked(fh, path), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "\x00" in line:
                raise DataError(f"{path} line {lineno}: line contains NUL")
            tokens = line.split()
            if len(tokens) < 2 or not tokens[1].startswith("qid:"):
                raise DataError(f"{path} line {lineno}: expected '<rel> qid:<id> ...'")
            try:
                rel = float(tokens[0])
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad relevance {tokens[0]!r}") from None
            if not _is_grade(rel):
                raise DataError(f"{path} line {lineno}: relevance must be finite and "
                                f"non-negative, got {tokens[0]!r}")
            qid = tokens[1][len("qid:"):]
            if not qid:
                raise DataError(f"{path} line {lineno}: empty qid")
            features: dict[int, float] = {}
            for tok in tokens[2:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DataError(f"{path} line {lineno}: malformed feature {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataError(f"{path} line {lineno}: malformed feature {tok!r}") from None
                if idx < 1:
                    raise DataError(f"{path} line {lineno}: feature index {idx} < 1")
                if idx in features:
                    raise DataError(f"{path} line {lineno}: duplicate feature index {idx}")
                features[idx] = val
            if not features:
                raise DataError(f"{path} line {lineno}: no features")
            if not all(map(math.isfinite, features.values())):
                raise DataError(f"{path} line {lineno}: scores must be finite")
            if strict and sorted(features) != list(range(1, len(features) + 1)):
                # n distinct indices >= 1 that are not 1..n leave a gap at or below n
                missing = next(i for i in range(1, len(features) + 1) if i not in features)
                raise DataError(f"{path} line {lineno}: missing feature index {missing}")
            if qid not in per_query:
                per_query[qid] = []
                order.append(qid)
            per_query[qid].append((rel, features))

    if not order:
        raise DataError(f"{path}: no data lines")

    queries = []
    for qid in order:
        entries = per_query[qid]
        k = max(max(f) for _, f in entries)
        if strict and any(len(f) != k for _, f in entries):
            raise DataError(f"{path} qid {qid}: inconsistent feature counts within query")
        n = len(entries)
        matrix = np.zeros((k, n), dtype=np.float64)
        for doc, (_, features) in enumerate(entries):
            for idx, val in features.items():
                matrix[idx - 1, doc] = val
        if any(len(f) != k for _, f in entries):
            filled = True
        rel = np.array([rel for rel, _ in entries], dtype=np.float64)
        queries.append(QueryInstance(qid, matrix, rel))
    provenance = f"letor:{path}"
    if filled:
        provenance += " (missing scores zero-filled)"
    try:
        return Dataset(tuple(queries), provenance)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_letor(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset back to the LETOR line format (relevance required)."""
    if not dataset.has_relevance():
        raise DataError("LETOR serialization requires relevance on every query")
    lines = []
    for q in dataset.queries:
        for doc in range(q.n):
            feats = " ".join(f"{i + 1}:{float(q.matrix[i, doc])!r}" for i in range(q.k))
            lines.append(f"{_fmt_number(q.relevance[doc])} qid:{q.query_id} {feats}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_header(k: int, with_relevance: bool) -> list[str]:
    header = ["query_id", "candidate_id", *[f"ranker_{i}" for i in range(k)]]
    if with_relevance:
        header.append("relevance")
    return header


def parse_scores_csv(path: str | Path, *, strict: bool = True) -> Dataset:
    """Parse a dense per-candidate score matrix CSV.

    Header: ``query_id,candidate_id,ranker_0,...,ranker_{K-1}[,relevance]``.
    Candidate ids must be dense 0..N-1 within each query. Empty ranker
    cells raise in strict mode and are zero-filled (and flagged in the
    provenance) otherwise.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows_in = _checked(csv.reader(fh), path)
        try:
            header = next(rows_in)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:2] != ["query_id", "candidate_id"]:
            raise DataError(f"{path}: header must start with query_id,candidate_id")
        with_relevance = header[-1] == "relevance"
        ranker_cols = header[2:-1] if with_relevance else header[2:]
        if not ranker_cols or ranker_cols != [f"ranker_{i}" for i in range(len(ranker_cols))]:
            raise DataError(f"{path}: ranker columns must be ranker_0..ranker_{{K-1}}")
        k = len(ranker_cols)

        rows: dict[str, dict[int, tuple[list[float], float | None]]] = {}
        order: list[str] = []
        filled = False
        for lineno, row in enumerate(rows_in, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path} line {lineno}: expected {len(header)} fields, "
                                f"got {len(row)}")
            qid = row[0]
            try:
                cand = int(row[1])
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad candidate_id {row[1]!r}") from None
            values: list[float] = []
            for col, cell in zip(ranker_cols, row[2:2 + k]):
                cell = cell.strip()
                if not cell:
                    if strict:
                        raise DataError(f"{path} line {lineno}: empty {col} cell")
                    filled = True
                    values.append(0.0)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(f"{path} line {lineno}: bad number {cell!r}") from None
            if not all(map(math.isfinite, values)):
                raise DataError(f"{path} line {lineno}: scores must be finite")
            rel_value: float | None = None
            if with_relevance:
                try:
                    rel_value = float(row[-1])
                except ValueError:
                    raise DataError(f"{path} line {lineno}: bad relevance {row[-1]!r}") from None
                if not _is_grade(rel_value):
                    raise DataError(f"{path} line {lineno}: relevance must be finite and "
                                    f"non-negative, got {row[-1]!r}")
            if qid not in rows:
                rows[qid] = {}
                order.append(qid)
            if cand in rows[qid]:
                raise DataError(f"{path} line {lineno}: duplicate row for "
                                f"query {qid!r} candidate {cand}")
            rows[qid][cand] = (values, rel_value)

    if not order:
        raise DataError(f"{path}: no data rows")
    queries = []
    for qid in order:
        by_cand = rows[qid]
        n = len(by_cand)
        if sorted(by_cand) != list(range(n)):
            raise DataError(f"{path} qid {qid}: candidate ids must be dense 0..{n - 1}")
        matrix = np.array([by_cand[c][0] for c in range(n)], dtype=np.float64).T
        rel = None
        if with_relevance:
            rel = np.array([by_cand[c][1] for c in range(n)], dtype=np.float64)
        queries.append(QueryInstance(qid, matrix, rel))
    provenance = f"csv:{path}"
    if filled:
        provenance += " (missing scores zero-filled)"
    try:
        return Dataset(tuple(queries), provenance)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_scores_csv(dataset: Dataset, path: str | Path) -> None:
    with_relevance = dataset.has_relevance()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_header(dataset.k, with_relevance))
        for q in dataset.queries:
            for cand in range(q.n):
                row = [q.query_id, str(cand),
                       *[repr(float(q.matrix[i, cand])) for i in range(q.k)]]
                if with_relevance:
                    row.append(repr(float(q.relevance[cand])))
                writer.writerow(row)


def synth_planted(n_queries: int, n_candidates: int, n_rankers: int,
                  noise_levels: Sequence[float], seed: int = 0) -> Dataset:
    """Synthetic dataset with a planted relevance order.

    Per query: integer grades 0..4 drawn uniformly (redrawn until at least
    one positive grade exists), and ranker i scoring grade + Gaussian noise
    of scale ``noise_levels[i]``. A zero-noise ranker therefore reproduces
    the ground-truth order on every query, which is what the recovery
    checks rely on. Deterministic given the seed.
    """
    for name, count in (("n_queries", n_queries), ("n_candidates", n_candidates),
                        ("n_rankers", n_rankers)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    levels = np.asarray(noise_levels, dtype=np.float64)
    if levels.shape != (n_rankers,):
        raise ValueError(f"need {n_rankers} noise levels, got {levels.shape}")
    if not np.all(np.isfinite(levels) & (levels >= 0.0)):
        raise ValueError("noise levels must be finite and non-negative")
    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(n_queries):
        grades = rng.integers(0, 5, size=n_candidates).astype(np.float64)
        while not np.any(grades > 0.0):
            grades = rng.integers(0, 5, size=n_candidates).astype(np.float64)
        noise = rng.standard_normal((n_rankers, n_candidates))
        matrix = grades[np.newaxis, :] + levels[:, np.newaxis] * noise
        queries.append(QueryInstance(f"q{qi:05d}", matrix, grades))
    return Dataset(tuple(queries),
                   f"synthetic:planted(seed={seed},n={n_candidates},k={n_rankers})")


def normalize_minmax(q: QueryInstance) -> QueryInstance:
    """Map every score list affinely onto [0, 1]; constant lists become 0.5.

    The map is monotone, so it never reverses the order of two scores, but
    distinct scores can round to the same value when a list's span dwarfs
    the gaps between them: ``[1e20, -1e20, 3.0, 2.0]`` maps both 3.0 and
    2.0 to 0.5. A list whose span is past the float range (say -1e308 to
    1e308) is scaled by 0.5 before the subtraction.
    """
    x = q.matrix
    low = x.min(axis=1, keepdims=True)
    high = x.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        scale = np.where(np.isfinite(high - low), 1.0, 0.5)
    out = np.divide(x * scale - low * scale, high * scale - low * scale,
                    out=np.full(x.shape, 0.5), where=high != low)
    return QueryInstance(q.query_id, out, q.relevance)
