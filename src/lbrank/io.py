"""Dataset ingestion, synthesis and preprocessing, and the model and log file codecs.

Two on-disk formats are supported: LETOR/SVMLight-style ranking files
(``<relevance> qid:<id> 1:<v1> 2:<v2> ... # comment``) where each feature
column acts as one ranker, and a dense CSV of per-candidate ranker scores.
Candidate indices are 0-based internally; the 1-based feature indices of
the LETOR format are converted at this boundary only. The ``key: value``
model file codec and the training log writer live here too.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .core import QueryInstance, _grade_vector, _score_vector

__all__ = [
    "Block",
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


def _grade(token: str, where: str) -> float:
    """``token`` as a relevance grade, a finite non-negative number; ``where`` starts errors."""
    try:
        rel = float(token)
    except ValueError:
        raise DataError(f"{where}: bad relevance {token!r}") from None
    if not 0.0 <= rel < math.inf:
        raise DataError(f"{where}: relevance must be finite and non-negative, got {token!r}")
    return rel


class Block(NamedTuple):
    """The queries of a dataset that have one candidate count N, stacked in file order.

    ``index`` holds their positions in ``Dataset.queries``, ascending;
    ``scores`` is a read-only, C-ordered (Q_N, K, N) array whose item j is
    the score matrix of query ``index[j]``, and ``relevance`` the read-only
    (Q_N, N) array of their grades, or None.
    """

    index: np.ndarray
    scores: np.ndarray
    relevance: np.ndarray | None


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

    @functools.cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The queries grouped by candidate count, one :class:`Block` per N, N ascending.

        A parsed dataset's query matrices and grades are views of its
        blocks; any other dataset's are stacked into blocks on first use.
        The grades are stacked only when every query has them.
        """
        sizes = np.array([q.n for q in self.queries])
        with_relevance = self.has_relevance()
        blocks = []
        for n, index in _size_groups(sizes):
            queries = [self.queries[i] for i in index.tolist()]
            scores = np.stack([q.matrix for q in queries])
            relevance = np.stack([q.relevance for q in queries]) if with_relevance else None
            blocks.append(_block(index, scores, relevance))
        return tuple(blocks)


def _size_groups(sizes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each size N in ``sizes``, ascending, with the positions that hold it."""
    # not np.unique, which imports numpy.ma (1 MB of RSS) on first use
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        yield n, np.flatnonzero(sizes == n)


def _block(index: np.ndarray, scores: np.ndarray, relevance: np.ndarray | None) -> Block:
    """A :class:`Block` of the given arrays, made read-only."""
    for array in (index, scores, relevance):
        if array is not None:
            array.setflags(write=False)
    return Block(index, scores, relevance)


def _fmt_number(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


# Characters of whole lines the fast paths check at a time. Each chunk
# costs about 30 numpy calls, which made 16 KiB chunks 28-30% slower than
# these; lbrank's peak RSS is the same from 16 to 256 KiB, 1.2 MB more at 1 MiB.
_CHUNK = 1 << 18


def _chunks(fh: TextIO) -> Iterator[str]:
    """The rest of ``fh`` in strings of whole lines, each about ``_CHUNK`` characters."""
    return iter(lambda: fh.read(_CHUNK) + fh.readline(), "")


# Bytes that can change how a line splits into fields, which ``_structure``
# keeps: ASCII whitespace (str.split() splits at \x1c-\x1f too), NUL, the
# delimiters, the CSV quote, and for LETOR all non-ASCII (Unicode spaces).
_SPLITTING = {*range(0x09, 0x0E), *range(0x1C, 0x21), 0}
_CSV_OTHER = bytes(set(range(256)) - _SPLITTING - set(b',"'))
_LETOR_OTHER = bytes(set(range(128)) - _SPLITTING - set(b":"))


def _structure(text: str, other: bytes, line: bytes) -> np.ndarray:
    """``text`` as newline-ended UTF-8; ValueError unless each line is blank or reads ``line``."""
    data = (text if text.endswith("\n") else text + "\n").encode()
    if data.translate(None, other).replace(line + b"\n", b"").strip(b"\n"):
        raise ValueError("a line the tokenizer may split differently")
    return np.frombuffer(data, np.uint8)


def _query_codes(data: np.ndarray, start: np.ndarray, end: np.ndarray,
                 codes: dict[str, int]) -> np.ndarray:
    """The codes of a chunk's query ids ``data[start[i]:end[i]]``, one per line.

    Each run of equal ids is decoded once and coded by the line parsers'
    rule, ``codes.setdefault(id, len(codes))``, whichever chunk it is in.
    Ids are NUL-padded to the longest, so none is cut short; padding past
    4x the chunk raises ValueError.
    """
    sizes = end - start
    if not sizes.size:
        return sizes
    width = int(sizes.max())
    if sizes.min() < 1 or sizes.size * width > 4 * data.size:
        raise ValueError("an empty query id, or ids too uneven to pad")
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(data, (0, width)), width)
    ids = np.where(np.arange(width) < sizes[:, None], windows[start], 0).view(f"S{width}")[:, 0]
    heads = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
    runs = [codes.setdefault(name.decode(), len(codes)) for name in ids[heads].tolist()]
    return np.repeat(runs, np.diff(heads, append=ids.size))


def _tokenized(parse: Callable[[Path], Dataset], path: Path) -> Dataset | None:
    """``parse(path)`` through numpy's tokenizer, or None if it does not take the file.

    The fast path accepts only files it reads exactly as the line parser
    would. Anything else, whatever the reason (a tokenizer error, a
    warning, a failed check, undecodable bytes), returns None and the
    line parser reads the file: it alone words errors with line numbers
    and repairs data, and it reads numbers with Python's ``float()``,
    which takes forms numpy does not (``1_0``, Unicode digits).
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads '3.0' into an int64 field with only a DeprecationWarning
            warnings.simplefilter("error")
            return parse(path)
    except Exception:
        return None


def _dataset(path: Path, fmt: str, codes: dict[str, int], group: Sequence[int],
             x: np.ndarray, rel: np.ndarray | None, cand: np.ndarray | None = None,
             filled: bool = False) -> Dataset:
    """Group flat rows into one query per id of ``codes``, in first-seen order.

    Row r belongs to the query coded ``group[r]``: ``x[r]`` holds its K
    scores (K >= 1) and ``rel[r]`` its grade. The whole block is checked
    once: every score must be finite and every grade finite and
    non-negative, or ValueError names the fault (the fast paths then fall
    back to the line parsers, which name the line). With ``cand`` each
    query's rows are put in candidate-id order, and the ids must be dense
    0..N-1; without it they keep file order. The queries of each candidate
    count N are gathered at once into the dataset's block for N (see
    ``Dataset.blocks``), and each query keeps views of its item there.
    """
    _score_vector(x, stacked=True)
    if rel is not None:
        _grade_vector(rel)
    names = list(codes)
    group = np.asarray(group, dtype=np.intp)
    sizes = np.bincount(group, minlength=len(names))
    starts = np.cumsum(sizes) - sizes
    if cand is None:
        order = np.argsort(group, kind="stable")
    else:
        order = np.lexsort((cand, group))
        dense = cand[order] == np.arange(group.size) - np.repeat(starts, sizes)
        if not dense.all():
            g = group[order[np.argmin(dense)]]
            raise DataError(f"{path} qid {names[g]}: candidate ids must be dense "
                            f"0..{sizes[g] - 1}")
    queries = [None] * len(names)
    blocks = []
    for n, index in _size_groups(sizes):
        rows = order[starts[index][:, np.newaxis] + np.arange(n)]  # (Q_N, N) row numbers
        # gathered row-major, then laid out (Q_N, K, N) in C order: BLAS rounds w @ X by
        # memory layout, and this is faster than one gather straight into that layout
        scores, grades = x[rows].transpose(0, 2, 1).copy(), None if rel is None else rel[rows]
        blocks.append(_block(index, scores, grades))
        for j, i in enumerate(index.tolist()):
            queries[i] = QueryInstance._checked(names[i], scores[j],
                                                None if grades is None else grades[j])
    provenance = f"{fmt}:{path}" + (" (missing scores zero-filled)" if filled else "")
    dataset = Dataset(tuple(queries), provenance)
    dataset.__dict__["blocks"] = tuple(blocks)  # the cached Dataset.blocks the queries view
    return dataset


def parse_letor(path: str | Path, *, strict: bool = True) -> Dataset:
    """Parse a LETOR/SVMLight ranking file into a dataset.

    Feature f of a line becomes score list f-1 of that line's query; the
    leading relevance column is kept for evaluation. Lines are grouped by
    qid in file order. In strict mode a line whose feature indices are not
    exactly 1..F raises; otherwise missing indices are filled with 0.0 and
    the provenance records the repair. Either way a query's K is its
    largest index, and each index 1..K must be scored on one of its lines.

    A file whose lines read ``<rel> qid:<id> 1:<v1> ... K:<vK>`` one space
    apart, plus any comment, is read by numpy's tokenizer; any other file
    by a line-by-line parser, which names the first bad line.
    """
    path = Path(path)
    dataset = _tokenized(_letor_tokenized, path)
    return _letor_lines(path, strict) if dataset is None else dataset


def _letor_checked(texts: Iterable[str], k: int, codes: dict[str, int],
                   group: list[np.ndarray]) -> Iterator[list[str]]:
    """Each chunk's lines with ':' for ' ', once its lines are checked and their queries coded."""
    for text in texts:
        data = _structure(text, _LETOR_OTHER, b" :" * (k + 1))
        spaces = np.flatnonzero(data == ord(" ")).reshape(-1, k + 1)
        if not (data[spaces[:, :1] + np.arange(1, 5)] == np.frombuffer(b"qid:", np.uint8)).all():
            raise ValueError("a second token that is not qid:<id>")
        group.append(_query_codes(data, spaces[:, 0] + 5, spaces[:, 1], codes))
        yield text.replace(" ", ":").split("\n")


def _letor_tokenized(path: Path) -> Dataset:
    """The fast path of ``parse_letor`` (see ``_tokenized``)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        texts = (re.sub(r" *#[^\n]*", "", text) if "#" in text else text for text in _chunks(fh))
        first = next(text for text in texts if text.strip())
        k = first.lstrip().partition("\n")[0].count(":") - 1
        codes, group = {}, []
        # a checked line reads rel:qid:id:i1:v1:i2:v2:...
        lines = itertools.chain.from_iterable(
            _letor_checked(itertools.chain([first], texts), k, codes, group))
        # an index past the smallest unsigned type that holds K, or below 0, fails to parse
        index = np.min_scalar_type(k)
        rows = np.loadtxt(lines, dtype=[("rel", "f8"), ("f", [("i", index), ("v", "f8")], (k,))],
                          usecols=[0, *range(3, 3 + 2 * k)], delimiter=":", comments=None,
                          ndmin=1)
    if not (rows["f"]["i"] == np.arange(1, k + 1)).all():
        raise ValueError("feature indices are not 1..K on every line")
    return _dataset(path, "letor", codes, np.concatenate(group), rows["f"]["v"], rows["rel"])


def _letor_lines(path: Path, strict: bool) -> Dataset:
    """The line-by-line reader behind ``parse_letor``."""
    codes: dict[str, int] = {}
    group: list[int] = []
    rels: list[float] = []
    feats: list[dict[int, float]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(_checked(fh, path), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "\x00" in line:
                raise DataError(f"{path} line {lineno}: line contains NUL")
            tokens = line.split()
            if len(tokens) < 2 or not tokens[1].startswith("qid:"):
                raise DataError(f"{path} line {lineno}: expected '<rel> qid:<id> ...'")
            rel = _grade(tokens[0], f"{path} line {lineno}")
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
            group.append(codes.setdefault(qid, len(codes)))
            rels.append(rel)
            feats.append(features)

    if not feats:
        raise DataError(f"{path}: no data lines")
    names = list(codes)
    scored: list[set[int]] = [set() for _ in names]
    for g, features in zip(group, feats):
        scored[g].update(features)
    ks = [max(indices) for indices in scored]
    # checked before any allocation: it bounds K by the number of tokens
    for qid, indices, k in zip(names, scored, ks):
        if len(indices) != k:
            missing = next(i for i in range(1, k + 1) if i not in indices)
            raise DataError(f"{path} qid {qid}: no line scores feature index {missing} "
                            f"(largest index {k})")
    if strict:
        ragged = [g for g, features in zip(group, feats) if len(features) != ks[g]]
        if ragged:
            raise DataError(f"{path} qid {names[min(ragged)]}: inconsistent feature counts "
                            "within query")
    if len(set(ks)) > 1:
        raise DataError(f"{path}: queries disagree on ranker count K")
    k = ks[0]
    x = np.array([[features.get(i, 0.0) for i in range(1, k + 1)] for features in feats],
                 dtype=np.float64)
    return _dataset(path, "letor", codes, group, x, np.array(rels, dtype=np.float64),
                    filled=any(len(features) != k for features in feats))


def write_letor(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset back to the LETOR line format (relevance required)."""
    if not dataset.has_relevance():
        raise DataError("LETOR serialization requires relevance on every query")
    for q in dataset.queries:
        # the id must read back as one token of a line, before any comment
        if q.query_id.split() != [q.query_id] or "#" in q.query_id or "\x00" in q.query_id:
            raise DataError(f"query id {q.query_id!r} cannot be written to LETOR: "
                            "it is empty or holds whitespace, '#' or NUL")
    with open(path, "w", encoding="utf-8") as fh:
        for q in dataset.queries:
            # each line's "1:v1 2:v2 ...", its fields made a feature column at a time
            cells = map(" ".join, zip(*[[f"{i}:{v!r}" for v in column]
                                        for i, column in enumerate(q.matrix.tolist(), 1)]))
            fh.write("".join(f"{_fmt_number(rel)} qid:{q.query_id} {features}\n"
                             for rel, features in zip(q.relevance.tolist(), cells)))


_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a row, quoted where it must be.

    The csv module quotes a field holding the delimiter, the quote character
    or a character of the row terminator (the reader ends a row at \r as at
    \n), doubling each quote inside; an empty field beside another is
    written as it is.
    """
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def _csv_header(k: int, with_relevance: bool) -> list[str]:
    header = ["query_id", "candidate_id", *[f"ranker_{i}" for i in range(k)]]
    if with_relevance:
        header.append("relevance")
    return header


def _csv_columns(header: list[str], path: Path) -> tuple[int, bool]:
    """K, and whether a relevance column ends the row, of a header ``_csv_header`` writes."""
    header = [h.strip() for h in header]
    with_relevance = header[-1:] == ["relevance"]
    k = len(header) - 2 - with_relevance
    if k < 1 or header != _csv_header(k, with_relevance):
        raise DataError(f"{path}: header must be "
                        "query_id,candidate_id,ranker_0,...,ranker_{K-1}[,relevance]")
    return k, with_relevance


def _is_scores_csv(path: str | Path) -> bool:
    """Whether ``path`` is a score CSV: its first row, read as a CSV header, starts ``query_id``."""
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as fh:
        try:
            return [cell.strip() for cell in next(csv.reader(fh), [])[:1]] == ["query_id"]
        except csv.Error:  # NUL before Python 3.11, or a field past the size limit: LETOR
            return False


def parse_scores_csv(path: str | Path, *, strict: bool = True) -> Dataset:
    """Parse a dense per-candidate score matrix CSV.

    Header: ``query_id,candidate_id,ranker_0,...,ranker_{K-1}[,relevance]``.
    Candidate ids must be dense 0..N-1 within each query. Empty ranker
    cells raise in strict mode and are zero-filled (and flagged in the
    provenance) otherwise.

    A file with no quotes, whitespace or empty cells is read by numpy's
    tokenizer; any other file by a line-by-line parser, which names the
    first bad line.
    """
    path = Path(path)
    dataset = _tokenized(_scores_csv_tokenized, path)
    return _scores_csv_lines(path, strict) if dataset is None else dataset


def _scores_csv_tokenized(path: Path) -> Dataset:
    """The fast path of ``parse_scores_csv`` (see ``_tokenized``)."""
    codes, group = {}, []
    with open(path, "r", encoding="utf-8-sig") as fh:
        k, with_relevance = _csv_columns(next(csv.reader([fh.readline()])), path)
        width = 2 + k + with_relevance
        for text in _chunks(fh):
            data = _structure(text, _CSV_OTHER, b"," * (width - 1))
            bounds = np.append(0, np.flatnonzero(data == ord("\n")) + 1)  # where lines start
            if np.diff(bounds).max() > csv.field_size_limit() + 1:
                raise ValueError("a line past the csv module's field limit")
            ends = np.flatnonzero(data == ord(",")).reshape(-1, width - 1)[:, 0]
            starts = bounds[np.searchsorted(bounds, ends, side="right") - 1]
            group.append(_query_codes(data, starts, ends, codes))
    fields = [("cand", "i8"), ("x", "f8", (k,))]
    if with_relevance:
        fields.append(("rel", "f8"))
    rows = np.loadtxt(path, dtype=fields, usecols=range(1, width), delimiter=",", skiprows=1,
                      comments=None, encoding="utf-8-sig", ndmin=1)
    return _dataset(path, "csv", codes, np.concatenate(group), rows["x"],
                    rows["rel"] if with_relevance else None, cand=rows["cand"])


def _scores_csv_lines(path: Path, strict: bool) -> Dataset:
    """The line-by-line reader behind ``parse_scores_csv``."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows_in = _checked(reader, path)
        k, with_relevance = _csv_columns(next(rows_in, []), path)  # an empty file has no header
        width = 2 + k + with_relevance
        codes: dict[str, int] = {}
        group: list[int] = []
        cands: list[int] = []
        values_rows: list[list[float]] = []
        rels: list[float | None] = []
        seen: set[tuple[int, int]] = set()
        filled = False
        last_line = reader.line_num
        for row in rows_in:
            # a quoted field may hold newlines: a row starts after the previous row's last line
            lineno, last_line = last_line + 1, reader.line_num
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path} line {lineno}: expected {width} fields, "
                                f"got {len(row)}")
            qid = row[0]
            if not qid:
                raise DataError(f"{path} line {lineno}: empty query_id")
            if "\x00" in qid:
                raise DataError(f"{path} line {lineno}: query_id contains NUL")
            try:
                cand = int(row[1])
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad candidate_id {row[1]!r}") from None
            values: list[float] = []
            for i, cell in enumerate(row[2:2 + k]):
                cell = cell.strip()
                if not cell:
                    if strict:
                        raise DataError(f"{path} line {lineno}: empty ranker_{i} cell")
                    filled = True
                    values.append(0.0)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(f"{path} line {lineno}: bad number {cell!r}") from None
            if not all(map(math.isfinite, values)):
                raise DataError(f"{path} line {lineno}: scores must be finite")
            rel_value = _grade(row[-1], f"{path} line {lineno}") if with_relevance else None
            g = codes.setdefault(qid, len(codes))
            if (g, cand) in seen:
                raise DataError(f"{path} line {lineno}: duplicate row for "
                                f"query {qid!r} candidate {cand}")
            seen.add((g, cand))
            group.append(g)
            # an id outside int64 is never dense; -1 keeps that verdict in int64
            cands.append(cand if 0 <= cand < 2 ** 63 else -1)
            values_rows.append(values)
            rels.append(rel_value)

    if not group:
        raise DataError(f"{path}: no data rows")
    return _dataset(path, "csv", codes, group, np.array(values_rows, dtype=np.float64),
                    np.array(rels, dtype=np.float64) if with_relevance else None,
                    cand=np.array(cands, dtype=np.int64), filled=filled)


def write_scores_csv(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset to the score matrix CSV format that ``parse_scores_csv`` reads."""
    for q in dataset.queries:
        if not q.query_id or "\x00" in q.query_id:
            raise DataError(f"query id {q.query_id!r} cannot be written to CSV: "
                            "it is empty or holds NUL")
    with_relevance = dataset.has_relevance()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_header(dataset.k, with_relevance)) + "\n")
        for q in dataset.queries:
            cells = [",".join(map(repr, row)) for row in q.matrix.T.tolist()]
            if with_relevance:
                cells = [f"{row},{rel!r}" for row, rel in zip(cells, q.relevance.tolist())]
            query_id = _csv_field(q.query_id)
            fh.write("".join(f"{query_id},{cand},{row}\n" for cand, row in enumerate(cells)))


def _write_rankings_csv(path: str | Path, query_ids: Sequence[str],
                        ranked: Iterable[tuple[list[int], list[float]]]) -> None:
    """``infer``'s rankings: a row per (query, rank) of each query's (order, scores in it) lists."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("query_id,rank,candidate_id,aggregated_score\n")
        for query_id, (order, values) in zip(query_ids, ranked):
            query_id = _csv_field(query_id)
            fh.write("".join(f"{query_id},{rank},{cand},{value!r}\n"
                             for rank, cand, value in zip(itertools.count(1), order, values)))


def _field_text(value) -> str:
    """A string as it is; a number or an array as space-separated Python reprs."""
    if isinstance(value, str):
        return value
    return " ".join(repr(v) for v in np.ravel(value).tolist())


def _write_model_fields(path: str | Path, model_format: str,
                        fields: list[tuple[str, object]]) -> None:
    """``format: model_format``, then one ``key: value`` line per field."""
    lines = [f"{key}: {_field_text(value)}\n"
             for key, value in [("format", model_format), *fields]]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _model_fields(path: str | Path) -> dict[str, str]:
    """A model file's ``key: value`` fields, each key once; any fault raises a DataError."""
    try:
        fields: dict[str, str] = {}
        for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
            if not line.strip():
                continue
            key, sep, value = (part.strip() for part in line.partition(":"))
            if not sep:
                raise ValueError(f"malformed model line {line.strip()!r}")
            if key in fields:
                raise ValueError(f"repeated key {key!r}")
            fields[key] = value
        return fields
    except ValueError as exc:  # includes UnicodeDecodeError
        raise DataError(f"{path}: {exc}") from None


def _read_model(path: str | Path, model_format: str,
                build: Callable[[dict[str, str]], object],
                fields: dict[str, str] | None = None):
    """``build(fields)`` of the fields of a ``model_format`` file; any fault raises a DataError.

    ``fields`` are those ``_model_fields(path)`` read, and are read if None.
    ``build`` pops each key it reads: a missing one raises KeyError, and one it leaves is unknown.
    """
    fields = _model_fields(path) if fields is None else fields
    try:
        if fields.pop("format", None) != model_format:
            raise ValueError(f"not a {model_format} model file")
        model = build(fields)
        if fields:
            raise ValueError(f"unknown key {min(fields)!r}")
        return model
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_floats(text: str, size: int, name: str) -> np.ndarray:
    """The ``size`` space-separated floats of field ``name``."""
    values = np.array([float(tok) for tok in text.split()], dtype=np.float64)
    if values.size != size:
        raise ValueError(f"{name} holds {values.size} values, expected {size}")
    return values


def _write_training_log(path: Path, log) -> None:
    """Per epoch its objective and weights: ``w ...``, or ``w2 ... w1 ...`` for (W1, W2)."""
    lines = []
    for epoch, (objective, weights) in enumerate(zip(log.objectives, log.snapshots), start=1):
        text = (f"w2 {_field_text(weights[1])} w1 {_field_text(weights[0])}"
                if isinstance(weights, tuple) else f"w {_field_text(weights)}")
        lines.append(f"epoch {epoch} objective {objective!r} {text}")
    lines.append(f"epochs_run {log.epochs_run} converged {str(log.converged).lower()}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
