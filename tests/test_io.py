from __future__ import annotations

import codecs
import csv
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lbrank import io as dataio
from lbrank.core import QueryInstance, ranking_from_scores
from lbrank.io import (
    DataError,
    Dataset,
    _letor_lines,
    _scores_csv_lines,
    normalize_minmax,
    parse_letor,
    parse_scores_csv,
    synth_planted,
    write_letor,
    write_scores_csv,
)
from lbrank.linear import LinearHyper, train
from lbrank.metrics import ndcg_at_k, write_metric_csv
from lbrank.sampler import ChainConfig
from lbrank.core import sigmoid_gain

import oracles
from conftest import make_query
from oracles import pairwise_feature_transform


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if len(a.queries) != len(b.queries) or a.k != b.k:
        return False
    for qa, qb in zip(a.queries, b.queries):
        if qa.query_id != qb.query_id or qa.n != qb.n:
            return False
        if not np.array_equal(qa.matrix, qb.matrix):
            return False
        if (qa.relevance is None) != (qb.relevance is None):
            return False
        if qa.relevance is not None and not np.array_equal(qa.relevance, qb.relevance):
            return False
    return True


LETOR_TWO_LINES = """\
2 qid:1 1:0.3 2:0.7 3:1.0 # docA
0 qid:1 1:0.1 2:0.2 3:0.5 # docB
"""


class TestParseLetor:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(LETOR_TWO_LINES)
        ds = parse_letor(path)
        assert ds.k == 3
        assert len(ds.queries) == 1
        q = ds.queries[0]
        assert q.query_id == "1"
        assert q.n == 2
        np.testing.assert_array_equal(q.matrix, [[0.3, 0.1], [0.7, 0.2], [1.0, 0.5]])
        np.testing.assert_array_equal(q.relevance, [2.0, 0.0])

    def test_letor_scale_query(self, tmp_path, rng):
        # 40 documents x 46 features, the shape of a full LETOR query
        lines = []
        for doc in range(40):
            feats = " ".join(f"{i + 1}:{rng.uniform():.6f}" for i in range(46))
            lines.append(f"{doc % 3} qid:7 {feats}")
        path = tmp_path / "letor.txt"
        path.write_text("\n".join(lines) + "\n")
        ds = parse_letor(path)
        assert ds.k == 46
        assert ds.queries[0].n == 40

    def test_missing_feature_index_rejected(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("1 qid:1 1:0.5 3:0.5\n")
        with pytest.raises(DataError, match="line 1.*missing feature index 2"):
            parse_letor(path)

    def test_missing_feature_filled_when_not_strict(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("1 qid:1 1:0.5 3:0.5\n0 qid:1 1:0.1 2:0.2 3:0.3\n")
        ds = parse_letor(path, strict=False)
        assert ds.queries[0].matrix[1, 0] == 0.0
        assert "zero-filled" in ds.provenance

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 qid:1 1:0.3\nnot-a-line\n")
        with pytest.raises(DataError, match="line 2"):
            parse_letor(path)

    def test_bad_feature_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 qid:1 1:zero\n")
        with pytest.raises(DataError, match="line 1.*malformed feature"):
            parse_letor(path)

    def test_feature_index_below_one(self, tmp_path, monkeypatch):
        # the fast path refuses index 0, so the line parser words the error
        read = []
        monkeypatch.setattr(dataio, "_letor_lines",
                            lambda *args: read.append(args) or _letor_lines(*args))
        path = tmp_path / "zero.txt"
        path.write_text("0 qid:1 0:0.5\n")
        with pytest.raises(DataError, match="line 1: feature index 0 < 1"):
            parse_letor(path)
        assert len(read) == 1

    def test_inconsistent_feature_counts_within_query(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 qid:1 1:0.5 2:0.5\n0 qid:1 1:0.1\n")
        with pytest.raises(DataError, match="inconsistent feature counts"):
            parse_letor(path)

    def test_queries_grouped_preserving_first_seen_order(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(
            "1 qid:b 1:0.1\n"
            "0 qid:a 1:0.2\n"
            "2 qid:b 1:0.3\n"
            "1 qid:a 1:0.4\n")
        ds = parse_letor(path)
        assert [q.query_id for q in ds.queries] == ["b", "a"]
        np.testing.assert_array_equal(ds.queries[0].matrix, [[0.1, 0.3]])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"1 qid:1 1:0.5\r\n0 qid:1 1:0.25\r\n")
        ds = parse_letor(path)
        assert ds.queries[0].n == 2

    def test_round_trip(self, tmp_path, rng):
        original = synth_planted(4, 5, 3, [0.0, 0.5, 1.0], seed=3)
        path = tmp_path / "round.txt"
        write_letor(original, path)
        again = parse_letor(path)
        assert datasets_equal(original, again)
        write_letor(again, tmp_path / "round2.txt")
        third = parse_letor(tmp_path / "round2.txt")
        assert datasets_equal(again, third)

    def test_write_letor_bytes(self, tmp_path):
        path = tmp_path / "two.txt"
        write_letor(Dataset((QueryInstance("q1", [[-0.0, 0.1], [1e-300, 2.0]], [3.0, 0.5]),
                             QueryInstance("7", [[0.1], [-0.0]], [0.0]))), path)
        assert path.read_bytes() == (b"3 qid:q1 1:-0.0 2:1e-300\n"
                                     b"0.5 qid:q1 1:0.1 2:2.0\n"
                                     b"0 qid:7 1:0.1 2:-0.0\n")

    def test_write_letor_keeps_ids_it_can_carry_and_refuses_the_rest(self, tmp_path):
        matrix, grades = [[0.5, 0.25], [1.0, 0.0]], [1.0, 0.0]
        kept = Dataset(tuple(QueryInstance(qid, matrix, grades)
                             for qid in ("q0", "7", "a:b", "é-1")))
        path = tmp_path / "ids.txt"
        write_letor(kept, path)
        assert datasets_equal(parse_letor(path), kept)
        out = tmp_path / "refused.txt"
        for qid in ("", "q 0", "q\t0", "q\n0", "q#0", "q\x000"):
            with pytest.raises(DataError, match="cannot be written to LETOR"):
                write_letor(Dataset((QueryInstance(qid, matrix, grades),)), out)
            assert not out.exists()


class TestParseScoresCsv:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0,ranker_1\n"
            "q1,0,0.5,0.1\n"
            "q1,1,0.25,0.9\n"
            "q1,2,0.75,0.3\n")
        ds = parse_scores_csv(path)
        assert ds.k == 2
        assert ds.queries[0].n == 3
        assert ds.queries[0].relevance is None
        np.testing.assert_array_equal(ds.queries[0].matrix[1], [0.1, 0.9, 0.3])

    def test_relevance_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0,relevance\n"
            "q1,0,0.5,2\n"
            "q1,1,0.25,0\n")
        ds = parse_scores_csv(path)
        np.testing.assert_array_equal(ds.queries[0].relevance, [2.0, 0.0])

    def test_quoted_query_id_and_blank_line(self, tmp_path, monkeypatch):
        # the fast path refuses the quoted id; the line parser skips the blank row
        read = []
        monkeypatch.setattr(dataio, "_scores_csv_lines",
                            lambda *args: read.append(args) or _scores_csv_lines(*args))
        path = tmp_path / "quoted.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0\n"
            '"q,1",0,0.5\n'
            "\n"
            '"q,1",1,0.25\n')
        ds = parse_scores_csv(path)
        assert len(read) == 1
        assert [q.query_id for q in ds.queries] == ["q,1"]
        np.testing.assert_array_equal(ds.queries[0].matrix, [[0.5, 0.25]])

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0\n"
            "q1,0,0.5\n"
            "q1,0,0.7\n")
        with pytest.raises(DataError, match="duplicate row"):
            parse_scores_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0,ranker_1\n"
            "q1,0,0.5\n")
        with pytest.raises(DataError, match="expected 4 fields"):
            parse_scores_csv(path)

    def test_candidates_must_be_dense(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0\n"
            "q1,0,0.5\n"
            "q1,2,0.7\n")
        # the test's name is in tmp_path, so match what follows the file name
        with pytest.raises(DataError, match=r"qid q1: candidate ids must be dense 0\.\.1"):
            parse_scores_csv(path)

    def test_empty_cell_strict_vs_filled(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0,ranker_1\n"
            "q1,0,0.5,\n"
            "q1,1,0.25,0.9\n")
        with pytest.raises(DataError, match="empty ranker_1 cell"):
            parse_scores_csv(path)
        ds = parse_scores_csv(path, strict=False)
        assert ds.queries[0].matrix[1, 0] == 0.0
        assert "zero-filled" in ds.provenance

    def test_header_validated(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("query,candidate,score\nq1,0,0.5\n")
        # the test's name is in tmp_path, so match what follows the file name
        with pytest.raises(DataError, match=r"h\.csv: header"):
            parse_scores_csv(path)

    @pytest.mark.parametrize("header", [
        "query_id,candidate_id,relevance",  # no ranker column
        "query_id,candidate_id,ranker_1,ranker_0",  # rankers out of order
        "",  # an empty first line
    ], ids=["no-ranker", "ranker-order", "empty-line"])
    def test_header_is_the_layout_the_writer_writes(self, tmp_path, header):
        path = tmp_path / "h.csv"
        path.write_text(header + "\nq1,0,0.5,1\n")
        with pytest.raises(DataError, match=r"h\.csv: header"):
            parse_scores_csv(path)

    def test_round_trip(self, tmp_path):
        original = synth_planted(3, 4, 2, [0.0, 1.0], seed=11)
        path = tmp_path / "round.csv"
        write_scores_csv(original, path)
        again = parse_scores_csv(path)
        assert datasets_equal(original, again)

    def test_write_scores_csv_keeps_ids_it_can_carry_and_refuses_the_rest(self, tmp_path):
        matrix, grades = [[0.5, 0.25], [1.0, 0.0]], [1.0, 0.0]
        # the csv reader ends a row at a bare \r, so the writer must quote one
        kept = Dataset(tuple(QueryInstance(qid, matrix, grades)
                             for qid in ("q0", "q 0", "q#0", 'q"0', "q,0", "q\n0", "é-1",
                                         "q\r", "\r", "a\rb", "c\r\nd")))
        path = tmp_path / "ids.csv"
        write_scores_csv(kept, path)
        assert datasets_equal(parse_scores_csv(path), kept)
        out = tmp_path / "refused.csv"
        for qid in ("", "q\x000"):
            with pytest.raises(DataError, match="cannot be written to CSV"):
                write_scores_csv(Dataset((QueryInstance(qid, matrix, grades),)), out)
            assert not out.exists()


# Texts where numpy's tokenizer and Python's float()/int() may disagree, or
# where a field is not what it seems. Each mutation draws one of them.
# str.splitlines() breaks at \x85, \u2028 and \x1e, but reading a file by
# lines does not; str.split() splits at \x1f; \ufeff is neither.
_ODD = ["\x85", "\u2028", "\x1e", "\x1f", "\ufeff"]
_NUMBERS = ["1_0", "\u0661", "nan", "inf", "1e999", "", " 0.5 ", "\xa00.5", "0.5\u2003",
            "\u200b1", "0.5\x00", "0x1p0", "+.5", "1e-400", "-0", "0.5#x",
            "0.1000000000000000055511151231257827021181583404541015625",
            *(f"0.5{c}" for c in _ODD)]
_INDICES = ["3.0", "1_0", "\u0663", "-1", "0", "01", "+1", " 1", "1e0", "99999999999999999999", ""]
_QIDS = ["", '"q0"', 'q"0', "q\x00", "q#0", "a:b", "q 0", "q\t0", "q0 ", "\u0661",
         *(f"q{c}0" for c in _ODD)]
_EXTRAS = {"csv": [",0.5", ",", ";0.5"], "letor": [" 9:0.5", " 0.5", ":0.5", " ", "\t", "\x0b"]}
_SEPARATORS = {"csv": [";", ",,", ", ", '",', *_ODD],
               "letor": ["\t", "  ", ":", " ", "\x0b", "\xa0", " \t", "::", "\x1c", *_ODD]}
_LINES = ["", "  ", "\t", "\x0c", "# a comment line", "#", "\x00"]
_COMMENTS = [" # trailing note", "#note", " #"]

_mutation = st.tuples(
    st.sampled_from(["score", "grade", "index", "qid", "extra", "separator", "quote",
                     "line", "comment", "nul", "copy", "drop"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


def _pick(options: list[str], n: int) -> str:
    return options[n % len(options)]


def _mutate_lines(lines: list[str], fmt: str, mutations) -> list[str]:
    """Apply each mutation to one data line of a well-formed CSV (header first) or LETOR file."""
    sep = "," if fmt == "csv" else " "
    first = 1 if fmt == "csv" else 0
    for kind, at, pos, pick in mutations:
        if len(lines) <= first:
            break
        i = first + at % (len(lines) - first)
        line = lines[i]
        fields = line.split(sep)
        if len(fields) < 2 and kind in ("score", "grade", "index", "qid", "quote"):
            continue  # an inserted blank or comment line has no fields to change
        if kind in ("score", "grade", "index") and fmt == "letor":
            j = 0 if kind == "grade" else 2 + pos % max(1, len(fields) - 2)
            if kind == "grade":
                fields[0] = _pick(_NUMBERS, pick)
            elif j < len(fields):
                idx, _, value = fields[j].partition(":")
                fields[j] = (f"{idx}:{_pick(_NUMBERS, pick)}" if kind == "score"
                             else f"{_pick(_INDICES, pick)}:{value}")
        elif kind in ("score", "grade", "index"):
            j = {"score": 2 + pos % max(1, len(fields) - 2), "grade": -1, "index": 1}[kind]
            if j < len(fields):
                fields[j] = _pick(_INDICES if kind == "index" else _NUMBERS, pick)
        elif kind == "qid":
            fields[0 if fmt == "csv" else 1] = ("" if fmt == "csv" else "qid:") + _pick(_QIDS, pick)
        elif kind == "quote":
            j = pos % len(fields)
            fields[j] = f'"{fields[j]}"'
        if kind in ("score", "grade", "index", "qid", "quote"):
            lines[i] = sep.join(fields)
        elif kind == "extra":
            lines[i] = line + _pick(_EXTRAS[fmt], pick)
        elif kind == "separator":
            spots = [k for k, c in enumerate(line) if c in sep + ":"] or [len(line)]
            k = spots[pos % len(spots)]
            lines[i] = line[:k] + _pick(_SEPARATORS[fmt], pick) + line[k + 1:]
        elif kind == "line":
            lines.insert(i, _pick(_LINES, pick))
        elif kind == "comment":
            lines[i] = line + _pick(_COMMENTS, pick)
        elif kind == "nul":
            k = pos % (len(line) + 1)
            lines[i] = line[:k] + "\x00" + line[k:]
        elif kind == "copy":
            lines.insert(i, line)
        elif kind == "drop":
            del lines[i]
    return lines


def _outcome(parse, path, strict):
    """A parse's dataset as bytes, or its DataError message."""
    try:
        ds = parse(path, strict=strict)
    except DataError as exc:
        return "error", str(exc)
    return "ok", ds.provenance, [
        (q.query_id, q.matrix.shape, q.matrix.tobytes(),
         None if q.relevance is None else q.relevance.tobytes()) for q in ds.queries]


@st.composite
def _small_dataset(draw) -> Dataset:
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    number = st.floats(allow_nan=False, allow_infinity=False)  # subnormals to 1.8e308
    grade = st.sampled_from([0.0, 1.0, 2.0, 0.5])
    with_relevance = draw(st.booleans())
    return Dataset(tuple(
        QueryInstance(f"q{i}", draw(st.lists(st.lists(number, min_size=n, max_size=n),
                                             min_size=k, max_size=k)),
                      draw(st.lists(grade, min_size=n, max_size=n)) if with_relevance else None)
        for i, n in enumerate(sizes)))


class TestTokenizerAgreesWithLineParser:
    """The public parsers read numpy's way only where that gives the line parser's result."""

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    @given(data=_small_dataset(), mutations=st.lists(_mutation, max_size=3),
           line_end=st.sampled_from(["\n", "\r\n", "\r"]), shuffle=st.randoms())
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_dataset_or_same_error(self, tmp_path, fmt, data, mutations, line_end,
                                        shuffle):
        if fmt == "letor" and not data.has_relevance():
            data = Dataset(tuple(QueryInstance(q.query_id, q.matrix, np.ones(q.n))
                                 for q in data.queries))
        path = tmp_path / f"data.{fmt}"
        (write_scores_csv if fmt == "csv" else write_letor)(data, path)
        lines = path.read_text().splitlines()
        if fmt == "csv":  # rows of one query need not be in candidate order
            body = lines[1:]
            shuffle.shuffle(body)
            lines[1:] = body
        lines = _mutate_lines(lines, fmt, mutations)
        path.write_bytes((line_end.join(lines) + line_end).encode("utf-8"))
        public = parse_scores_csv if fmt == "csv" else parse_letor
        line_parser = dataio._scores_csv_lines if fmt == "csv" else dataio._letor_lines
        for strict in (True, False):
            assert _outcome(public, path, strict) == _outcome(line_parser, path, strict)


    # one file for each check of the fast path; without the check the
    # tokenizer would read the file differently from the line parser
    @pytest.mark.parametrize("fmt, text", [
        ("csv", '"q0",0,0.5,1\n'),  # a quoted query id
        ("csv", "q0,0,0.5,1,7\n"),  # an extra field, which usecols would drop
        ("csv", "q0,0," + "0" * 140_000 + "1,1\n"),  # past the csv module's field limit
        ("csv", "q\x00,0,0.5,1\n"),  # Python 3.10's csv module rejects NUL
        ("csv", "q0,1,0.5,1\n"),  # not dense
        ("csv", "q0,0,0.5,1\nq0,0,0.25,2\n"),  # a duplicate candidate
        ("csv", "q0,0,0.5,1\nq1\n"),  # a line with no comma, all the check can tell from blank
        ("csv", "q 0,0,0.5,1\n"),  # whitespace, which Python's float() and csv take their way
        ("letor", "1 qid:q0 1:0.5 2:0.5:7\n"),  # a value with a colon
        ("letor", "1 qid:q0 1:0.5\n1 qid:q0 1:0.25 9\n"),  # a token with no colon
        ("letor", "1 qid: 1:0.5\n"),  # an empty qid
        ("letor", "1 xid:q0 1:0.5\n"),  # no qid token
        ("letor", "1 xid:a qid:5\n"),  # a qid token, but not the second
        ("letor", "1 qid:q\x00 1:0.5\n"),  # NUL
        ("letor", "1 qid:q0 2:0.5 1:0.25\n"),  # indices out of order
        ("letor", "1 qid:q0 1:0.5\n1\n"),  # a line with no space or colon
        ("letor", "1  qid:q0 1:0.5\n"),  # two spaces
    ])
    def test_each_check_of_the_fast_path(self, tmp_path, fmt, text):
        path = tmp_path / f"data.{fmt}"
        header = "query_id,candidate_id,ranker_0,relevance\n" if fmt == "csv" else ""
        path.write_text(header + text, encoding="utf-8")
        public = parse_scores_csv if fmt == "csv" else parse_letor
        line_parser = dataio._scores_csv_lines if fmt == "csv" else dataio._letor_lines
        for strict in (True, False):
            assert _outcome(public, path, strict) == _outcome(line_parser, path, strict)

    # K = 8 reads feature indices into uint8, which holds none of these; 264 would wrap to 8
    # and pass the 1..K check if numpy wrapped instead of raising
    @pytest.mark.parametrize("index, error", [("300", "line 2: missing feature index 8"),
                                              ("264", "line 2: missing feature index 8"),
                                              ("-1", "line 2: feature index -1 < 1")])
    def test_letor_index_outside_its_field(self, tmp_path, index, error):
        features = [f"{i}:0.5" for i in range(1, 9)]
        path = tmp_path / "data.letor"
        path.write_text(f"1 qid:q0 {' '.join(features)}\n"
                        f"0 qid:q0 {' '.join(features[:7])} {index}:0.5\n", encoding="utf-8")
        assert dataio._tokenized(dataio._letor_tokenized, path) is None
        with pytest.raises(DataError, match=error):
            parse_letor(path)
        for strict in (True, False):
            assert _outcome(parse_letor, path, strict) == _outcome(_letor_lines, path, strict)

    def test_letor_with_more_rankers_than_uint8_holds(self, tmp_path):
        rng = np.random.default_rng(3)
        original = Dataset(tuple(
            make_query(rng.normal(size=(300, n)), query_id=f"q{i}",
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate([4, 1, 6])))
        path = tmp_path / "wide.letor"
        write_letor(original, path)
        fast = dataio._tokenized(dataio._letor_tokenized, path)  # a uint16 index field
        assert fast is not None
        assert datasets_equal(fast, _letor_lines(path, True))
        assert datasets_equal(original, fast)


class TestTokenizerIsUsed:
    """Well-formed files never reach the line parser, which is 2-3x slower."""

    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def refuse(path, strict):
            raise AssertionError(f"{path} went to the line parser")
        monkeypatch.setattr(dataio, "_scores_csv_lines", refuse)
        monkeypatch.setattr(dataio, "_letor_lines", refuse)

    def ragged(self) -> Dataset:
        rng = np.random.default_rng(5)
        return Dataset(tuple(
            make_query(rng.normal(size=(3, n)), query_id=f"q{i}",
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate([1, 7, 2, 30])))

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_well_formed_file(self, tmp_path, fmt, no_line_parser):
        original = self.ragged()
        path = tmp_path / f"data.{fmt}"
        (write_scores_csv if fmt == "csv" else write_letor)(original, path)
        parsed = (parse_scores_csv if fmt == "csv" else parse_letor)(path)
        assert datasets_equal(original, parsed)
        assert parsed.provenance == f"{fmt}:{path}"

    def test_letor_comments_and_blank_lines(self, tmp_path, no_line_parser):
        path = tmp_path / "tiny.txt"
        path.write_text("\n# header comment\n" + LETOR_TWO_LINES + "\n")
        np.testing.assert_array_equal(parse_letor(path).queries[0].matrix,
                                      [[0.3, 0.1], [0.7, 0.2], [1.0, 0.5]])

    def test_csv_rows_out_of_candidate_order(self, tmp_path, no_line_parser):
        path = tmp_path / "scores.csv"
        path.write_text("query_id,candidate_id,ranker_0\n"
                        "b,1,0.5\r\n\r\nb,0,0.25\n\na,0,0.75\r")
        ds = parse_scores_csv(path)
        assert [q.query_id for q in ds.queries] == ["b", "a"]
        np.testing.assert_array_equal(ds.queries[0].matrix, [[0.25, 0.5]])

    def test_mq2008_shaped_letor(self, tmp_path, no_line_parser):
        # 46 features and a trailing document comment on every line, as in MQ2008
        rng = np.random.default_rng(7)
        original = Dataset(tuple(
            make_query(rng.random(size=(46, n)).round(6), query_id=str(10002 + i),
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate([8, 3, 15])))
        path = tmp_path / "mq2008.txt"
        write_letor(original, path)
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{line} #docid = GX000-00-0000000 inc = 1 prob = 0.0123\n"
                                for line in lines))
        assert datasets_equal(original, parse_letor(path))

    def test_csv_ids_non_ascii_and_long(self, tmp_path, no_line_parser):
        ids = ["requête-ü", "查询", "q" * 72, "x" * 71 + "é"]
        rng = np.random.default_rng(9)
        original = Dataset(tuple(
            make_query(rng.normal(size=(2, n)), query_id=query_id,
                       relevance=rng.integers(0, 3, size=n))
            for query_id, n in zip(ids, [3, 1, 4, 2])))
        path = tmp_path / "scores.csv"
        write_scores_csv(original, path)
        parsed = parse_scores_csv(path)
        assert [q.query_id for q in parsed.queries] == ids
        assert datasets_equal(original, parsed)

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_leading_byte_order_mark(self, tmp_path, fmt, line_end):
        # Python's text layer alone reads the BOM and the line ends, for both formats
        original = self.ragged()
        path = tmp_path / f"data.{fmt}"
        (write_scores_csv if fmt == "csv" else write_letor)(original, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes().replace(b"\n", line_end.encode()))
        fast, line_parser = ((dataio._scores_csv_tokenized, dataio._scores_csv_lines)
                             if fmt == "csv" else (dataio._letor_tokenized, dataio._letor_lines))
        dataset = dataio._tokenized(fast, path)
        assert dataset is not None and datasets_equal(original, dataset)
        assert (_outcome(lambda p, strict: dataset, path, True)
                == _outcome(line_parser, path, True))

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_data_file_is_opened_once(self, tmp_path, fmt, no_line_parser, monkeypatch):
        # numpy reads the lines the reader checked, so each row's id and scores come from
        # one reading of the file
        path = tmp_path / f"data.{fmt}"
        (write_scores_csv if fmt == "csv" else write_letor)(self.ragged(), path)
        opened, loaded, loadtxt = [], [], np.loadtxt

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        def recorded_loadtxt(fname, *args, **kwargs):
            loaded.append(type(fname))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(dataio, "open", counted_open, raising=False)
        monkeypatch.setattr(np, "loadtxt", recorded_loadtxt)
        (parse_scores_csv if fmt == "csv" else parse_letor)(path)
        assert opened == [path]
        assert len(loaded) == 1 and not issubclass(loaded[0], (str, bytes, os.PathLike))


class TestChunkedReading:
    """The fast paths check and pass on lines a chunk at a time, whatever the chunk size."""

    @pytest.fixture(params=[1, 100], ids=["line-per-chunk", "small-chunks"])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK", request.param)

    @staticmethod
    def write(tmp_path, fmt: str):
        """A file of 78 rows in ``fmt``, its fast path and its line parser."""
        rng = np.random.default_rng(3)
        data = Dataset(tuple(
            make_query(rng.normal(size=(2, n)), query_id=f"q{i}",
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate([3, 40, 1, 25, 9])))
        path = tmp_path / f"data.{fmt}"
        if fmt == "csv":
            write_scores_csv(data, path)
            return path, dataio._scores_csv_tokenized, dataio._scores_csv_lines
        write_letor(data, path)
        return path, dataio._letor_tokenized, dataio._letor_lines

    @staticmethod
    def read_fast(fast, path):
        """The outcome of a fast path that must take the file, as ``_outcome`` gives it."""
        dataset = dataio._tokenized(fast, path)
        assert dataset is not None
        return _outcome(lambda p, strict: dataset, path, True)

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_same_dataset_as_the_line_parser(self, tmp_path, fmt, small_chunks):
        path, fast, line_parser = self.write(tmp_path, fmt)
        assert self.read_fast(fast, path) == _outcome(line_parser, path, True)

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_ids_that_recur_after_other_queries(self, tmp_path, fmt, small_chunks):
        # runs of q1, q0, q1, q2, q0: a query's rows need not be adjacent
        rng = np.random.default_rng(4)
        runs = [("q1", 4), ("q0", 2), ("q1", 3), ("q2", 5), ("q0", 1)]
        seen: dict[str, int] = {}
        lines = []
        for qid, n in runs:
            for _ in range(n):
                cand = seen[qid] = seen.get(qid, -1) + 1
                a, b = rng.normal(size=2).tolist()
                grade = int(rng.integers(0, 3))
                lines.append(f"{qid},{cand},{a!r},{b!r},{grade}\n" if fmt == "csv"
                             else f"{grade} qid:{qid} 1:{a!r} 2:{b!r}\n")
        path = tmp_path / f"data.{fmt}"
        header = "query_id,candidate_id,ranker_0,ranker_1,relevance\n" if fmt == "csv" else ""
        path.write_text(header + "".join(lines), encoding="utf-8")
        fast, line_parser = ((dataio._scores_csv_tokenized, dataio._scores_csv_lines)
                             if fmt == "csv" else (dataio._letor_tokenized, dataio._letor_lines))
        outcome = self.read_fast(fast, path)
        assert [(qid, shape) for qid, shape, *_ in outcome[2]] == [
            ("q1", (2, 7)), ("q0", (2, 3)), ("q2", (2, 5))]
        assert outcome == _outcome(line_parser, path, True)

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_ids_of_very_different_lengths_in_one_chunk(self, tmp_path, fmt):
        rng = np.random.default_rng(5)
        data = Dataset(tuple(
            make_query(rng.normal(size=(2, n)), query_id=query_id,
                       relevance=rng.integers(0, 3, size=n))
            for query_id, n in [("a", 40), ("b" * 5000, 1), ("c", 3)]))
        path = tmp_path / f"data.{fmt}"
        if fmt == "csv":
            write_scores_csv(data, path)
            fast, line_parser = dataio._scores_csv_tokenized, dataio._scores_csv_lines
        else:
            write_letor(data, path)
            fast, line_parser = dataio._letor_tokenized, dataio._letor_lines
        assert path.stat().st_size < dataio._CHUNK
        assert self.read_fast(fast, path) == _outcome(line_parser, path, True)

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_bad_line_in_a_later_chunk_falls_back(self, tmp_path, fmt, small_chunks):
        path, fast, line_parser = self.write(tmp_path, fmt)
        lines = path.read_text().splitlines()
        sep = "," if fmt == "csv" else " "
        fields = lines[-3].split(sep)
        fields[2] = "x" if fmt == "csv" else "1:x"
        lines[-3] = sep.join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert dataio._tokenized(fast, path) is None
        with pytest.raises(DataError, match=rf"line {len(lines) - 2}: ") as caught:
            (parse_scores_csv if fmt == "csv" else parse_letor)(path)
        assert _outcome(line_parser, path, True) == ("error", str(caught.value))

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_blank_lines_at_chunk_edges_are_skipped(self, tmp_path, fmt, small_chunks):
        path, fast, _ = self.write(tmp_path, fmt)
        expected = self.read_fast(fast, path)
        lines = path.read_text().splitlines()
        first = 1 if fmt == "csv" else 0  # a CSV's header stays the first line
        path.write_text("\n".join(lines[:first] + [f"\n{line}" for line in lines[first:]])
                        + "\n\n\n")
        assert self.read_fast(fast, path) == expected

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_dataset_allocates_about_what_it_returns(self, tmp_path, fmt, monkeypatch):
        # each query is copied once, from the parsed rows, with no reordered copy of them all
        rng = np.random.default_rng(11)
        sizes = rng.integers(5, 301, size=175)
        rows, k = int(sizes.sum()), 8
        data = Dataset(tuple(
            make_query(rng.normal(size=(k, n)), query_id=f"q{i}",
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate(sizes)))
        path = tmp_path / f"data.{fmt}"
        (write_scores_csv if fmt == "csv" else write_letor)(data, path)
        build, added = dataio._dataset, []

        def traced(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dataset = build(*args, **kwargs)
            added.append(tracemalloc.get_traced_memory()[1] - before)
            return dataset

        monkeypatch.setattr(dataio, "_dataset", traced)
        tracemalloc.start()
        try:
            parsed = (parse_scores_csv if fmt == "csv" else parse_letor)(path)
        finally:
            tracemalloc.stop()
        assert datasets_equal(data, parsed) and rows > 25_000
        assert added[0] <= 1.6 * (rows * k + rows) * 8

    @pytest.mark.parametrize("fmt", ["csv", "letor"])
    def test_peak_memory_stays_well_below_twice_the_file_size(self, tmp_path, fmt):
        # a reader that held every line of the file would need about twice its size
        rng = np.random.default_rng(0)
        path = tmp_path / f"big.{fmt}"
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == "csv":
                fh.write("query_id,candidate_id,ranker_0\n")
            for i in range(2000):
                qid = f"{'long-query-identifier-' * 3}{i:06d}"
                fh.writelines(f"{qid},{c},{rng.random()!r}\n" if fmt == "csv"
                              else f"0 qid:{qid} 1:{rng.random()!r}\n" for c in range(25))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            dataset = (parse_scores_csv if fmt == "csv" else parse_letor)(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dataset.queries) == 2000 and size > 4_000_000
        assert peak < 1.25 * size


class TestPairwiseTransform:
    def test_equal_inputs_give_zero(self):
        out = pairwise_feature_transform([1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_log_scale_value(self):
        out = pairwise_feature_transform([np.e - 1.0], [0.0])
        np.testing.assert_allclose(out, [1.0], atol=1e-15)

    def test_antisymmetry_is_exact(self, rng):
        a = rng.uniform(0, 100, size=11)
        b = rng.uniform(0, 100, size=11)
        np.testing.assert_array_equal(pairwise_feature_transform(a, b),
                                      -pairwise_feature_transform(b, a))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pairwise_feature_transform([-0.1], [0.0])


class TestSynthPlanted:
    def test_zero_noise_ranker_matches_ground_truth(self):
        ds = synth_planted(20, 8, 3, [0.0, 0.7, 1.4], seed=2)
        for q in ds.queries:
            truth = ranking_from_scores(q.relevance)
            assert np.array_equal(ranking_from_scores(q.matrix[0]), truth)

    def test_deterministic(self):
        a = synth_planted(5, 6, 2, [0.0, 1.0], seed=42)
        b = synth_planted(5, 6, 2, [0.0, 1.0], seed=42)
        for qa, qb in zip(a.queries, b.queries):
            np.testing.assert_array_equal(qa.matrix, qb.matrix)

    def test_equal_noise_rankers_have_similar_ndcg(self):
        # two rankers with the same noise level, different draws
        ds = synth_planted(500, 8, 2, [0.8, 0.8], seed=7)
        gain = sigmoid_gain(8)
        means = []
        for i in range(2):
            vals = []
            for q in ds.queries:
                vals.append(ndcg_at_k(ranking_from_scores(q.matrix[i]), q.relevance, 5, gain))
            means.append(float(np.mean(vals)))
        assert abs(means[0] - means[1]) <= 0.02

    def test_single_ranker_dataset_parses_and_trains(self):
        ds = synth_planted(3, 5, 1, [0.5], seed=1)
        model, _ = train(ds, LinearHyper(epochs=2), ChainConfig(rng_seed=0))
        np.testing.assert_array_equal(model.weights.w, [1.0])

    def test_noise_levels_validated(self):
        with pytest.raises(ValueError, match="noise levels"):
            synth_planted(2, 3, 2, [0.5], seed=0)

    def test_all_zero_grades_are_redrawn(self):
        # seed 14 draws grade 0 for a lone candidate, then 4
        assert np.random.default_rng(14).integers(0, 5, size=1).tolist() == [0]
        (q,) = synth_planted(1, 1, 1, [0.0], seed=14).queries
        assert q.relevance.tolist() == [4.0]


class TestNormalizeMinmax:
    def test_affine_map(self):
        q = make_query([[0.0, 5.0, 10.0]])
        out = normalize_minmax(q)
        np.testing.assert_array_equal(out.matrix[0], [0.0, 0.5, 1.0])

    def test_constant_list_maps_to_half(self):
        q = make_query([[3.0, 3.0, 3.0]])
        out = normalize_minmax(q)
        np.testing.assert_array_equal(out.matrix[0], [0.5, 0.5, 0.5])

    def test_rankings_preserved(self, rng):
        for _ in range(20):
            q = make_query(rng.normal(size=(3, 7)) * rng.uniform(0.1, 50))
            out = normalize_minmax(q)
            for before, after in zip(q.matrix, out.matrix):
                assert np.array_equal(ranking_from_scores(before), ranking_from_scores(after))

    def test_relevance_preserved(self):
        q = make_query([[0.0, 5.0]], relevance=[1.0, 0.0])
        out = normalize_minmax(q)
        np.testing.assert_array_equal(out.relevance, [1.0, 0.0])

    @given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.sampled_from([1e20, -1e20, 1e308, -1e308]),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_never_reverses_a_pair(self, row):
        x = np.array(row)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = normalize_minmax(make_query([row])).matrix[0]
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert np.all((y[:, None] >= y[None, :])[x[:, None] > x[None, :]])
        assert np.all((y[:, None] == y[None, :])[x[:, None] == x[None, :]])

    def test_huge_span_rounds_distinct_scores_to_a_tie(self):
        # 3 + 1e20 and 2 + 1e20 both round to 1e20, so 3.0 and 2.0 tie at 0.5:
        # the order is not reversed, but the two scores are no longer distinct
        out = normalize_minmax(make_query([[1e20, -1e20, 3.0, 2.0]]))
        np.testing.assert_array_equal(out.matrix[0], [1.0, 0.0, 0.5, 0.5])


class TestMatrixLayout:
    """Every query matrix is C-ordered and read-only.

    BLAS rounds ``w @ X`` by memory layout, so a Fortran-ordered matrix
    (a CSV parse assembles the transpose) would change the last digit of
    aggregated scores against a contiguous copy. A parsed query's matrix
    and grades are views of the dataset's block for its N, which is
    C-ordered and read-only too.
    """

    K, SIZES = 8, (50, 7, 50, 1)

    def check(self, q: QueryInstance) -> None:
        assert q.matrix.flags.c_contiguous
        assert not q.matrix.flags.writeable
        assert q.relevance is None or not q.relevance.flags.writeable
        w = np.random.default_rng(3).dirichlet(np.ones(q.k))
        assert (w @ q.matrix).tobytes() == (w @ np.ascontiguousarray(q.matrix)).tobytes()

    def check_blocks(self, dataset: Dataset) -> None:
        for block in dataset.blocks:
            for array in (block.scores, block.relevance):
                assert array.flags.c_contiguous and not array.flags.writeable
            for j, i in enumerate(block.index.tolist()):
                q = dataset.queries[i]
                self.check(q)
                assert q.matrix.base is block.scores and q.relevance.base is block.relevance
                assert q.matrix.tobytes() == block.scores[j].tobytes()
                assert q.relevance.tobytes() == block.relevance[j].tobytes()

    def dataset(self, rng) -> Dataset:
        return Dataset(tuple(
            make_query(rng.normal(size=(self.K, n)), query_id=f"q{i}",
                       relevance=rng.integers(0, 3, size=n))
            for i, n in enumerate(self.SIZES)))

    def test_from_matrix_of_a_transpose(self, rng):
        transposed = rng.normal(size=(self.SIZES[0], self.K)).T
        assert not transposed.flags.c_contiguous
        self.check(QueryInstance.from_matrix("q", transposed))

    def test_parse_scores_csv(self, tmp_path, rng):
        write_scores_csv(self.dataset(rng), tmp_path / "s.csv")
        for parse in (parse_scores_csv, lambda path: _scores_csv_lines(path, True)):
            self.check_blocks(parse(tmp_path / "s.csv"))

    def test_parse_letor(self, tmp_path, rng):
        write_letor(self.dataset(rng), tmp_path / "s.letor")
        for parse in (parse_letor, lambda path: _letor_lines(path, True)):
            self.check_blocks(parse(tmp_path / "s.letor"))

    def test_blocks_of_a_dataset_built_by_hand(self, rng):
        # stacked on first use: the queries keep their own arrays
        dataset = self.dataset(rng)
        assert [block.index.tolist() for block in dataset.blocks] == [[3], [1], [0, 2]]
        for block in dataset.blocks:
            assert block.scores.flags.c_contiguous and not block.scores.flags.writeable
            for j, i in enumerate(block.index.tolist()):
                assert block.scores[j].tobytes() == dataset.queries[i].matrix.tobytes()
                assert block.relevance[j].tobytes() == dataset.queries[i].relevance.tobytes()
        assert Dataset(tuple(QueryInstance(f"q{n}", np.ones((1, n))) for n in (2, 1))).blocks[
            0].relevance is None

    def test_normalize_minmax(self, rng):
        for q in self.dataset(rng).queries:
            self.check(normalize_minmax(q))


class TestParsedBlockCheck:
    """A fault the fast path finds in the parsed block is named by the line parser."""

    @pytest.mark.parametrize("fmt, text, line", [
        ("csv", "q0,0,0.5,1\nq0,1,nan,1\n", 3),  # a score that is not finite
        ("csv", "q0,0,0.5,1\nq0,1,0.5,-1\n", 3),  # a negative grade
        ("letor", "1 qid:q0 1:0.5\n1 qid:q0 1:inf\n", 2),
        ("letor", "1 qid:q0 1:0.5\n-2 qid:q0 1:0.5\n", 2),
    ])
    def test_fault_is_named_by_the_line_parser(self, tmp_path, fmt, text, line):
        path = tmp_path / f"data.{fmt}"
        header = "query_id,candidate_id,ranker_0,relevance\n" if fmt == "csv" else ""
        path.write_text(header + text, encoding="utf-8")
        public = parse_scores_csv if fmt == "csv" else parse_letor
        line_parser = dataio._scores_csv_lines if fmt == "csv" else dataio._letor_lines
        for strict in (True, False):
            with pytest.raises(DataError, match=f" line {line}: "):
                public(path, strict=strict)
            assert _outcome(public, path, strict) == _outcome(line_parser, path, strict)


# Text that a quoted CSV field or a % or str.format template could get wrong, among any
# other characters.
_TRICKY = [",", '"', "\r", "\n", "\x00", " ", "%", "%%", "%s", "%d", "%r", "%(q)s", "{", "}", "{0}",
           "é", "\u2028", "\U0001f600"]
_FIELD_TEXT = st.lists(st.one_of(st.sampled_from(_TRICKY), st.characters(codec="utf-8")),
                       max_size=8).map("".join)
# no parser lets NUL into a query id, and a model file's stem cannot hold one
_ID_TEXT = _FIELD_TEXT.map(lambda text: text.replace("\x00", ""))
_SCORE = st.one_of(st.integers(-2, 2).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestCsvWriters:
    """The CSV writers write the bytes of the csv module and of row-at-a-time f-strings."""

    @given(_FIELD_TEXT)
    @settings(deadline=None)
    def test_csv_field_is_the_csv_module_form(self, text):
        try:
            expected = oracles.csv_field(text)
        except csv.Error:  # Python 3.10's writer cannot write NUL without an escapechar
            assert "\x00" in text and sys.version_info < (3, 11)
            return
        assert dataio._csv_field(text) == expected

    @given(ids=st.lists(_ID_TEXT, min_size=1, max_size=4, unique=True), data=st.data())
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rankings_rows(self, tmp_path, ids, data):
        scores = [np.array(data.draw(st.lists(_SCORE, min_size=1, max_size=6))) for _ in ids]
        orders = [ranking_from_scores(x) for x in scores]
        dataio._write_rankings_csv(tmp_path / "got.csv", ids,
                                   [(order.tolist(), x[order].tolist())
                                    for order, x in zip(orders, scores)])
        oracles.write_rankings_csv(tmp_path / "want.csv", ids, scores)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @given(columns=st.lists(_ID_TEXT, min_size=1, max_size=3),
           methods=st.lists(_ID_TEXT, min_size=1, max_size=3),
           ids=st.lists(_ID_TEXT.filter(lambda text: text != "MEAN"), min_size=1, max_size=4,
                        unique=True),
           data=st.data())
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_metric_rows(self, tmp_path, columns, methods, ids, data):
        value = st.floats(0.0, 1.0)
        tables = [np.array(data.draw(st.lists(st.lists(value, min_size=len(columns),
                                                        max_size=len(columns)),
                                               min_size=len(ids), max_size=len(ids))))
                  for _ in methods]
        write_metric_csv(tmp_path / "got.csv", columns, methods, ids, tables)
        oracles.write_metric_csv(tmp_path / "want.csv", columns, methods, ids, tables)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("columns, shape", [([], (1, 0)), (["a"], (1, 2)), (["a"], (2, 1))])
    def test_metric_rows_refuse_no_columns_and_misshapen_tables(self, tmp_path, columns, shape):
        with pytest.raises(ValueError):
            write_metric_csv(tmp_path / "got.csv", columns, ["m"], ["q"], [np.zeros(shape)])
        assert not (tmp_path / "got.csv").exists()


class TestDataset:
    def test_uniform_k_enforced(self):
        q1 = make_query([[1.0, 2.0]], query_id="a")
        q2 = make_query([[1.0, 2.0], [3.0, 4.0]], query_id="b")
        with pytest.raises(DataError, match="disagree"):
            Dataset((q1, q2))

    def test_unique_ids_enforced(self):
        q1 = make_query([[1.0, 2.0]], query_id="a")
        q2 = make_query([[3.0, 4.0]], query_id="a")
        with pytest.raises(DataError, match="unique"):
            Dataset((q1, q2))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no queries"):
            Dataset(())
